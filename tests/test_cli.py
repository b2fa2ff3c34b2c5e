"""Command line surface: subcommands, outputs, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spamm.cli
from spamm import numeric
from spamm.bench import (
    BENCH_BLOCK,
    CSV_HEADER,
    RATIO_HEADER,
    SCENARIOS,
    CalibrationResult,
    calibrate_tau,
)
from spamm.cli import CALIBRATION_HEADER, main
from spamm.core import DEFAULT_BLOCK, DenseMatrix, QuadtreeMatrix
from spamm.generators import GeneratorSpec, generate
from spamm.io import load_matrix, load_quadtree, save_matrix
from spamm.numeric import MultiplyConfig, multiply
from spamm.reference import dense_multiply_double, max_norm_error


def _gen(tmp_path, name="a.mtx", n=64, seed=3, extra=()):
    p = tmp_path / name
    rc = main(["generate", "--kind", "exponential", "--lambda", "0.6",
               "--seed", str(seed), "--n", str(n), "--out", str(p), *extra])
    assert rc == 0
    return p


def test_generate_matches_library(tmp_path, capsys):
    p = _gen(tmp_path, seed=9)
    out = capsys.readouterr().out
    assert "64x64" in out
    want = generate(GeneratorSpec(kind="exponential", n=64, lam=0.6, seed=9))
    assert np.array_equal(load_matrix(p).data, want.data.astype(np.float64))


def test_generate_coordinate_layout(tmp_path):
    p = _gen(tmp_path, extra=("--layout", "coordinate"))
    assert "coordinate" in p.read_text().splitlines()[0]


def test_multiply_writes_product_and_tree(tmp_path, capsys):
    a = _gen(tmp_path)
    out = tmp_path / "c.mtx"
    qt = tmp_path / "c.qt"
    rc = main(["multiply", str(a), "--scenario", "spamm4", "--tau", "1e-8",
               "--out", str(out), "--tree-out", str(qt)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "plan:" in printed and "products4=" in printed
    exec_line = next(line for line in printed.splitlines() if line.startswith("exec:"))
    # one leaf at the default n_b: too little work to start threads
    assert exec_line.endswith(f" kernel={numeric._kernel_isa(DEFAULT_BLOCK)} threads=1")
    assert " mirrored=0 " in exec_line
    ad = load_matrix(a)
    ref = dense_multiply_double(ad, ad)
    got = load_matrix(out)
    assert max_norm_error(got, ref).delta < 1e-5
    tree = load_quadtree(qt)
    assert np.array_equal(tree.to_dense().data.astype(np.float64), got.data)
    # a symmetric operand on a 4 x 4 block grid: the square's 6 leaves below
    # the diagonal are written as the transposes of those above it
    sym = _gen(tmp_path, "s.mtx", extra=("--symmetrize",))
    assert main(["multiply", str(sym), "--tau", "1e-8", "--block-size", "16",
                 "--out", str(out)]) == 0
    exec_line = next(line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("exec:"))
    assert int(exec_line.split(" mirrored=")[1].split()[0]) == 6
    got = load_matrix(out).data
    assert np.array_equal(got, got.T)


def test_multiply_two_operands_dense_double(tmp_path):
    a = _gen(tmp_path, "a.mtx", seed=1)
    b = _gen(tmp_path, "b.mtx", seed=2)
    out = tmp_path / "c.mtx"
    rc = main(["multiply", str(a), str(b), "--scenario", "dense-double",
               "--out", str(out)])
    assert rc == 0
    want = dense_multiply_double(load_matrix(a), load_matrix(b))
    assert np.array_equal(load_matrix(out).data, want.data)


def test_multiply_alpha_beta_accumulator(tmp_path):
    a = _gen(tmp_path, "a.mtx", seed=4)
    c0 = tmp_path / "c0.mtx"
    save_matrix(c0, generate(GeneratorSpec(kind="random-dense", n=64, seed=5)))
    out = tmp_path / "c.mtx"
    rc = main(["multiply", str(a), "--scenario", "dense-double", "--alpha", "2",
               "--beta", "0.5", "--c-in", str(c0), "--out", str(out)])
    assert rc == 0
    want = dense_multiply_double(load_matrix(a), load_matrix(a), alpha=2.0,
                                 beta=0.5, c=load_matrix(c0))
    assert np.array_equal(load_matrix(out).data, want.data)


def test_multiply_tree_accumulator_matches_library(tmp_path, capsys):
    a = _gen(tmp_path, "a.mtx", seed=4)
    out = tmp_path / "c.mtx"
    qt = tmp_path / "c.qt"
    rc = main(["multiply", str(a), "--scenario", "spamm4", "--tau", "1e-8",
               "--alpha", "-1", "--beta", "2", "--c-in", str(a), "--block-size", "8",
               "--out", str(out), "--tree-out", str(qt)])
    assert rc == 0
    assert f" kernel={numeric._kernel_isa(8)} threads=" in capsys.readouterr().out
    qa = QuadtreeMatrix.from_dense(load_matrix(a), 8)
    want, _, _ = multiply(qa, qa, MultiplyConfig(1e-8, "fine4", -1.0, 2.0), c=qa)
    assert np.array_equal(load_matrix(out).data, want.to_dense().data.astype(np.float64))
    got = load_quadtree(qt)
    assert got.n_b == 8
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("argv", [
    ["multiply", "{a}", "--scenario", "spamm4"],
    ["multiply", "{a}", "{b}", "--scenario", "spamm16", "--beta", "1", "--c-in", "{c}"],
    ["multiply", "{a}", "--scenario", "dense-double", "--beta", "1", "--c-in", "{c}"],
    ["verify", "{a}", "--scenario", "spamm4", "--tau", "1e-8"],
    ["verify", "{a}", "{b}", "--scenario", "spamm-dense-leaf"],
    ["verify", "{a}", "{b}", "--scenario", "dense-single"],
])
def test_each_operand_file_is_read_once(tmp_path, monkeypatch, argv):
    files = {k: str(_gen(tmp_path, f"{k}.mtx", seed=s)) for s, k in enumerate("abc")}
    reads = []

    def counting_load(path):
        reads.append(path)
        return load_matrix(path)

    monkeypatch.setattr(spamm.cli, "load_matrix", counting_load)
    argv = [arg.format(**files) for arg in argv]
    assert main(argv) == 0
    named = [files[k] for k in "abc" if files[k] in argv]
    assert sorted(reads) == sorted(named)


def test_multiply_beta_without_accumulator_exits_2(tmp_path, capsys):
    a = _gen(tmp_path)
    assert main(["multiply", str(a), "--beta", "0.5"]) == 2
    assert "c-in" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_multiply_float32_overflow_exits_2(tmp_path, capsys):
    p = tmp_path / "big.mtx"
    save_matrix(p, DenseMatrix(np.eye(32) * 1e30))  # product 1e60 overflows
    assert main(["multiply", str(p), "--scenario", "spamm4"]) == 2
    assert "block row 0, column 0" in capsys.readouterr().err
    save_matrix(p, DenseMatrix(np.eye(32) * 1e39))  # operand overflows on load
    assert main(["multiply", str(p), "--scenario", "spamm4"]) == 2


@pytest.mark.parametrize("command", ["generate", "multiply"])
def test_an_allocation_that_cannot_be_made_exits_2(tmp_path, capsys, command):
    # 16777216^2 float32 is 1 PiB, more than any address space holds
    out = tmp_path / "out.mtx"
    if command == "generate":
        argv = ["generate", "--n", "16777216", "--out", str(out)]
    else:
        argv = ["multiply", str(_gen(tmp_path)), "--block-size", "16777216",
                "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("spamm: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_rejects_a_bad_tau(tmp_path, capsys, scenario):
    a = _gen(tmp_path)
    b = _gen(tmp_path, "b.mtx", n=32)
    for argv in (["multiply", str(a), "--tau", "nan"],
                 ["verify", str(a), "--tau", "-1"],
                 ["bench", "--n", "32", "--tau", "0,-1", "--repeats", "1"]):
        capsys.readouterr()
        assert main([*argv, "--scenario", scenario]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        bad = "nan" if "nan" in argv else "-1.0"
        assert out.err == f"spamm: tau must be nonnegative, got {bad}\n"
    # a shape fault is reported before a bad tau
    assert main(["multiply", str(a), str(b), "--tau", "-1", "--scenario", scenario]) == 2
    assert "inner dimensions differ" in capsys.readouterr().err


def test_multiply_missing_file_exits_3(tmp_path, capsys):
    assert main(["multiply", str(tmp_path / "nope.mtx")]) == 3
    assert "spamm:" in capsys.readouterr().err


def test_multiply_malformed_file_exits_3(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix array complex general\n1 1\n1 0\n")
    assert main(["multiply", str(p)]) == 3


# (target of --out, PYTHONUNBUFFERED, whether the reader takes a line first)
CLOSED_PIPES = {
    "product on stdout": ("/dev/stdout", "", True),
    "summary lines one by one": ("{out}", "1", True),
    "reader gone before the final flush": ("{out}", "", False),
}


@pytest.mark.parametrize("case", list(CLOSED_PIPES))
def test_multiply_into_a_closed_pipe_exits_0_quietly(tmp_path, case):
    target, unbuffered, read_first = CLOSED_PIPES[case]
    a = _gen(tmp_path, n=256)  # the product's text is far larger than a pipe buffer
    out = tmp_path / "c.mtx"
    argv = ["multiply", str(a), "--tau", "1e-8", "--out", target.format(out=out)]
    src = str(Path(spamm.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    if not read_first:
        os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "spamm.cli", *argv], stdout=write_end,
                            stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    if read_first:
        with os.fdopen(read_end, "rb") as pipe:
            assert pipe.readline()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert err == b""
    if target != "/dev/stdout":
        want = tmp_path / "want.mtx"
        assert main(argv[:-1] + [str(want)]) == 0
        assert out.read_bytes() == want.read_bytes()


def _exec_threads(out: str) -> int:
    """The threads= count of a `spamm multiply` report."""
    line = next(x for x in out.splitlines() if x.startswith("exec: "))
    return int(line.rsplit(" threads=", 1)[1])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_multiply_pinned_to_one_cpu_runs_one_thread(tmp_path, capsys):
    # thousands of tasks, enough to start threads
    a = _gen(tmp_path, n=256, extra=("--kind", "blocked-decay", "--lambda", "0.5",
                                     "--blocks", "5,15"))
    argv = ["multiply", str(a), "--scenario", "spamm4", "--tau", "1e-8", "--block-size", "16"]
    assert main(argv) == 0
    cores = len(os.sched_getaffinity(0))
    qa = QuadtreeMatrix.from_dense(load_matrix(a), 16)
    c, plan, _ = multiply(qa, qa, MultiplyConfig(1e-8))
    assert plan.a_slot.size > 1000
    assert _exec_threads(capsys.readouterr().out) == min(cores, c.leaf_count)
    # the child pins itself, and only itself, to one of the CPUs it may use
    pin = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "from spamm.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(spamm.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", pin, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _exec_threads(proc.stdout) == 1
    assert len(os.sched_getaffinity(0)) == cores


def test_verify_within_limit(tmp_path, capsys):
    a = _gen(tmp_path)
    rc = main(["verify", str(a), "--scenario", "spamm16", "--tau", "1e-9",
               "--limit", "1e-4"])
    assert rc == 0
    assert "max_norm_error=" in capsys.readouterr().out


def test_verify_limit_breach_exits_1(tmp_path, capsys):
    a = _gen(tmp_path)
    rc = main(["verify", str(a), "--scenario", "spamm4", "--tau", "1e-3",
               "--limit", "1e-15"])
    assert rc == 1
    assert "exceeds" in capsys.readouterr().err


def test_verify_rejects_a_nan_limit(tmp_path, capsys):
    a = _gen(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(a), "--limit", "nan"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "spamm: --limit must be a number, got nan\n"


def test_verify_dense_double_is_error_free(tmp_path, capsys):
    a = _gen(tmp_path)
    assert main(["verify", str(a), "--scenario", "dense-double",
                 "--limit", "0"]) == 0
    assert "max_norm_error=0" in capsys.readouterr().out


def test_bench_csv_grid(tmp_path):
    out = tmp_path / "bench.csv"
    ratios = tmp_path / "ratios.csv"
    rc = main(["bench", "--kind", "exponential", "--n", "32,64",
               "--tau", "0,1e-6", "--scenario", "spamm4,spamm16",
               "--repeats", "1", "--out", str(out), "--ratios-out", str(ratios)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2
    assert lines[1].startswith("spamm4,32,0,fine4,")
    rlines = ratios.read_text().splitlines()
    assert rlines[0] == RATIO_HEADER
    assert len(rlines) == 5


def test_bench_to_stdout(capsys):
    rc = main(["bench", "--kind", "random-dense", "--n", "32", "--tau", "0",
               "--scenario", "dense-double", "--repeats", "1"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER


def test_bench_rejects_bad_lists(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--scenario", "spamm4,warp"])
    assert exc.value.code == 2


def test_bench_has_no_alpha_or_beta():
    # every bench run starts from an empty accumulator, so neither could
    # change a result
    for flag in ("--alpha", "--beta"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, "2"])
        assert exc.value.code == 2


def test_sweep_tau_calibration_table(tmp_path, capsys):
    out = tmp_path / "taus.csv"
    rc = main(["sweep-tau", "--kind", "blocked-decay", "--lambda", "0.55",
               "--blocks", "1,3", "--c", "0.125", "--seed", "7", "--n", "256",
               "--target", "1e-6", "--iters", "6", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CALIBRATION_HEADER
    assert len(lines) == 3
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"fine4", "coarse16"}
    tau4 = float(rows["fine4"][3])
    tau16 = float(rows["coarse16"][3])
    assert tau4 < tau16
    assert "tau(coarse16)/tau(fine4)" in capsys.readouterr().err
    # calibrated on 16x16 leaves, where coarse16 is the paper's 16x16 gate
    a = generate(GeneratorSpec(kind="blocked-decay", n=256, lam=0.55, c=0.125,
                               blocks=(1, 3), seed=7))
    want = calibrate_tau(QuadtreeMatrix.from_dense(a.data, BENCH_BLOCK),
                         dense_multiply_double(a, a), 1e-6, "coarse16", iters=6)
    assert rows["coarse16"][3] == f"{want.tau:.6g}"


def test_sweep_tau_rows_pinned(tmp_path, monkeypatch):
    # the table's format alone: each granularity gets a fixed result
    results = {
        "fine4": CalibrationResult(3.0517578125e-05, 2.5e-07, 1e-06, "fine4",
                                   [(1e-12, 0.0), (1e-03, 4e-06)]),
        "coarse16": CalibrationResult(1e-12, 0.00125, 1e-06, "coarse16",
                                      [(1e-12, 0.00125)]),
    }
    monkeypatch.setattr(spamm.cli, "calibrate_tau",
                        lambda tree, oracle, target, g, **kw: results[g])
    out = tmp_path / "taus.csv"
    assert main(["sweep-tau", "--n", "32", "--out", str(out)]) == 0
    assert out.read_text() == (
        CALIBRATION_HEADER + "\n"
        "fine4,32,1e-06,3.05176e-05,2.5e-07,true\n"
        "coarse16,32,1e-06,1e-12,0.00125,false\n"
    )


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("spamm ")
