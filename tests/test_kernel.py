"""The compiled stream kernel: its build cache and instructions, the checks
at its ctypes boundary, its ISA variants, and the floating-point
environment it leaves in the process."""

import os
import platform
import re
import shutil
import stat
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    LEAF_SIZES,
    assert_norm_invariant,
    assert_same_tree,
    block_multiply_16,
    copy_tree,
    decay_matrix,
    rng_matrix,
    sequential_execute,
    subnorm_squares,
)
from spamm import _kernel, numeric
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.morton import decode, transpose_keys
from spamm.numeric import MultiplyConfig, multiply
from spamm.reference import dense_multiply_single
from spamm.symbolic import build_plan

# -- build cache -------------------------------------------------------------


@pytest.fixture
def cache(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "_CACHE", path)
    return path


@pytest.fixture
def compiles(monkeypatch):
    """Commands passed to subprocess.run while the test runs."""
    calls = []
    run = subprocess.run

    def spy(cmd, *args, **kwargs):
        calls.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    return calls


def test_cold_cache_builds_once_then_reuses(cache, compiles):
    _kernel._load_kernel()
    built = list(cache.iterdir())
    assert len(compiles) == 1 and compiles[0][0] == _kernel._CC
    assert len(built) == 1 and built[0].suffix == ".so"
    assert stat.S_IMODE(cache.stat().st_mode) & 0o077 == 0
    stamp = built[0].stat().st_mtime_ns
    lib = _kernel._load_kernel()
    assert len(compiles) == 1
    assert list(cache.iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp
    counts = np.zeros(2, np.int64)
    lib.spamm_stream_gated(0, 16, *([None] * 8), 0.0, counts.ctypes.data, 1, 1,
                           1.0, 0.0, None, None, 1, None, None)
    assert counts.tolist() == [0, 0]
    # a tree of no leaves: every piece of every row is set to +0
    rows, index = np.full((3, 5), np.nan, np.float32), np.full((1, 2), -1, np.int64)
    lib.spamm_leaves_to_rows(3, 5, 4, index.ctypes.data, None, rows.ctypes.data)
    assert rows.tobytes() == np.zeros((3, 5), np.float32).tobytes()


def test_changed_source_builds_a_new_file(cache, compiles, tmp_path, monkeypatch):
    _kernel._load_kernel()
    edited = tmp_path / "_kernel.c"
    edited.write_text(_kernel._SOURCE.read_text() + "\n/* edited */\n")
    monkeypatch.setattr(_kernel, "_SOURCE", edited)
    _kernel._load_kernel()
    assert len(compiles) == 2
    assert len(list(cache.glob("*.so"))) == 2


def test_missing_compiler_raises_one_clear_error(cache, monkeypatch):
    monkeypatch.setattr(_kernel, "_CC", "spamm-no-such-cc")
    with pytest.raises(RuntimeError) as info:
        _kernel._load_kernel()
    message = str(info.value)
    assert "spamm-no-such-cc" in message and str(cache) in message
    assert info.value.__cause__ is None and info.value.__suppress_context__
    assert list(cache.iterdir()) == []  # no half-written file left


def test_kernel_compiles_without_warnings(tmp_path):
    # an unused variable or argument left by an edit fails here, not silently
    cmd = [_kernel._CC, *_kernel._CFLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "kernel.so"), str(_kernel._SOURCE)]
    built = subprocess.run(cmd, capture_output=True, text=True)
    assert built.returncode == 0, built.stderr


def _disassembly(symbol: str, text: str) -> str:
    """The instructions of one function in `objdump -d` output."""
    match = re.search(rf"^[0-9a-f]+ <{symbol}>:\n(.*?)(?:\n\n|\Z)", text, re.M | re.S)
    assert match, f"{symbol} is not in the built library"
    return match.group(1)


def _objdump(flag: str) -> str:
    """`objdump flag` of the loaded library; skips without objdump."""
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump is not installed")
    return subprocess.run([objdump, flag, _kernel._lib._name],
                          check=True, capture_output=True, text=True).stdout


def test_built_library_has_no_fma_and_every_variant():
    text = _objdump("-d")
    # a fused multiply-add rounds once where the float32 loop rounds twice
    assert not re.search(r"\bvfn?m(add|sub)", text)
    if platform.machine() in ("x86_64", "AMD64"):
        # each variant's slab loop is its body function, which the threads run
        assert "%ymm" in _disassembly("slab_avx2", text)
        assert "%zmm" in _disassembly("slab_avx512f", text)
        # the finish and the sub-norm squares have one copy per ISA too
        for name in ("finish_leaf", "block_squares"):
            assert "%ymm" in _disassembly(f"{name}.avx2", text)
            assert "%zmm" in _disassembly(f"{name}.avx512f", text)


def test_library_exports_one_gated_entry_point():
    names = {line.split()[-1] for line in _objdump("-T").splitlines()
             if line.split() and line.split()[-1].startswith("spamm_")}
    assert names == {"spamm_stream_gated", "spamm_slab_tiles", "spamm_subnorm_squares",
                     "spamm_leaves_to_rows", "spamm_leaves_symmetric"}


# -- checks at the ctypes boundary -------------------------------------------


def _operands(nb: int = 16):
    """Stacks and slots of a valid two-task stream into one C leaf."""
    tree = QuadtreeMatrix.from_dense(rng_matrix(2 * nb, 2 * nb, seed=40), nb)
    slots = np.array([0, 1], np.int64)
    return {
        "a_values": tree.values, "a_sub": tree.subnorms,
        "b_values": tree.values, "b_sub": tree.subnorms,
        "a_slot": slots, "b_slot": slots[::-1].copy(),
        "c_slot": np.zeros(2, np.int64),
        "acc": np.zeros((1, nb, nb), np.float32), "gate": 0.0,
    }


def _strided(arr: np.ndarray) -> np.ndarray:
    """Same shape, dtype and values, but not C-contiguous."""
    return np.asfortranarray(arr)


BAD_ARGS = {
    "float64 values": ("a_values", lambda v: v.astype(np.float64)),
    "strided values": ("b_values", _strided),
    "short values": ("b_values", lambda v: v[:, :8, :]),
    "float64 subnorms": ("a_sub", lambda v: v.astype(np.float64)),
    "wrong subnorm grid": ("b_sub", lambda v: v[:, :2, :2].copy()),
    "int32 slots": ("a_slot", lambda v: v.astype(np.int32)),
    "strided slots": ("b_slot", lambda v: np.repeat(v, 2)[::2]),
    "negative slot": ("a_slot", lambda v: v - 1),
    "slot past the stack": ("b_slot", lambda v: v + 3),  # 4 leaves
    "c slot past the stack": ("c_slot", lambda v: v + 1),
    "short c slots": ("c_slot", lambda v: v[:1]),
    "2-d accumulator": ("acc", lambda v: v[0]),
    "strided accumulator": ("acc", _strided),
    "read-only accumulator": ("acc", lambda v: np.broadcast_to(v, v.shape)),
    # the mirror map is absent from a valid stream: each case sets one
    "mirror past the stack": ("mirror", lambda v: np.ones(1, np.int64)),
    "negative mirror": ("mirror", lambda v: -np.ones(1, np.int64)),
    "int32 mirror": ("mirror", lambda v: np.zeros(1, np.int32)),
    "short mirror": ("mirror", lambda v: np.zeros(0, np.int64)),
}


def _oracle(args) -> tuple[np.ndarray, tuple[int, int]]:
    """The accumulator stack and (run, skipped) that a block_multiply_16 loop
    gives for the stream in args, which it leaves untouched."""
    acc = args["acc"].copy()
    run = skipped = 0
    for a, b, c in zip(args["a_slot"], args["b_slot"], args["c_slot"]):
        counters = block_multiply_16(
            args["a_values"][a], args["a_sub"][a], args["b_values"][b], args["b_sub"][b],
            acc[c], MultiplyConfig(tau=args["gate"]))
        run += counters.products4
        skipped += counters.skipped4
    return acc, (run, skipped)


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(x.view(np.uint32), y.view(np.uint32))


def _stream(args) -> tuple[int, int]:
    """(run, skipped) of the gated kernel on the stream in args, whose finish
    must also return the sub-norm squares of the leaves it left in acc."""
    run, skipped, subsq = numeric._stream_gated(**args)
    want = subnorm_squares(np.ascontiguousarray(args["acc"]))
    assert np.array_equal(subsq.view(np.uint64), want.view(np.uint64))
    return run, skipped


TILES = {isa: tiles for tiles, isa in numeric._SLAB_ISA.items()}


@pytest.fixture(params=list(TILES))
def variant(request, monkeypatch):
    """Run the gated kernel calls of a test on one ISA variant's slab width;
    skip the variants this CPU cannot run."""
    isa = request.param
    if TILES[isa] > numeric._slab_tiles(16):
        pytest.skip(f"this CPU runs the {numeric._kernel_isa(16)} variant at most, not {isa}")
    monkeypatch.setattr(numeric, "_slab_tiles", lambda nb: TILES[isa])
    return isa


def _needs_width(isa: str, nb: int) -> None:
    """Skip where n_b holds fewer 4x4 tiles per strip than the variant's slab:
    such a call runs a narrower body, which its own case covers."""
    if nb % (4 * TILES[isa]):
        pytest.skip(f"n_b={nb} is too narrow for the {TILES[isa]}-tile {isa} slab")


def _shared_stream(nb: int):
    """A multi-task stream into shared C leaves with half of the gates open."""
    tree = QuadtreeMatrix.from_dense(rng_matrix(3 * nb, 3 * nb, seed=47), nb)
    rng = np.random.default_rng(48)
    slots = rng.integers(0, len(tree.values), (3, 12))
    sub = tree.subnorms.astype(np.float64)
    acc = rng_matrix(3 * nb, nb, seed=49).reshape(3, nb, nb)
    acc[:, ::3] = -0.0
    return {"a_values": tree.values, "a_sub": tree.subnorms,
            "b_values": tree.values, "b_sub": tree.subnorms,
            "a_slot": slots[0], "b_slot": slots[1], "c_slot": slots[2] % 3,
            "acc": acc, "gate": float(np.median(np.multiply.outer(sub, sub)))}


@pytest.mark.parametrize("nb", [4, 8, 16, 32])
def test_variant_stream_matches_the_block_oracle(variant, nb):
    # every stack at an address 4 mod 16
    _needs_width(variant, nb)
    args = _shared_stream(nb)
    want, counts = _oracle(args)
    for name in ("a_values", "a_sub", "b_values", "b_sub", "acc"):
        args[name] = _misaligned(args[name])
    run, skipped = _stream(args)
    assert (run, skipped) == counts and run and skipped
    assert _same_bits(args["acc"], want)


@pytest.mark.parametrize("nb", [4, 8])
def test_too_wide_a_slab_is_lowered_to_one_that_fits(monkeypatch, nb):
    # a 4-tile slab would read and write past the 4- and 8-float leaf rows
    assert numeric._slab_tiles(4) == 1 and numeric._slab_tiles(8) <= 2
    monkeypatch.setattr(numeric, "_slab_tiles", lambda nb: 4)
    args = _shared_stream(nb)
    want, counts = _oracle(args)
    run, skipped = _stream(args)
    assert (run, skipped) == counts and run and skipped
    assert _same_bits(args["acc"], want)


def _check_every_gate_pattern(s: int, vary: bool) -> None:
    # a strip of s tiles, with task t opening the tiles q whose bit is set in
    # its pattern, the same at every r or a different one at each r; B holds
    # NaN wherever only a closed gate reads it, and C starts as -0.0
    nb, count = 4 * s, 1 << s
    patterns = [[(7 * t + 5 * r) % count if vary else t for r in range(s)] for t in range(count)]
    bits = (np.array(patterns)[:, :, None] >> np.arange(s)) & 1  # [t, r, q]
    b_sub = np.where(bits == 1, 2.0, 0.5).astype(np.float32)
    b = rng_matrix(count * nb, nb, seed=50).reshape(count, s, 4, s, 4)  # [t, r, kk, q, jj]
    b[np.broadcast_to((bits == 0)[:, :, None, :, None], b.shape)] = np.nan
    slots = np.arange(count, dtype=np.int64)
    args = {"a_values": rng_matrix(nb, nb, seed=51)[None], "a_sub": np.ones((1, s, s), np.float32),
            "b_values": b.reshape(count, nb, nb), "b_sub": b_sub,
            "a_slot": np.zeros(count, np.int64), "b_slot": slots, "c_slot": slots,
            "acc": np.full((count, nb, nb), -0.0, np.float32), "gate": 1.0}
    want, counts = _oracle(args)
    assert _stream(args) == counts == (s * int(bits.sum()), s * int((1 - bits).sum()))
    assert _same_bits(args["acc"], want)
    assert np.isfinite(args["acc"]).all()
    if not vary:  # a tile closed at every r still holds -0.0
        shape = (count, s, 4, s, 4)
        closed = np.broadcast_to((bits[:, 0] == 0)[:, None, None, :, None], shape)
        tiles = args["acc"].reshape(shape)[closed]
        assert (tiles == 0).all() and np.signbit(tiles).all()


@pytest.mark.parametrize("vary", [False, True], ids=["per-task", "per-r"])
def test_every_gate_pattern_of_a_slab(variant, vary):
    # 16x16 leaves: a strip of 4 tiles, one slab (paired with the next
    # strip's), one pair or two pairs
    _check_every_gate_pattern(4, vary)


@pytest.mark.parametrize("vary", [False, True], ids=["per-task", "per-r"])
def test_every_gate_pattern_of_a_slab_pair(variant, vary):
    # a strip of one slab pair: 2W tiles, 2^(2W) patterns
    _check_every_gate_pattern(2 * TILES[variant], vary)


def test_closed_product_that_overflows_is_thrown_away(variant):
    # one 16x16 leaf each; C tile (0, 0) is open but its products are 0, while
    # (0, 1) and (0, 2), gated off in the same slab, would be NaN and inf
    a = np.zeros((16, 16))
    a[0, :2] = 1e20
    b = np.zeros((16, 16))
    b[2, 0] = 1e20  # ||A_00|| ||B_00|| = 1.4e40: open, but a[:, 2] is 0
    b[:2, 4] = 5e18, -5e18  # 1e39: closed; 5e38 - 5e38 is inf - inf in float32
    b[0, 8] = 4e18  # 5.7e38: closed; 4e38 is inf in float32
    qa, qb = QuadtreeMatrix.from_dense(a, 16), QuadtreeMatrix.from_dense(b, 16)
    cfg = MultiplyConfig(tau=2e39)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, plan, counters = multiply(qa, qb, cfg)
    blocks, want = sequential_execute(plan, qa, qb, cfg)
    assert (counters.products4, counters.skipped4) == (want.products4, want.skipped4) == (1, 63)
    assert _same_bits(c.values, np.stack([blocks[k] for k in c.keys.tolist()]))
    assert c.to_dense().data.tolist() == np.zeros((16, 16)).tolist()


def _strip_stream(nb: int, seed: int):
    """Five tasks of nb x nb leaves, from arrays rather than trees (nb need
    not be a power of two), into C leaves 0-4.  A leaf t opens, in every
    strip, no k block (t = 0), only the last (t = 1), every other one
    (t = 2), all of them (t = 3) or a random half (t = 4), by its sub-norms
    against unit B sub-norms; it holds NaN in every closed tile, and C
    starts as -0.0."""
    s = nb // 4
    rng = np.random.default_rng(seed)
    a_sub = np.full((5, s, s), 0.5, np.float32)
    a_sub[1, :, -1] = a_sub[2, :, ::2] = a_sub[3] = 2.0
    a_sub[4] = np.where(rng.random((s, s)) < 0.5, 2.0, 0.5)
    a = rng_matrix(5 * nb, nb, seed=seed + 1).reshape(5, s, 4, s, 4)
    a[np.broadcast_to((a_sub < 1)[:, :, None, :, None], a.shape)] = np.nan
    slots = np.arange(5, dtype=np.int64)
    return {"a_values": a.reshape(5, nb, nb), "a_sub": a_sub,
            "b_values": rng_matrix(nb, nb, seed=seed + 2)[None],
            "b_sub": np.ones((1, s, s), np.float32),
            "a_slot": slots, "b_slot": np.zeros(5, np.int64), "c_slot": slots,
            "acc": np.full((5, nb, nb), -0.0, np.float32), "gate": 1.0}


@pytest.mark.parametrize("slabs", [2, 3, 1], ids=["pairs", "pair-and-lone-slab", "lone-slab"])
def test_open_k_lists_of_strips_match_the_block_oracle(variant, slabs):
    # strips with no open k block, only the last, alternate ones, all or a
    # random half, on pairs alone (n_b = 32) or on 1 or 3 slabs per strip
    # (n_b = 4W or 12W), whose lone last slabs pair across adjacent strips;
    # at W = 1 the odd strip count leaves one strip's lone slab alone
    nb = 4 * TILES[variant] * slabs if slabs != 2 else 32
    _needs_width(variant, nb)
    args = _strip_stream(nb, seed=70 + slabs)
    want, counts = _oracle(args)
    assert _stream(args) == counts
    assert counts[0] == nb // 4 * int((args["a_sub"] >= 1).sum())
    assert _same_bits(args["acc"], want)
    assert np.isfinite(args["acc"]).all()
    closed = args["acc"][0]  # no open k block: not written
    assert (closed == 0).all() and np.signbit(closed).all()


@pytest.fixture(scope="module")
def wide_strip():
    """A one-task stream at n_b = 512, a strip of 128 tiles, with half the
    gates open, and the block oracle's (acc, counts) for it."""
    nb = 512
    a = QuadtreeMatrix.from_dense(rng_matrix(nb, nb, seed=80), nb)
    b = QuadtreeMatrix.from_dense(rng_matrix(nb, nb, seed=81), nb)
    # the gate decides the products a[p, r] b[r, q]: 128^3 of them
    a_sub, b_sub = (x.subnorms[0].astype(np.float64) for x in (a, b))
    products = a_sub[:, :, None] * b_sub[None, :, :]
    slot = np.zeros(1, np.int64)
    args = {"a_values": a.values, "a_sub": a.subnorms, "b_values": b.values, "b_sub": b.subnorms,
            "a_slot": slot, "b_slot": slot, "c_slot": slot,
            "acc": rng_matrix(nb, nb, seed=82)[None], "gate": float(np.median(products))}
    return args, _oracle(args)


def test_strip_of_more_than_64_tiles_matches_the_block_oracle(variant, wide_strip):
    base, (want, counts) = wide_strip
    args = dict(base, acc=base["acc"].copy())
    run, skipped = _stream(args)
    assert (run, skipped) == counts and run + skipped == 128 ** 3
    assert 0.4 < run / 128 ** 3 < 0.6
    assert _same_bits(args["acc"], want)


def test_valid_stream_matches_the_block_oracle():
    args = _operands()
    want, counts = _oracle(args)
    assert _stream(args) == counts == (128, 0)
    assert _same_bits(args["acc"], want)


def test_partly_open_tiles_match_the_block_oracle():
    # unit A sub-norms and gate 1: (p, r, q) is open for every p where b_sub[r, q] is 2
    b_sub = np.full((1, 4, 4), 2.0, np.float32)
    b_sub[0, [1, 3], 0] = 0.5  # C tiles (p, 0): open at r = 0, 2, closed at r = 1, 3
    b_sub[0, :, 1] = 0.5  # C tiles (p, 1): every gate closed
    b = rng_matrix(16, 16, seed=44)[None]
    b[0, 4:8, :4] = b[0, 12:, :4] = b[0, :, 4:8] = np.nan  # read only by closed gates
    acc = rng_matrix(16, 16, seed=45)[None]
    acc[0, :, 4:8] = -0.0
    slot = np.zeros(1, np.int64)
    args = {"a_values": rng_matrix(16, 16, seed=43)[None], "a_sub": np.ones((1, 4, 4), np.float32),
            "b_values": b, "b_sub": b_sub, "a_slot": slot, "b_slot": slot, "c_slot": slot,
            "acc": acc, "gate": 1.0}
    want, counts = _oracle(args)
    assert _stream(args) == counts == (40, 24)
    assert _same_bits(acc, want)
    assert np.isfinite(acc).all()
    assert (acc[0, :, 4:8] == 0).all() and np.signbit(acc[0, :, 4:8]).all()


def _misaligned(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous float32 copy of arr whose address is 4 mod 16."""
    buf = np.empty(arr.size + 3, np.float32)
    skip = (4 - buf.ctypes.data) % 16 // 4
    out = buf[skip:skip + arr.size].reshape(arr.shape)
    out[...] = arr
    return out


def test_misaligned_stacks_match_the_block_oracle():
    # unaligned vector loads and stores; an aligned load here would fault
    args = dict(_operands(), gate=5.0)
    args["acc"] = rng_matrix(16, 16, seed=46)[None]
    want, counts = _oracle(args)
    for name in ("a_values", "a_sub", "b_values", "b_sub", "acc"):
        args[name] = _misaligned(args[name])
        assert args[name].ctypes.data % 16 == 4
    run, skipped = _stream(args)
    assert (run, skipped) == counts and run and skipped
    assert _same_bits(args["acc"], want)


@pytest.mark.parametrize("case", list(BAD_ARGS))
def test_bad_arrays_are_rejected_before_the_call(case):
    args = _operands()
    name, corrupt = BAD_ARGS[case]
    args[name] = corrupt(args.get(name))
    before = np.array(args["acc"])
    with pytest.raises(ValueError):
        numeric._stream_gated(**args)
    assert np.array_equal(args["acc"], before)


# -- threads -----------------------------------------------------------------


def _thread_run(case: str, threads: int):
    """(plan, A, B, C, counters) of one case's product on `threads` threads."""
    c = None
    cfg = MultiplyConfig(tau=1e-6)
    if case in ("decay", "accumulate"):  # 127 tasks into 44 C leaves
        a = b = QuadtreeMatrix.from_dense(decay_matrix(128, seed=60).data, 16)
        if case == "accumulate":  # C = 2 A - A A into A, as purification runs it
            c, cfg = a, MultiplyConfig(tau=1e-6, alpha=-1.0, beta=2.0)
    elif case == "two-leaves":
        a = QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=64), 16)
        b = QuadtreeMatrix.from_dense(rng_matrix(32, 16, seed=65), 16)
    else:  # "empty-range": C leaf 0 takes four tasks, leaves 1 and 2 one each
        dense = np.zeros((48, 64), np.float32)
        dense[:16] = rng_matrix(16, 64, seed=61)
        dense[16:, :16] = rng_matrix(32, 16, seed=62)
        a = QuadtreeMatrix.from_dense(dense, 16)
        b = QuadtreeMatrix.from_dense(rng_matrix(64, 16, seed=63), 16)
    plan = build_plan(a, b, cfg.tau)
    out, counters = numeric._execute(plan, a, b, c, cfg, dense_kernel=False, threads=threads)
    return plan, a, b, out, counters


@pytest.mark.parametrize("case", ["decay", "accumulate", "two-leaves", "empty-range"])
def test_thread_count_changes_no_result(variant, case):
    runs = [_thread_run(case, threads) for threads in (1, 2, 3)]
    plan, a, b, base, counters = runs[0]
    keys, c_slot = np.unique(plan.c_key, return_inverse=True)
    assert counters.products4
    for threads, (_, _, _, out, got) in zip((1, 2, 3), runs):
        assert got.threads == min(threads, keys.size)
        assert (got.products4, got.skipped4) == (counters.products4, counters.skipped4)
        assert np.array_equal(out.keys, base.keys)
        assert _same_bits(out.values, base.values)
        assert _same_bits(out.norms, base.norms)
        assert _same_bits(out.subnorms, base.subnorms)
    if case == "decay":
        blocks, want = sequential_execute(plan, a, b, MultiplyConfig(tau=1e-6))
        assert (want.products4, want.skipped4) == (counters.products4, counters.skipped4)
        assert counters.skipped4
        assert _same_bits(base.values, np.stack([blocks[k] for k in base.keys.tolist()]))
    if case == "two-leaves":
        assert keys.size == 2
    if case == "empty-range":
        assert np.bincount(c_slot).tolist() == [4, 1, 1]


@pytest.mark.parametrize("nb", LEAF_SIZES)
def test_more_threads_than_leaves_change_no_result(variant, nb):
    # 4 threads over 3 C slots, slot 1 with no task but an old leaf: the
    # threads that find no slot left take none, and the others finish all
    _needs_width(variant, nb)
    tree = QuadtreeMatrix.from_dense(rng_matrix(2 * nb, 2 * nb, seed=71), nb)
    rng = np.random.default_rng(72)
    sub = tree.subnorms.astype(np.float64)
    args = {"a_values": tree.values, "a_sub": tree.subnorms,
            "b_values": tree.values, "b_sub": tree.subnorms,
            "a_slot": rng.integers(0, 4, 9), "b_slot": rng.integers(0, 4, 9),
            "c_slot": np.array([2, 0, 0, 2, 0, 2, 2, 0, 2], np.int64),
            "gate": float(np.median(np.multiply.outer(sub, sub))), "alpha": -1.0, "beta": 2.0,
            "old": rng_matrix(2 * nb, nb, seed=73).reshape(2, nb, nb),
            "old_slot": np.array([-1, 0, 1], np.int64), "zero": True}
    runs = []
    for threads in (1, 4):
        acc = np.full((3, nb, nb), np.nan, np.float32)
        run, skipped, subsq = numeric._stream_gated(**args, acc=acc, threads=threads)
        runs.append((run, skipped, acc, subsq))
    (run, skipped, acc, subsq), got = runs
    assert run and skipped and got[:2] == (run, skipped)
    assert _same_bits(got[2], acc) and np.array_equal(got[3].view(np.uint64), subsq.view(np.uint64))
    assert _same_bits(acc[1], np.float32(2) * args["old"][0])


def test_threads_start_at_a_fixed_amount_of_work():
    # the cut is 512 tasks at n_b = 16, by micro products, and 16 tasks at 64,
    # by the task floor (8 tasks there already hold the micro products)
    cores = len(os.sched_getaffinity(0))
    assert numeric._thread_count(511, 16, 100) == 1
    assert numeric._thread_count(512, 16, 100) == min(cores, 100)
    assert numeric._thread_count(15, 64, 100) == 1
    assert numeric._thread_count(16, 64, 100) == min(cores, 100)
    assert numeric._thread_count(15, 64, 100, wanted=3) == 3
    # n = 256 at n_b = 64: 64 large tasks run on the usable cores
    a = QuadtreeMatrix.from_dense(decay_matrix(256, seed=66).data, 64)
    c, plan, counters = multiply(a, a, MultiplyConfig(tau=1e-8))
    assert numeric._MIN_THREAD_TASKS <= plan.a_slot.size < 512
    assert counters.threads == min(cores, c.leaf_count)


def test_a_symmetric_square_runs_on_the_full_products_threads():
    # 16 tasks at n_b = 64, 12 of them into the leaves on or above the
    # diagonal: the mirror path starts the threads the full product would
    cores = len(os.sched_getaffinity(0))
    i = np.arange(256)
    d = rng_matrix(256, 256, seed=70)
    d = np.where(i[:, None] <= i[None, :], d, d.T) * (i[:, None] // 128 == i[None, :] // 128)
    x = QuadtreeMatrix.from_dense(d, 64)
    y, z = copy_tree(x), copy_tree(x)
    full, want = numeric.execute_plan(build_plan(y, z, 0.0), y, z, None, MultiplyConfig())
    plan = build_plan(x, x, 0.0)
    assert plan.a_slot.size == numeric._MIN_THREAD_TASKS
    assert np.count_nonzero(transpose_keys(plan.c_key) >= plan.c_key) == 12
    out, got = numeric.execute_plan(plan, x, x, None, MultiplyConfig())
    assert got.mirrored == 2 and want.mirrored == 0
    assert got.threads == want.threads == min(cores, out.leaf_count)
    assert_same_tree(out, full)


def test_old_only_leaves_start_no_thread():
    # 20 tasks of 16^3 micro products into one product leaf, beside three C
    # leaves that take no task: a thread per C leaf would start an idle one
    a_dense = np.zeros((128, 1280), np.float32)
    a_dense[:64] = rng_matrix(64, 1280, seed=67)
    b_dense = np.zeros((1280, 128), np.float32)
    b_dense[:, :64] = rng_matrix(1280, 64, seed=68)
    a = QuadtreeMatrix.from_dense(a_dense, 64)
    b = QuadtreeMatrix.from_dense(b_dense, 64)
    c0 = QuadtreeMatrix.from_dense(rng_matrix(128, 128, seed=69), 64)
    plan = build_plan(a, b, 0.0)
    assert np.unique(plan.c_key).size == 1
    assert plan.a_slot.size >= numeric._MIN_THREAD_TASKS
    assert plan.a_slot.size * 16**3 >= numeric._MIN_THREAD_PRODUCTS
    out, counters = numeric.execute_plan(plan, a, b, c0, MultiplyConfig(alpha=1.0, beta=1.0))
    assert out.leaf_count == 4 and counters.threads == 1


# -- the finish: alpha S + beta old, on the thread that wrote each C leaf ------

FINISH_TAU = 1e-6
# (alpha, beta): the paths and corners; factors nonzero in float64 but +-0
# in float32, and a -0 alpha, which pin the finish's zero tests to the
# float64 values; then pairs drawn from [-3, 3)
FINISH_PAIRS = [(1.0, 0.0), (-1.0, 2.0), (1.0, 1.0), (2.0, -0.5), (0.0, 0.0), (0.0, -1.0),
                (0.0, 1.0), (-1.0, -1.0), (-2.0, 0.0), (-0.5, -0.0),
                (1e-50, 1.0), (1.0, -1e-50), (-1e-50, -1e-50), (-0.0, 2.0),
                *map(tuple, np.random.default_rng(92).uniform(-3, 3, (3, 2)).round(3).tolist())]


@pytest.fixture(scope="module", params=[16, 64], ids=["nb16", "nb64"])
def finish_case(request):
    """A 4 x 4 block grid at n_b = nb: A banded, so A A stores every block but
    (0, 3) and (3, 0), with exact zeros along its block row 0; C0 dense with
    zeros of both signs, but without blocks (1, 1) and (2, 2).  So C holds
    product-only, shared and old-only leaves.  Returns A, C0, the plan and
    the block oracle's product blocks and (run, skipped)."""
    nb = request.param
    n = 4 * nb
    blk = np.arange(n) // nb
    a_dense = decay_matrix(n, seed=90).data.copy()
    a_dense[np.abs(blk[:, None] - blk[None, :]) > 1] = 0
    a_dense[:3] = 0
    c0_dense = rng_matrix(n, n, seed=91)
    c0_dense[::5] = -0.0
    c0_dense[1::7, ::3] = 0.0
    c0_dense[(blk[:, None] == blk[None, :]) & ((blk == 1) | (blk == 2))[:, None]] = 0
    a = QuadtreeMatrix.from_dense(a_dense, nb)
    plan = build_plan(a, a, FINISH_TAU)
    blocks, want = sequential_execute(plan, a, a, MultiplyConfig(tau=FINISH_TAU))
    keys = np.unique(np.concatenate((plan.c_key, QuadtreeMatrix.from_dense(c0_dense, nb).keys)))
    assert keys.size == 16 and len(blocks) == 14 and want.skipped4
    return a, c0_dense, plan, blocks, (want.products4, want.skipped4)


def _block_mask(keys, n: int, nb: int) -> np.ndarray:
    """True on the elements of the blocks whose keys are given."""
    mask = np.zeros((n // nb, n // nb), bool)
    for key in keys:
        mask[decode(key)] = True
    return np.kron(mask, np.ones((nb, nb), bool))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("alpha,beta", FINISH_PAIRS)
def test_finish_forms_alpha_s_plus_beta_old(variant, finish_case, threads, alpha, beta):
    # each stored element is the dense float32 formula, a side with no leaf
    # read as +0; beta = 0 adds nothing and alpha = 0 forms no product
    a, c0_dense, plan, blocks, counts = finish_case
    nb, n = a.n_b, a.m
    c0 = QuadtreeMatrix.from_dense(c0_dense, nb)
    cfg = MultiplyConfig(tau=FINISH_TAU, alpha=alpha, beta=beta)
    out, counters = numeric._execute(plan, a, a, c0, cfg, dense_kernel=False, threads=threads)
    p = np.zeros((n, n), np.float32)
    for key, block in blocks.items():
        i, j = decode(key)
        p[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] = block
    a32, b32 = np.float32(alpha), np.float32(beta)
    want = b32 * c0_dense if not alpha else a32 * p if not beta else a32 * p + b32 * c0_dense
    stored = sorted((set(blocks) if alpha else set()) | (set(c0.keys.tolist()) if beta else set()))
    assert out.keys.tolist() == stored
    got = out.to_dense().data
    assert _same_bits(got, np.where(_block_mask(stored, n, nb), want, np.float32(0)))
    if alpha and (alpha > 0 or beta > 0):  # no -0 where no leaf is stored
        assert _same_bits(got, want)
    assert_norm_invariant(out)
    if alpha:
        assert (counters.products4, counters.skipped4) == counts
        assert (counters.kernel, counters.threads) == (variant, min(threads, len(blocks)))
    else:
        assert (counters.products4, counters.skipped4, counters.kernel, counters.threads) == (
            0, 0, "", 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", [1, 2])
def test_finish_names_an_overflowing_old_leaf(variant, finish_case, threads):
    # 2 * 3e38 is inf in float32, in the old-only leaf (3, 0)
    a, c0_dense, plan, _, _ = finish_case
    nb = a.n_b
    big = c0_dense.copy()
    big[3 * nb + 1, 2] = 3e38
    c0 = QuadtreeMatrix.from_dense(big, nb)
    before = c0.values.copy()
    cfg = MultiplyConfig(tau=FINISH_TAU, alpha=1.0, beta=2.0)
    with pytest.raises(OverflowError, match="block row 3, column 0"):
        numeric._execute(plan, a, a, c0, cfg, dense_kernel=False, threads=threads)
    assert _same_bits(c0.values, before)


@pytest.mark.parametrize("threads", [1, 2])
def test_finish_of_an_empty_plan_keeps_the_accumulator(variant, finish_case, threads):
    # no task: every leaf is old-only, alpha (+0) + old, so -0 becomes +0
    a, c0_dense, _, _, _ = finish_case
    empty = QuadtreeMatrix(a.m, a.n, a.n_b)
    c0 = QuadtreeMatrix.from_dense(c0_dense, a.n_b)
    out, counters = numeric._execute(build_plan(empty, empty, FINISH_TAU), empty, empty, c0,
                                     MultiplyConfig(tau=FINISH_TAU, beta=1.0),
                                     dense_kernel=False, threads=threads)
    got = out.to_dense().data
    assert _same_bits(got, np.float32(0) + c0_dense)
    assert np.signbit(c0_dense[c0_dense == 0]).any() and not np.signbit(got[got == 0]).any()
    assert (counters.products4, counters.skipped4, counters.kernel, counters.threads) == (
        0, 0, "", 0)
    assert_norm_invariant(out)


# -- the mirror path: a symmetric square runs its upper leaves ----------------


def _symmetric_dense(rng: np.random.Generator, n: int, nb: int) -> np.ndarray:
    """A bitwise-symmetric float32 n x n matrix under a drawn decay envelope,
    with a drawn share of its block pairs off the diagonal set to zero (but
    never blocks (0, 1) and (1, 0)) and a share of -0 elements."""
    i = np.arange(n)
    width = rng.uniform(0.5, 3.0) * nb
    vals = (rng.standard_normal((n, n))
            * np.exp(-np.abs(i[:, None] - i[None, :]) / width)).astype(np.float32)
    vals[rng.random((n, n)) < 0.05] = -0.0
    blk = i // nb
    gone = rng.random((blk[-1] + 1,) * 2) < rng.uniform(0.0, 0.4)
    gone[0, 1] = False
    vals[np.triu(gone, 1)[blk][:, blk]] = 0
    return np.where(i[:, None] <= i[None, :], vals, vals.T)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nb=st.sampled_from([4, 8, 16, 32, 64]), extra=st.integers(1, 3 * 64),
       seed=st.integers(0, 2**32 - 1), tau=st.sampled_from([0.0, 1e-6, 1e-3]),
       pair=st.sampled_from([(1.0, 0.0), (-1.0, 2.0), (2.0, -0.5)]),
       threads=st.sampled_from([1, 2]))
def test_mirror_path_equals_the_full_path(variant, nb, extra, seed, tau, pair, threads):
    # X X, or alpha X X + beta X into X, on a symmetric X runs the leaves on
    # and above the diagonal and writes the rest as their transposes: the
    # full product of distinct equal trees, bit for bit, counters included
    n = nb + 1 + extra % (3 * nb)  # two block rows at least; ragged sizes included
    x = QuadtreeMatrix.from_dense(_symmetric_dense(np.random.default_rng(seed), n, nb), nb)
    y, z = copy_tree(x), copy_tree(x)
    alpha, beta = pair
    cfg = MultiplyConfig(tau=tau, alpha=alpha, beta=beta)
    full, want = numeric._execute(build_plan(y, z, tau), y, z, y if beta else None, cfg,
                                  dense_kernel=False, threads=threads)
    out, got = numeric._execute(build_plan(x, x, tau), x, x, x if beta else None, cfg,
                                dense_kernel=False, threads=threads)
    assert want.mirrored == 0 and got.mirrored > 0
    assert (got.products4, got.skipped4, got.kernel, got.threads) == (
        want.products4, want.skipped4, want.kernel, want.threads)
    assert_same_tree(out, full)
    dense = out.to_dense().data
    assert _same_bits(dense, dense.T)


# -- floating-point environment ----------------------------------------------


def test_subnormal_products_are_not_flushed():
    assert np.float32(1e-20) * np.float32(1e-20) != 0


@pytest.mark.parametrize("nb", [4, 8, 16, 32])
def test_tau_zero_subnormal_products_equal_single_loop(nb):
    a = rng_matrix(48, 40, seed=41) * np.float32(1e-20)
    b = rng_matrix(40, 56, seed=42) * np.float32(1e-20)
    want = dense_multiply_single(DenseMatrix(a), DenseMatrix(b)).data
    tiny = np.finfo(np.float32).tiny
    assert ((want != 0) & (np.abs(want) < tiny)).mean() > 0.9  # subnormal C
    c, _, _ = multiply(QuadtreeMatrix.from_dense(a, nb), QuadtreeMatrix.from_dense(b, nb),
                       MultiplyConfig())
    assert np.array_equal(c.to_dense().data.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("nb", [4, 8, 16, 32])
def test_variant_tau_zero_subnormal_products_equal_single_loop(variant, nb):
    _needs_width(variant, nb)
    test_tau_zero_subnormal_products_equal_single_loop(nb)
