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

from helpers import block_multiply_16, decay_matrix, rng_matrix, sequential_execute
from spamm import _kernel, numeric
from spamm.core import DenseMatrix, QuadtreeMatrix
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
    counts, bounds = np.zeros(2, np.int64), np.zeros(2, np.int64)
    lib.spamm_stream_gated(0, 16, *([None] * 8), 0.0, counts.ctypes.data, 1, bounds.ctypes.data, 1)
    assert counts.tolist() == [0, 0]


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


def test_library_exports_one_gated_entry_point():
    names = {line.split()[-1] for line in _objdump("-T").splitlines()
             if line.split() and line.split()[-1].startswith("spamm_")}
    assert names == {"spamm_stream_gated", "spamm_slab_tiles", "spamm_subnorm_squares"}


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
    run, skipped = numeric._stream_gated(**args)
    assert (run, skipped) == counts and run and skipped
    assert _same_bits(args["acc"], want)


@pytest.mark.parametrize("nb", [4, 8])
def test_too_wide_a_slab_is_lowered_to_one_that_fits(monkeypatch, nb):
    # a 4-tile slab would read and write past the 4- and 8-float leaf rows
    assert numeric._slab_tiles(4) == 1 and numeric._slab_tiles(8) <= 2
    monkeypatch.setattr(numeric, "_slab_tiles", lambda nb: 4)
    args = _shared_stream(nb)
    want, counts = _oracle(args)
    run, skipped = numeric._stream_gated(**args)
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
    assert numeric._stream_gated(**args) == counts == (s * int(bits.sum()), s * int((1 - bits).sum()))
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
    assert numeric._stream_gated(**args) == counts
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
    products = np.multiply.outer(a.subnorms[0].astype(np.float64), b.subnorms[0].astype(np.float64))
    slot = np.zeros(1, np.int64)
    args = {"a_values": a.values, "a_sub": a.subnorms, "b_values": b.values, "b_sub": b.subnorms,
            "a_slot": slot, "b_slot": slot, "c_slot": slot,
            "acc": rng_matrix(nb, nb, seed=82)[None], "gate": float(np.median(products))}
    return args, _oracle(args)


def test_strip_of_more_than_64_tiles_matches_the_block_oracle(variant, wide_strip):
    base, (want, counts) = wide_strip
    args = dict(base, acc=base["acc"].copy())
    run, skipped = numeric._stream_gated(**args)
    assert (run, skipped) == counts and run + skipped == 128 ** 3
    assert 0.4 < run / 128 ** 3 < 0.6
    assert _same_bits(args["acc"], want)


def test_valid_stream_matches_the_block_oracle():
    args = _operands()
    want, counts = _oracle(args)
    assert numeric._stream_gated(**args) == counts == (128, 0)
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
    assert numeric._stream_gated(**args) == counts == (40, 24)
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
    run, skipped = numeric._stream_gated(**args)
    assert (run, skipped) == counts and run and skipped
    assert _same_bits(args["acc"], want)


@pytest.mark.parametrize("case", list(BAD_ARGS))
def test_bad_arrays_are_rejected_before_the_call(case):
    args = _operands()
    name, corrupt = BAD_ARGS[case]
    args[name] = corrupt(args[name])
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
        assert _same_bits(out.subnorms, base.subnorms) and out.norm == base.norm
    bounds = numeric._slot_ranges(c_slot, keys.size, 3)
    assert bounds[0] == 0 and bounds[-1] == keys.size and (np.diff(bounds) >= 0).all()
    if case == "decay":
        blocks, want = sequential_execute(plan, a, b, MultiplyConfig(tau=1e-6))
        assert (want.products4, want.skipped4) == (counters.products4, counters.skipped4)
        assert counters.skipped4
        assert _same_bits(base.values, np.stack([blocks[k] for k in base.keys.tolist()]))
    if case == "two-leaves":
        assert keys.size == 2
    if case == "empty-range":
        assert np.bincount(c_slot).tolist() == [4, 1, 1]
        assert 0 in np.diff(bounds)


def test_threads_start_at_a_fixed_amount_of_work():
    # the cut is 512 tasks at n_b = 16, and the same micro product count at 64
    cores = len(os.sched_getaffinity(0))
    assert numeric._thread_count(511, 16, 100) == 1
    assert numeric._thread_count(512, 16, 100) == min(cores, 100)
    assert numeric._thread_count(7, 64, 100) == 1
    assert numeric._thread_count(8, 64, 100) == min(cores, 100)
    assert numeric._thread_count(7, 64, 100, wanted=3) == 3
    # n = 256 at n_b = 64: 64 large tasks run on the usable cores
    a = QuadtreeMatrix.from_dense(decay_matrix(256, seed=66).data, 64)
    c, plan, counters = multiply(a, a, MultiplyConfig(tau=1e-8))
    assert 8 <= plan.a_slot.size < 512
    assert counters.threads == min(cores, c.leaf_count)


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
