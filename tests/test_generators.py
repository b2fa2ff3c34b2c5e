"""Synthetic matrix generators: determinism, envelopes, block maps."""

import numpy as np
import pytest

from spamm.generators import KINDS, GeneratorSpec, _block_index_map, envelope, generate


def test_kind_enum():
    assert KINDS == ("exponential", "algebraic", "blocked-decay", "random-dense")


def test_generate_is_deterministic():
    spec = GeneratorSpec(kind="exponential", n=200, lam=0.7, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert a.data.dtype == np.float32
    assert np.array_equal(a.data, b.data)
    other = generate(GeneratorSpec(kind="exponential", n=200, lam=0.7, seed=43))
    assert not np.array_equal(a.data, other.data)


def test_envelope_pinned_values():
    exp = GeneratorSpec(kind="exponential", n=16, lam=0.5, c=2.0)
    assert envelope(exp, 3, 3) == 2.0
    assert envelope(exp, 0, 4) == 2.0 * 0.5**4
    alg = GeneratorSpec(kind="algebraic", n=16, lam=1.0, c=1.0)
    assert envelope(alg, 0, 0) == 1.0
    assert envelope(alg, 0, 10) == pytest.approx(1.0 / 11.0)
    rnd = GeneratorSpec(kind="random-dense", n=16, c=0.25)
    assert envelope(rnd, 5, 11) == 0.25


def test_block_index_map_pinned():
    assert _block_index_map(25, (5, 15)).tolist() == [0] * 5 + [1] * 15 + [2] * 5
    assert _block_index_map(8, (1, 3)).tolist() == [0, 1, 1, 1, 2, 3, 3, 3]


def test_blocked_envelope_uses_block_distance():
    spec = GeneratorSpec(kind="blocked-decay", n=8, lam=0.5, c=1.0, blocks=(2,))
    ids = _block_index_map(8, (2,))
    for i in range(8):
        for j in range(8):
            want = 0.5 ** abs(int(ids[i]) - int(ids[j]))
            assert envelope(spec, i, j) == want


@pytest.mark.parametrize("kind", KINDS)
def test_envelope_rejects_indices_outside_the_matrix(kind):
    spec = GeneratorSpec(kind=kind, n=4, blocks=(2,) if kind == "blocked-decay" else ())
    assert envelope(spec, 3, 0) > 0
    for i, j in ((-1, 0), (0, -1), (4, 0), (0, 10), ([0, 1, 4], 0)):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            envelope(spec, i, j)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="exponential", n=150, lam=0.6, c=1.3, seed=1),
    GeneratorSpec(kind="algebraic", n=150, lam=2.0, c=0.5, seed=2),
    GeneratorSpec(kind="blocked-decay", n=150, lam=0.5, c=1.0, blocks=(5, 15), seed=3),
    GeneratorSpec(kind="random-dense", n=150, c=0.125, seed=4),
])
def test_values_live_inside_the_envelope(spec):
    a = generate(spec).data
    rng = np.random.default_rng(99)
    i = rng.integers(0, spec.n, 10000)
    j = rng.integers(0, spec.n, 10000)
    env = envelope(spec, i, j)
    vals = np.abs(a[i, j]).astype(np.float64)
    assert np.all(vals <= 0.95 * env * (1 + 1e-6))
    live = env > 1e-30
    assert np.all(vals[live] >= 0.049 * env[live])


def test_every_element_is_nonzero_for_dense_kind():
    a = generate(GeneratorSpec(kind="random-dense", n=64, seed=5)).data
    assert np.all(a != 0.0)


def test_symmetrize_is_exact():
    spec = GeneratorSpec(kind="exponential", n=130, lam=0.8, seed=6, symmetrize=True)
    a = generate(spec).data
    assert np.array_equal(a, a.T)
    plain = generate(GeneratorSpec(kind="exponential", n=130, lam=0.8, seed=6)).data
    assert np.array_equal(np.triu(a), np.triu(plain))


def test_chunk_seam_keeps_envelope():
    spec = GeneratorSpec(kind="exponential", n=1040, lam=0.99, seed=7)
    a = generate(spec).data
    for i in (1020, 1023, 1024, 1025, 1039):
        row = np.abs(a[i]).astype(np.float64)
        env = envelope(spec, i, np.arange(1040))
        assert np.all(row <= 0.95 * env * (1 + 1e-6))
        assert np.all(row >= 0.049 * env)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="gaussian", n=8)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="exponential", n=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="exponential", n=8, lam=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="blocked-decay", n=8, lam=1.5, blocks=(2,))
    with pytest.raises(ValueError):
        GeneratorSpec(kind="algebraic", n=8, lam=0.0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="blocked-decay", n=8)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="blocked-decay", n=8, blocks=(0, 3))
    with pytest.raises(ValueError):
        GeneratorSpec(kind="exponential", n=8, seed=-1)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="exponential", n=8, c=0.0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="exponential", n=8, c=float("inf"))
