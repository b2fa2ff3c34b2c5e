"""Seeded inputs and result checks, computed without the spamm package.

Inputs come from this file alone, so no change to the library can change
what a workload multiplies.  Every check recomputes the answer its own way
(float64 BLAS, a plain float32 loop, a float64 eigendecomposition) and
raises CheckFailed, naming the quantity, when a result is wrong.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZES = (5, 15)   # envelope block sizes, cycling
LAMBDA = 0.5            # decay per unit of block distance
U32 = 2.0**-24          # float32 unit roundoff

# Hamiltonian of purify-1024: alternating on-site energies -1 (occupied)
# and +1 (virtual), coupled by a symmetric decay matrix scaled by COUPLING.
ONSITE = 1.0
COUPLING = 0.15

# Purification stop rule and result tolerances.  The chain stops once the
# trace moves by less than STOP_TRACE in one step, i.e. |tr(X^2 - X)| of
# the step's input is that small; one more step brings the idempotency
# error to the float32 floor.  That floor is not small: the same chain run
# with dense float32 matmul ends 1.5e-6 to 1.1e-5 (max norm) from the
# float64 projector, depending on the seed, and SpAMM at tau = 1e-8 matches
# it.  The tolerances leave a factor of about ten above the worst seed seen.
STOP_TRACE = 1e-3
IDEMPOTENCY_TOL = 1e-4
PROJECTOR_TOL = 1e-4
TRACE_TOL = 1e-3
MAX_STEPS = 100

_CHUNK_ROWS = 64  # rows generated at a time, keeps input scratch small


class CheckFailed(AssertionError):
    """A workload result disagrees with the benchmark's own computation."""


def block_ids(n: int) -> np.ndarray:
    """Envelope block id of every row, block sizes cycling BLOCK_SIZES."""
    reps = -(-n // sum(BLOCK_SIZES)) * len(BLOCK_SIZES)
    sizes = np.resize(np.array(BLOCK_SIZES), reps)
    return np.repeat(np.arange(reps), sizes)[:n]


def decay_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """float32 n x n, a_ij = sign (0.05 + 0.9 u) LAMBDA^|b_i - b_j|."""
    ids = block_ids(n)
    out = np.empty((n, n), np.float32)
    for r0 in range(0, n, _CHUNK_ROWS):
        r1 = min(n, r0 + _CHUNK_ROWS)
        env = LAMBDA ** np.abs(ids[r0:r1, None] - ids[None, :]).astype(np.float64)
        u = rng.random((r1 - r0, n))
        sign = np.where(rng.random((r1 - r0, n)) < 0.5, -1.0, 1.0)
        out[r0:r1] = sign * (0.05 + 0.9 * u) * env
    return out


def hamiltonian(n: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Symmetric gapped decay Hamiltonian (float64) and its occupation.

    Even sites sit at -ONSITE and are the occupied ones, so the occupation
    is ceil(n / 2).  The coupling narrows the 2 ONSITE gap of the bare
    sites to 1.04-1.11 at n = 1024 (seeds 0-7), which keeps the density
    matrix decaying and the chain near 18 steps.
    """
    v = np.triu(decay_matrix(n, rng).astype(np.float64), 1)
    h = COUPLING * (v + v.T)
    h[np.diag_indices(n)] = np.where(np.arange(n) % 2 == 0, -ONSITE, ONSITE)
    return h, (n + 1) // 2


def purification_start(h: np.ndarray) -> np.ndarray:
    """X0 = (e_max I - H) / (e_max - e_min) on Gershgorin bounds, float32.

    The spectrum of X0 lies in [0, 1], occupied (low-energy) states on top.
    """
    radius = np.abs(h).sum(axis=1) - np.abs(np.diag(h))
    e_min = float((np.diag(h) - radius).min())
    e_max = float((np.diag(h) + radius).max())
    x0 = -h / (e_max - e_min)
    x0[np.diag_indices_from(x0)] += e_max / (e_max - e_min)
    return x0.astype(np.float32)


def spectrum_summary(h: np.ndarray, nocc: int) -> tuple[np.ndarray, float]:
    """Projector onto the nocc lowest eigenstates of h, and the gap."""
    w, v = np.linalg.eigh(h)
    occ = v[:, :nocc]
    return occ @ occ.T, float(w[nocc] - w[nocc - 1])


def naive_single(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float32 product, rank-1 updates in ascending k, one rounding each."""
    out = np.zeros((a.shape[0], b.shape[1]), np.float32)
    term = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply(a[:, k, None], b[None, k, :], out=term)
        out += term
    return out


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(
        np.ascontiguousarray(x, np.float32).view(np.uint32),
        np.ascontiguousarray(y, np.float32).view(np.uint32),
    )


def check_repeatable(first: np.ndarray, other: np.ndarray) -> None:
    if not _same_bits(first, other):
        raise CheckFailed("a repeated product differs bitwise from the first")


def check_pruned_product(a: np.ndarray, c: np.ndarray, exact: np.ndarray, tau: float) -> None:
    """Check C = A A against its float64 value `exact` within the pruning bound.

    Every 4x4x4 or block product that SpAMM drops has a norm product below
    tau and so moves an element by less than tau; an element has n/4 of
    them.  gamma_n = n u / (1 - n u) bounds the float32 rounding of the kept
    sum, so |C - AA|_ij <= (n/4) tau + gamma_n (|A||A|)_ij.
    """
    n = a.shape[1]
    a64 = np.abs(a.astype(np.float64))
    gamma = n * U32 / (1.0 - n * U32)
    bound = (n / 4) * tau + gamma * (a64 @ a64)
    ratio = float((np.abs(c - exact) / bound).max())
    if not ratio <= 1.0:
        raise CheckFailed(f"error exceeds the pruning bound by {ratio:.3g}x")


def check_exact_product(a: np.ndarray, c: np.ndarray, counts: dict) -> None:
    """tau = 0: C bitwise equals the ascending-k float32 loop, nothing
    pruned or skipped."""
    n = a.shape[0]
    if not _same_bits(c, naive_single(a, a)):
        raise CheckFailed("tau=0 product differs bitwise from the ascending-k float32 loop")
    want = {"products4": (n // 4) ** 3, "skipped4": 0, "pruned": 0}
    got = {k: counts[k] for k in want}
    if got != want:
        raise CheckFailed(f"tau=0 counts {got}, expected {want}")


def errors(x: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """(block error, max-norm error) of x against its float64 value ref.

    The block error is the geometric mean, over the 16x16 blocks with a
    nonzero error, of each block's max-norm error.  The plain max-norm
    error is set by a few elements of the largest blocks and moves by
    30-70% from one seed to the next; the block figure counts near and
    far blocks alike and so tracks pruning error, and it moves by a few
    percent.
    """
    err = np.abs(x.astype(np.float64) - ref)
    m, n = err.shape
    blocks = np.zeros((-(-m // 16) * 16, -(-n // 16) * 16))
    blocks[:m, :n] = err
    worst = blocks.reshape(blocks.shape[0] // 16, 16, -1, 16).max(axis=(1, 3))
    worst = worst[worst > 0]
    block = float(np.exp(np.log(worst).mean())) if worst.size else 0.0
    return block, float(err.max())


def check_purified(x: np.ndarray, projector: np.ndarray, nocc: int) -> None:
    """Final X: near the eigenvector projector, right trace, idempotent."""
    x64 = x.astype(np.float64)
    dist = float(np.abs(x64 - projector).max())
    if not dist <= PROJECTOR_TOL:
        raise CheckFailed(f"max |X - P| = {dist:.3g} > {PROJECTOR_TOL}")
    trace = float(np.trace(x64))
    if not abs(trace - nocc) <= TRACE_TOL:
        raise CheckFailed(f"trace {trace:.6f}, occupation {nocc}")
    idem = float(np.abs(x64 @ x64 - x64).max())
    if not idem <= IDEMPOTENCY_TOL:
        raise CheckFailed(f"max |X^2 - X| = {idem:.3g} > {IDEMPOTENCY_TOL}")
