"""Phase retrievability certification.

The central quantity is the spectral injectivity margin

    a0 = min over unit xi of (second-smallest eigenvalue of r_matrix(rf, xi))

A frame in C^n is phase retrievable exactly when a0 > 0.  The margin is
estimated from many starts in two phases (``estimate_a0``): at most
BLOCK_ITERS iterations of batched block descent, then a batched Riemannian
Newton method on lambda_2(R(xi)) over the unit sphere for the starts still
descending, its gradient and Hessian built from the eigenpairs of the one
eigh each step already makes, all within a total budget of max_iter
iterations per start.  Frames of one shape can be searched together as
one stack of starts (``_margin_search``), which is how
``stability_experiment`` certifies its trials.
Because numerical minimization can only ever over-estimate a minimum, the
returned value is an upper bound on the true margin and never by itself a
certificate.

Verdict thresholds:

* a0 > TAU_PR (1e-6): Retrievable, after cross-validation of the magnitude
  separation inequality on random pairs
* a0 < TAU_NPR (1e-10): NotRetrievable only when, after a further polish of
  the witness, its second eigenvalue is zero to rounding (at most 2n eps
  times the largest), which also makes the kernel at least two dimensional
* anything else: Inconclusive

The deliberately wide gap between the two thresholds is the honesty band: a
margin of, say, 1e-8 is distinguishable from zero in double precision but
not robustly, so it stays Inconclusive rather than being forced either way.

For real frames the complement property gives an exact combinatorial route
(``complement_property``): every bipartition of the family must contain a
spanning side.  It is decided by C(m, n-1) hyperplane tests rather than by
enumerating the 2^(m-1) bipartitions: the property fails exactly when the
family does not span, or when some hyperplane H spanned by n-1 of its
vectors leaves the vectors off H non-spanning.

All operations are pure; randomized ones take an explicit seed and are
deterministic given it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    RANK_RTOL,
    ComplexFrame,
    RealifiedFrame,
    gradient_rows,
    r_matrix,
    rank_by_svd,
)
from .errors import FramecertError

__all__ = [
    "TAU_PR",
    "TAU_NPR",
    "KERNEL_ANGLE_TOL",
    "COMPLEMENT_MAX_CANDIDATES",
    "VERDICT_RETRIEVABLE",
    "VERDICT_NOT_RETRIEVABLE",
    "VERDICT_INCONCLUSIVE",
    "BLOCK_ITERS",
    "BLOCK_RTOL",
    "MAX_ITER",
    "SearchDiagnostics",
    "MarginEstimate",
    "CertificationReport",
    "RankKernelResult",
    "ComplementResult",
    "CardinalityBounds",
    "estimate_a0",
    "rank_kernel_check",
    "magnitude_separation_check",
    "separation_sides",
    "certify_complex",
    "certify_real",
    "complement_property",
    "hmw_lower_bound",
    "injectivity_sampling_oracle",
]

# Verdict thresholds on the estimated margin.
TAU_PR = 1e-6
TAU_NPR = 1e-10

# A one-dimensional kernel counts as the phase direction if it is within
# this angle (radians) of span{J xi}.
KERNEL_ANGLE_TOL = 1e-6

# Complement-property checks are refused above this many candidate
# hyperplanes C(m, n-1).  A candidate takes about 50 us on one core (x86,
# numpy 2.4.6), so the largest admitted frame is decided in about a second.
COMPLEMENT_MAX_CANDIDATES = 20_000

# Phase 1 of ``estimate_a0``: batched block-descent iterations before the
# starts still descending switch to the Riemannian Newton method, and the
# decrease per iteration, relative to trace R(xi), below which a start
# stops there.
BLOCK_ITERS = 100
BLOCK_RTOL = 1e-12

# Phase 2: the floor, relative to trace R(xi), on the eigenvalue gaps and
# on the absolute Hessian eigenvalues of the Newton model, the Armijo
# sufficient-decrease constant, the stopping rule on the Riemannian
# gradient relative to trace R(xi), and the steps over which a run's rate
# of decrease is measured to stop runs that cannot reach the best value.
NEWTON_FLOOR = 1e-12
ARMIJO_C1 = 1e-4
POLISH_GTOL = 1e-9
STALL_WINDOW = 25

# Iteration budget per start of ``estimate_a0``, over both of its phases.
MAX_ITER = 2000

# Entries of the largest (rows, m, 2n) array of one stacked margin search:
# the trials of ``stability_experiment`` are searched together in chunks of
# whole frames of at most STACK_ENTRIES / (m 2n) rows.  Larger batches run
# slower per row (random n=10, m=38: 20% slower at 256 rows than at 64).
STACK_ENTRIES = 2 ** 14

# Random pairs used to cross-validate a Retrievable verdict.
CROSS_CHECK_PAIRS = 100

# Counterexample acceptance for the sampling oracle: measurement match and
# minimum distance between rays.
ORACLE_MATCH_TOL = 1e-8
ORACLE_RAY_TOL = 1e-4

# The oracle's Gauss-Newton runs: trials solved together, steps per trial,
# and the floor on the damping relative to trace J^T J.
ORACLE_CHUNK = 64
ORACLE_ITERS = 100
ORACLE_DAMPING = 1e-12

VERDICT_RETRIEVABLE = "Retrievable"
VERDICT_NOT_RETRIEVABLE = "NotRetrievable"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SearchDiagnostics:
    """Convergence counts of one ``estimate_a0`` run.

    ``starts`` is the number of starts; ``block_converged`` of them stopped
    in the block descent (phase 1), ``polished`` went on to the Newton
    phase, and ``hit_budget`` used all max_iter iterations without meeting
    a stopping rule.  ``block_iterations`` and ``polish_iterations`` count
    the batched iterations of each phase (a Newton step is one iteration),
    ``best_iterations`` the iterations of the start that gave the margin,
    and ``best_hit_budget`` says whether that start used up the budget.
    ``witness_polish_iterations`` counts the further polish that
    ``certify_complex`` gives a witness below TAU_NPR.  Counts only, so
    reruns give identical reports.
    """

    starts: int
    block_converged: int
    polished: int
    hit_budget: int
    block_iterations: int
    polish_iterations: int
    best_iterations: int
    best_hit_budget: bool
    witness_polish_iterations: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class MarginEstimate(tuple):
    """The pair (a0, witness) returned by ``estimate_a0``, unpacking and
    indexing as a tuple, with the run's ``SearchDiagnostics`` attached."""

    def __new__(cls, a0: float, witness: np.ndarray, diagnostics: SearchDiagnostics):
        self = super().__new__(cls, (a0, witness))
        self.diagnostics = diagnostics
        return self

    def __getnewargs__(self):
        return (self[0], self[1], self.diagnostics)

    @property
    def a0(self) -> float:
        return self[0]

    @property
    def witness(self) -> np.ndarray:
        return self[1]


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a certification run.

    ``method`` records which route produced the verdict: "cardinality"
    (too few vectors), "not-a-frame", "eigen" (spectral margin), or
    "complement" (real bipartition check).  ``witness_xi`` is the unit
    realified direction achieving the reported margin; ``kernel_excess`` is
    a direction at which the kernel of r_matrix was verified to have
    dimension >= 2, when one was found.  ``failing_partition`` is set only
    by the complement route, ``diagnostics`` (the margin search's
    convergence counts) only by the eigen route.
    """

    verdict: str
    a0: Optional[float]
    witness_xi: Optional[np.ndarray]
    kernel_excess: Optional[np.ndarray]
    method: str
    failing_partition: Optional[tuple[int, ...]] = None
    diagnostics: Optional[SearchDiagnostics] = None

    def to_dict(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "a0": self.a0,
            "witness_xi": None if self.witness_xi is None else [float(v) for v in self.witness_xi],
            "method": self.method,
            "kernel_excess": None if self.kernel_excess is None else [float(v) for v in self.kernel_excess],
            "diagnostics": None if self.diagnostics is None else self.diagnostics.to_dict(),
        }
        if self.method == "complement":
            doc["failing_partition"] = (
                None if self.failing_partition is None else list(self.failing_partition)
            )
        return doc


@dataclass(frozen=True)
class RankKernelResult:
    """Numerical rank of r_matrix at a direction, with a kernel basis and a
    flag telling whether the kernel is exactly the phase line span{J xi}."""

    rank: int
    kernel_dim: int
    kernel_basis: np.ndarray
    kernel_is_span_jxi: bool


@dataclass(frozen=True)
class ComplementResult:
    """Outcome of the complement-property check.

    ``failing_partition`` is a 0/1 tuple of length m splitting the vectors
    in a hyperplane H against the rest, neither side spanning, oriented so
    that vector 0 is on side 1 (marked 1); it is None when the property
    holds.  When the family does not span, H contains every vector and the
    tuple is all ones.
    """

    holds: bool
    failing_partition: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class CardinalityBounds:
    """Cardinality landscape for phase retrieval in C^n: the parity-corrected
    topological lower bound, the trivial 2n bound, the count 4n-4 from which
    generic vectors are injective (Conca-Edidin-Hering-Vinzant 2015; the
    field keeps its JSON key), and the generic sufficient count 4n-2.
    4n-4 is no lower bound: Vinzant (2015) gives 11 injective vectors in C^4."""

    n: int
    hmw_lower: int
    two_n: int
    conjectured_critical: int
    generic_upper: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class _Stack:
    """The rows of a margin search over several frames of one shape: the
    frames, their vectors stacked (phi and Jphi of shape (frames, m, 2n)),
    and the frame of each row, in ascending order."""

    rfs: tuple[RealifiedFrame, ...]
    phi: np.ndarray
    Jphi: np.ndarray
    frame: np.ndarray

    @property
    def J(self) -> np.ndarray:
        return self.rfs[0].J


def _take(rows: RealifiedFrame | _Stack, keep) -> RealifiedFrame | _Stack:
    """The rows ``keep`` of a one-frame search or of a ``_Stack``."""
    if isinstance(rows, RealifiedFrame):
        return rows
    return _Stack(rows.rfs, rows.phi, rows.Jphi, rows.frame[keep])


def _row_vectors(rows: RealifiedFrame | _Stack) -> tuple[np.ndarray, np.ndarray]:
    """phi and Jphi of the frame of each row, or of the one frame."""
    if isinstance(rows, RealifiedFrame):
        return rows.phi, rows.Jphi
    return rows.phi[rows.frame], rows.Jphi[rows.frame]


def _gradient_rows(rows: RealifiedFrame | _Stack, X: np.ndarray) -> np.ndarray:
    """``gradient_rows`` at each row of X for the frame of that row.  A
    row's matrix product rounds differently with the number of rows
    multiplied together, so for a ``_Stack`` the products are taken frame
    by frame, on exactly the rows that a search on that frame alone
    multiplies.  A stacked search thus gives bit for bit the results of
    the searches on its frames one by one."""
    if isinstance(rows, RealifiedFrame):
        return gradient_rows(rows, X)
    a = np.empty(X.shape[:1] + rows.phi.shape[1:2])
    b = np.empty_like(a)
    ends = np.searchsorted(rows.frame, np.arange(len(rows.rfs) + 1)).tolist()
    for rf, lo, hi in zip(rows.rfs, ends, ends[1:]):
        if hi > lo:
            a[lo:hi], b[lo:hi] = X[lo:hi] @ rf.phi.T, X[lo:hi] @ rf.Jphi.T
    phi, Jphi = _row_vectors(rows)
    return a[:, :, None] * phi + b[:, :, None] * Jphi


def _r_matrices(rows: RealifiedFrame | _Stack, X: np.ndarray) -> np.ndarray:
    """``r_matrices`` at each row of X for the frame of that row."""
    B = _gradient_rows(rows, X)
    return np.swapaxes(B, -1, -2) @ B


def _unit_rows(X: np.ndarray) -> np.ndarray:
    # the arithmetic of np.linalg.norm(X, axis=1), without its overhead
    return X / np.sqrt((X * X).sum(axis=1, keepdims=True))


def _deflated_eigh(rf: RealifiedFrame | _Stack, X: np.ndarray):
    """Eigenpairs of R = r_matrix at each row xi of X with the phase
    direction J xi deflated upward by 2 trace R, and trace R itself.

    2 trace R dominates the largest eigenvalue of a nonzero PSD matrix and,
    unlike an absolute shift, keeps eigh's resolution relative to R.  So
    the first pair is lambda_2(R) with its eigenvector (J xi is always in
    the kernel of R), the last is the phase direction, and the pairs
    between are lambda_3 .. lambda_2n.
    """
    R = _r_matrices(rf, X)
    U = _unit_rows(X @ rf.J.T)
    trace = np.trace(R, axis1=1, axis2=2)
    vals, vecs = np.linalg.eigh(R + (2.0 * trace)[:, None, None] * U[:, :, None] * U[:, None, :])
    return vals, vecs, trace


def _block_min_eig(rf: RealifiedFrame | _Stack, X: np.ndarray):
    """One block update of the alternating descent: for each row xi of X,
    the eigenvector w minimizing w^T R(xi) w over unit w orthogonal to J xi,
    with that minimum lambda_2(R(xi)) and trace R(xi)."""
    vals, vecs, trace = _deflated_eigh(rf, X)
    return vecs[:, :, 0], vals[:, 0], trace


@lru_cache(maxsize=4096)
def _start_direction(seed: int, two_n: int) -> np.ndarray:
    """Unit start direction drawn from a generator seeded with ``seed``;
    cached (read-only) because neighbouring calls share most of their
    seeds."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(two_n)
    while np.linalg.norm(v) == 0.0:
        v = rng.standard_normal(two_n)
    v = v / np.linalg.norm(v)
    v.setflags(write=False)
    return v


def _newton_model(rf: RealifiedFrame | _Stack, X: np.ndarray, vals: np.ndarray,
                  vecs: np.ndarray, trace: np.ndarray):
    """Riemannian gradient g and Hessian H of f(xi) = lambda_2(R(xi)) at
    each unit row xi of X, from the eigenpairs of ``_deflated_eigh`` there.

    With w = w_2, f(xi) = xi^T R(w) xi, so the Euclidean gradient is
    2 R(w) xi, and the Euclidean Hessian (Overton and Womersley 1995) is

        2 R(w) + 2 sum_{j>=3} v_j v_j^T / (lambda_2 - lambda_j) + 2 lambda_2 (Jw)(Jw)^T

    with v_j = K w_j, K = sum_k (Phi_k xi . w) Phi_k + B(w)^T B(xi) and B
    = ``gradient_rows``.  The last term is the phase pair's, whose v is
    +-lambda_2 Jw.  f is constant along xi and J xi, so both are projected
    onto the horizontal space orthogonal to them, and the Hessian is
    shifted by -2 f for the curvature of the sphere (Absil, Mahony and
    Sepulchre 2008).  The two vertical directions get eigenvalue trace R(xi)
    in H, where g has no component.  The gaps lambda_2 - lambda_j are
    floored at NEWTON_FLOOR times trace R(xi), so a degenerate lambda_2 =
    lambda_3 gives a large but finite curvature.  Where R(xi) = 0 the floor
    is 0, but so is K, and those pairs add nothing.
    """
    W, f = vecs[:, :, 0], vals[:, 0]
    U = X @ rf.J.T
    vertical = X[:, :, None] * X[:, None, :] + U[:, :, None] * U[:, None, :]
    eye = np.eye(X.shape[1])
    P = eye - vertical
    Bx, Bw = _gradient_rows(rf, X), _gradient_rows(rf, W)
    Rw = np.swapaxes(Bw, 1, 2) @ Bw
    g = (P @ (2.0 * Rw @ X[:, :, None]))[:, :, 0]
    c = Bx @ W[:, :, None]
    phi, Jphi = _row_vectors(rf)
    K = (np.swapaxes(phi, -1, -2) @ (c * phi) + np.swapaxes(Jphi, -1, -2) @ (c * Jphi)
         + np.swapaxes(Bw, 1, 2) @ Bx)
    V = K @ vecs[:, :, 1:-1]
    gap = np.minimum(vals[:, :1] - vals[:, 1:-1], -NEWTON_FLOOR * trace[:, None])
    gap[gap == 0.0] = -1.0
    JW = W @ rf.J.T
    H = (2.0 * Rw + 2.0 * (V / gap[:, None, :]) @ np.swapaxes(V, 1, 2)
         + 2.0 * f[:, None, None] * (JW[:, :, None] * JW[:, None, :] - eye))
    return g, P @ H @ P + trace[:, None, None] * vertical


def _polish(rf: RealifiedFrame | _Stack, X: np.ndarray, budget: int, target=None):
    """Batched Riemannian Newton method on f(xi) = lambda_2(R(xi)) over the
    unit sphere, one independent run per row of X, each taking at most
    ``budget`` steps.  ``rf`` is one frame, or a ``_Stack`` with the frame
    of each row; ``target``, when given, holds a value for each frame.

    A step moves along -|H|^-1 g, with g and H from ``_newton_model`` and
    |H| the Hessian with its eigenvalues in absolute value, floored at
    NEWTON_FLOOR times trace R(xi), so it is a descent direction also where
    H is indefinite.  It retracts by normalization and halves the step
    until the Armijo condition holds, so f never increases.  When the
    decrease the halved step promises falls below the rounding of f, eps
    times trace R(xi), f is resolved and the run stops.  A run also stops
    when its Riemannian gradient is at most POLISH_GTOL times trace R(xi),
    and, checked every STALL_WINDOW steps, when falling at the rate of its
    last STALL_WINDOW steps it would not reach the lowest value seen among
    the rows of its frame (or its frame's ``target``, when lower) within
    the steps left.  So no run depends on the rows of another frame.  A
    step makes two eigh calls, one for the Hessian and one for f at the new
    point, plus one per halving.

    Returns the final rows, the steps each run took, and whether each
    stopped by one of these rules rather than by spending the budget.
    """
    X = np.array(X, dtype=np.float64)
    b = X.shape[0]
    frame = np.zeros(b, dtype=np.intp) if isinstance(rf, RealifiedFrame) else rf.frame
    used = np.zeros(b, dtype=np.int64)
    stopped = np.zeros(b, dtype=bool)
    # state of the runs still going, compacted whenever some stop
    idx, x, rows = np.arange(b), X.copy(), rf
    vals, vecs, T = _deflated_eigh(rows, x)
    f_then = vals[:, 0].copy()
    best = np.full(frame[-1] + 1, np.inf) if target is None else np.array(target, dtype=float)
    np.minimum.at(best, frame, vals[:, 0])
    step = 0

    def retire(stop):
        nonlocal idx, x, rows, vals, vecs, T, f_then
        stopped[idx[stop]] = True
        X[idx[stop]] = x[stop]
        keep = ~stop
        idx, x, rows = idx[keep], x[keep], _take(rows, keep)
        vals, vecs, T, f_then = vals[keep], vecs[keep], T[keep], f_then[keep]
        return keep

    while True:
        f = vals[:, 0]
        g, H = _newton_model(rows, x, vals, vecs, T)
        stop = np.sqrt((g * g).sum(1)) <= POLISH_GTOL * T
        if step and step % STALL_WINDOW == 0:
            # steps needed to reach the best value of the frame at the recent rate
            mine = best[frame[idx]]
            with np.errstate(divide="ignore", invalid="ignore"):
                need = STALL_WINDOW * np.log(f / mine) / np.log(f_then / f)
            stop |= (f > mine) & ~(need <= budget - step)
            f_then = f.copy()
        if stop.any():
            keep = retire(stop)
            f, g, H = f[keep], g[keep], H[keep]
        if idx.size == 0 or step == budget:
            break
        mu, Q = np.linalg.eigh(H)
        Qg = np.swapaxes(Q, 1, 2) @ g[:, :, None]
        D = -(Q @ (Qg / np.maximum(np.abs(mu), NEWTON_FLOOR * T[:, None])[:, :, None]))[:, :, 0]
        slope = (g * D).sum(1)
        # Armijo backtracking, re-evaluating only the runs still pending
        t = np.ones(idx.size)
        xn, valn, vecn, Tn = x.copy(), vals.copy(), vecs.copy(), T.copy()
        pending = np.arange(idx.size)
        failed = np.zeros(idx.size, dtype=bool)
        while pending.size:
            cand = _unit_rows(x[pending] + t[pending, None] * D[pending])
            vc, Vc, Tc = _deflated_eigh(_take(rows, pending), cand)
            ok = vc[:, 0] <= f[pending] + ARMIJO_C1 * t[pending] * slope[pending]
            hit = pending[ok]
            xn[hit], valn[hit], vecn[hit], Tn[hit] = cand[ok], vc[ok], Vc[ok], Tc[ok]
            pending = pending[~ok]
            t[pending] *= 0.5
            # written so that a NaN slope also ends the search
            resolved = ~(-t[pending] * slope[pending] > np.finfo(float).eps * T[pending])
            failed[pending[resolved]] = True
            pending = pending[~resolved]
        used[idx] += 1
        step += 1
        x, vals, vecs, T = xn, valn, vecn, Tn
        np.minimum.at(best, frame[idx], vals[:, 0])
        if failed.any():
            retire(failed)
    X[idx] = x
    return X, used, stopped


def _margin_search(rfs: list[RealifiedFrame], starts: int, seeds: list[int],
                   max_iter: int) -> list[MarginEstimate]:
    """``estimate_a0`` on each of the frames ``rfs`` (all of one shape),
    frame j with seed seeds[j], as one stack of starts x frames.  The frames
    go in chunks of whole frames, each of at most STACK_ENTRIES / (m 2n)
    rows (but at least one frame).  Every rule that stops a row looks only at its own
    frame's rows, and the products are taken frame by frame
    (``_gradient_rows``), so each result is bit for bit the one
    ``estimate_a0`` gives on that frame alone."""
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    per = max(1, STACK_ENTRIES // (rfs[0].m * rfs[0].two_n * starts))
    return [estimate for lo in range(0, len(rfs), per)
            for estimate in _search_chunk(rfs[lo:lo + per], starts, seeds[lo:lo + per],
                                          max_iter)]


def _search_chunk(rfs: list[RealifiedFrame], starts: int, seeds: list[int],
                  max_iter: int) -> list[MarginEstimate]:
    """The two phases of ``estimate_a0`` on one chunk of ``_margin_search``,
    rows j*starts .. (j+1)*starts - 1 being the starts of frame j."""
    frames = len(rfs)
    rows = rfs[0] if frames == 1 else _Stack(
        tuple(rfs), np.stack([rf.phi for rf in rfs]), np.stack([rf.Jphi for rf in rfs]),
        np.repeat(np.arange(frames), starts))
    X = np.stack([_start_direction(s + i, rfs[0].two_n) for s in seeds for i in range(starts)])
    vals = np.full(X.shape[0], np.inf)
    iterations = np.zeros(X.shape[0], dtype=np.int64)
    # the rows still descending (row r is a start of frame r // starts), and their frames
    active, live = np.arange(X.shape[0]), rows
    for _ in range(min(BLOCK_ITERS, max_iter)):
        if active.size == 0:
            break
        Xa, _, _ = _block_min_eig(live, X[active])
        Xa, v, trace = _block_min_eig(live, Xa)
        X[active] = Xa
        iterations[active] += 1
        going = vals[active] - v > BLOCK_RTOL * trace
        vals[active] = v
        if not going.all():
            active, live = active[going], _take(live, going)
    block_iterations = iterations.reshape(frames, starts).max(axis=1)
    stopped = np.ones(X.shape[0], dtype=bool)
    stopped[active] = False
    # every row still active has run min(BLOCK_ITERS, max_iter) iterations
    budget = max_iter - min(BLOCK_ITERS, max_iter)
    polished = active if budget > 0 else active[:0]
    used = np.zeros(X.shape[0], dtype=np.int64)
    if polished.size:
        target = np.where(stopped, vals, np.inf).reshape(frames, starts).min(axis=1)
        X[polished], used[polished], stopped[polished] = _polish(
            live, X[polished], budget, target)
        iterations += used
    finals = np.linalg.eigvalsh(_r_matrices(rows, X))[:, 1]
    best = finals.reshape(frames, starts).argmin(axis=1) + np.arange(0, frames * starts, starts)
    descending = np.bincount(active // starts, minlength=frames)
    counts = zip(descending, (~stopped).reshape(frames, starts).sum(axis=1),
                 block_iterations, used.reshape(frames, starts).max(axis=1), best)
    out = []
    for descending_j, hit, block_j, polish_j, b in counts:
        diagnostics = SearchDiagnostics(
            starts=starts,
            block_converged=starts - int(descending_j),
            polished=int(descending_j) if budget > 0 else 0,
            hit_budget=int(hit),
            block_iterations=int(block_j),
            polish_iterations=int(polish_j),
            best_iterations=int(iterations[b]),
            best_hit_budget=bool(not stopped[b]),
        )
        out.append(MarginEstimate(float(max(finals[b], 0.0)), X[b] / np.linalg.norm(X[b]),
                                  diagnostics))
    return out


def estimate_a0(rf: RealifiedFrame, starts: int = 64, max_iter: int = MAX_ITER,
                seed: int = 42) -> MarginEstimate:
    """Estimate the spectral injectivity margin a0 and return it with the
    unit direction achieving it.

    Two phases share the budget of max_iter iterations per start.  Start i
    draws its initial direction from a generator seeded with seed + i, so
    reruns are bit identical; the directions are kept in a bounded cache
    keyed by (seed + i, 2n), so calls whose seeds overlap, such as the
    trials of ``stability_experiment``, draw each one once.

    1. Batched block descent for at most BLOCK_ITERS iterations.  The margin
       is the minimum over unit pairs (xi, w) with w orthogonal to J xi of
       sum_k <Phi_k xi, w>^2, a quartic symmetric in xi and w; each half
       step minimizes one block exactly through a constrained eigenvector
       computation, so the objective is nonincreasing.  A start stops when
       its decrease per iteration is at most BLOCK_RTOL times trace R(xi).
    2. The starts still descending after phase 1 finish with a batched
       Riemannian Newton method on f(xi) = lambda_2(R(xi)) over the unit
       sphere (``_polish``), for the rest of their budget.  Block descent
       stalls in narrow valleys where this converges.

    The reported a0 is the smallest second eigenvalue (``eigvalsh``) of
    R(xi) over the final directions.  It is an upper bound on the true
    margin (a minimizer may have been missed), so a tiny value suggests,
    but never proves, that the frame is not retrievable; see
    ``certify_complex`` for the verification step.  The result unpacks as
    the pair (a0, witness) and carries the convergence counts as
    ``diagnostics``.  Every stopping rule is relative to trace R(xi), so
    the frame scaled by a power of two c gives exactly c^4 a0, the same
    witness and equal diagnostics.
    """
    return _margin_search([rf], starts, [seed], max_iter)[0]


def rank_kernel_check(rf: RealifiedFrame, xi: np.ndarray) -> RankKernelResult:
    """Numerical rank and kernel of r_matrix at the direction xi.

    An eigenvalue counts as zero when it is <= RANK_RTOL times the largest.
    ``kernel_is_span_jxi`` is True exactly when the kernel is one
    dimensional and within KERNEL_ANGLE_TOL radians of the phase line
    span{J xi}.  A kernel of dimension >= 2 is the rank-deficiency witness
    used to back a NotRetrievable verdict.
    """
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    if np.linalg.norm(xi) == 0.0:
        raise FramecertError("direction xi must be nonzero")
    R = r_matrix(rf, xi)
    w, V = np.linalg.eigh(R)
    lam_max = max(float(w[-1]), 0.0)
    thresh = RANK_RTOL * lam_max
    zero = w <= thresh
    rank = int(np.count_nonzero(~zero))
    kernel = V[:, zero]
    kernel.setflags(write=False)
    is_phase_line = False
    if kernel.shape[1] == 1:
        jxi = rf.J @ xi
        cosang = abs(float(kernel[:, 0] @ jxi)) / np.linalg.norm(jxi)
        is_phase_line = float(np.arccos(min(cosang, 1.0))) <= KERNEL_ANGLE_TOL
    return RankKernelResult(
        rank=rank,
        kernel_dim=kernel.shape[1],
        kernel_basis=kernel,
        kernel_is_span_jxi=is_phase_line,
    )


def separation_sides(fr: ComplexFrame, X: np.ndarray,
                     Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the magnitude separation inequality at the pairs
    (X[p], Y[p]), for stacks X, Y of shape (pairs, n): the left side

        sum_k ( |<x, f_k>|^2 - |<y, f_k>|^2 )^2

    and the right factor ||x - y||^2 ||x + y||^2 - 4 Im(<x, y>)^2, each of
    shape (pairs,).  Their ratio bounds the margin from above wherever the
    factor is positive.
    """
    X = np.asarray(X, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    Vh = fr.vectors.conj().T
    mx = np.abs(X @ Vh) ** 2
    my = np.abs(Y @ Vh) ** 2
    left = np.sum((mx - my) ** 2, axis=-1)
    inner = np.sum(X * Y.conj(), axis=-1)
    factor = (np.linalg.norm(X - Y, axis=-1) ** 2 * np.linalg.norm(X + Y, axis=-1) ** 2
              - 4.0 * inner.imag ** 2)
    return left, factor


def _separation_holds(left, factor, a0: float):
    """The separation inequality at margin a0, with additive slack
    1e-9 * (1 + |right factor|)."""
    return left >= a0 * factor - 1e-9 * (1.0 + np.abs(factor))


def magnitude_separation_check(fr: ComplexFrame, a0: float, x: np.ndarray,
                               y: np.ndarray) -> bool:
    """Check the magnitude separation inequality at a pair (x, y):

        sum_k ( |<x, f_k>|^2 - |<y, f_k>|^2 )^2
            >= a0 * ( ||x - y||^2 ||x + y||^2 - 4 Im(<x, y>)^2 )

    with additive slack 1e-9 * (1 + right factor).  The right factor is the
    squared nuclear norm of the rank-two difference x x* - y y*, so it is
    nonnegative up to rounding and vanishes exactly when y is a unimodular
    multiple of x.  A phase retrievable frame satisfies the inequality for
    every pair with its true margin; a violation at the estimated margin
    means the estimate is too optimistic.  This is ``separation_sides`` at
    a single pair.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(1, -1)
    y = np.asarray(y, dtype=np.complex128).reshape(1, -1)
    left, factor = separation_sides(fr, x, y)
    return bool(_separation_holds(left[0], factor[0], a0))


def _random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def _random_pairs(rng: np.random.Generator, pairs: int,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` pairs of standard complex Gaussian vectors in C^n, drawn
    from the same stream as ``pairs`` alternating ``_random_complex`` calls
    for x and y (real parts before imaginary parts)."""
    G = rng.standard_normal((pairs, 2, 2, n))
    Z = (G[:, :, 0] + 1j * G[:, :, 1]) / np.sqrt(2.0)
    return Z[:, 0], Z[:, 1]


def certify_complex(fr: ComplexFrame, starts: int = 64,
                    seed: int = 42) -> CertificationReport:
    """Full certification pipeline for a frame treated over C.

    Order of checks:

    1. For n >= 2, m < 2n can never be retrievable: verdict NotRetrievable,
       method "cardinality", no minimization.  (In one dimension a single
       nonzero vector already determines |x|, so the gate does not apply.)
    2. A family that does not span cannot be retrievable: method
       "not-a-frame".
    3. Estimate the margin with ``estimate_a0`` at its default budget
       MAX_ITER.  Above TAU_PR the verdict is Retrievable after the
       separation inequality survives CROSS_CHECK_PAIRS random pairs,
       drawn from a generator seeded with ``seed`` and checked in one
       batch by ``separation_sides``; a violation downgrades the margin to
       the worst ratio of the two sides over the pairs whose right factor
       exceeds 1e-12, and the verdict is re-decided.  Below TAU_NPR the
       witness is first polished further with what is left of its start's
       budget, and the margin becomes the second eigenvalue there.  The
       verdict is then NotRetrievable only when that eigenvalue is zero to
       rounding, at most 2n eps times the largest eigenvalue of R at the
       witness, which leaves rank_kernel_check a kernel of dimension >= 2;
       a small margin that double precision cannot tell from zero is
       never enough.  Everything else is Inconclusive.

    The report carries the search's ``diagnostics``, including the
    iterations of that witness polish.  The margin search is scale
    equivariant, but TAU_PR, TAU_NPR and the cross-check slack are
    absolute, so rescaling a frame can move its margin across one.
    """
    return _certify_frames([fr], starts, [seed])[0]


def _precheck(fr: ComplexFrame) -> Optional[CertificationReport]:
    """The verdict of ``certify_complex`` steps 1 and 2, or None when the
    margin has to decide."""
    if fr.n >= 2 and fr.m < 2 * fr.n:
        method = "cardinality"
    elif not fr.is_frame:
        method = "not-a-frame"
    else:
        return None
    return CertificationReport(verdict=VERDICT_NOT_RETRIEVABLE, a0=None, witness_xi=None,
                               kernel_excess=None, method=method)


def _certify_frames(frames: list[ComplexFrame], starts: int,
                    seeds: list[int]) -> list[CertificationReport]:
    """``certify_complex`` on each of ``frames`` (all of one shape), frame i
    with seed seeds[i].  The margins of the frames that need one are
    searched as one stack (``_margin_search``); a single frame goes through
    ``estimate_a0``."""
    reports = [_precheck(fr) for fr in frames]
    todo = [i for i, rep in enumerate(reports) if rep is None]
    rfs = [RealifiedFrame.from_frame(frames[i]) for i in todo]
    estimates = []
    if len(todo) == 1:
        estimates = [estimate_a0(rfs[0], starts=starts, seed=seeds[todo[0]])]
    elif todo:
        estimates = _margin_search(rfs, starts, [seeds[i] for i in todo], MAX_ITER)
    for i, rf, estimate in zip(todo, rfs, estimates):
        reports[i] = _decide(frames[i], rf, estimate, seeds[i])
    return reports


def _decide(fr: ComplexFrame, rf: RealifiedFrame, estimate: MarginEstimate,
            seed: int) -> CertificationReport:
    """``certify_complex`` step 3 after the margin search."""
    a0, witness = estimate
    diagnostics = estimate.diagnostics
    resolved = False
    if a0 < TAU_NPR:
        # polish the witness with what is left of its start's budget, then
        # ask whether its second eigenvalue is zero to rounding
        xi, used, stopped = _polish(rf, witness[None, :], MAX_ITER - diagnostics.best_iterations)
        diagnostics = replace(diagnostics, witness_polish_iterations=int(used[0]),
                              best_hit_budget=diagnostics.best_hit_budget or not stopped[0])
        witness = xi[0] / np.linalg.norm(xi[0])
        spectrum = np.linalg.eigvalsh(r_matrix(rf, witness))
        a0 = float(max(spectrum[1], 0.0))
        resolved = spectrum[1] <= 2 * fr.n * np.finfo(float).eps * spectrum[-1]
    kernel_info = rank_kernel_check(rf, witness)
    kernel_excess = witness if kernel_info.kernel_dim >= 2 else None

    if a0 > TAU_PR:
        X, Y = _random_pairs(np.random.default_rng(seed), CROSS_CHECK_PAIRS, fr.n)
        left, factor = separation_sides(fr, X, Y)
        violated = not np.all(_separation_holds(left, factor, a0))
        usable = factor > 1e-12
        worst_ratio = float(np.min(left[usable] / factor[usable], initial=np.inf))
        if violated and worst_ratio < a0:
            a0 = worst_ratio
        verdict = VERDICT_RETRIEVABLE if a0 > TAU_PR else VERDICT_INCONCLUSIVE
    elif resolved and kernel_excess is not None:
        verdict = VERDICT_NOT_RETRIEVABLE
    else:
        verdict = VERDICT_INCONCLUSIVE

    return CertificationReport(
        verdict=verdict, a0=a0, witness_xi=witness, kernel_excess=kernel_excess,
        method="eigen", diagnostics=diagnostics,
    )


def certify_real(fr: ComplexFrame) -> CertificationReport:
    """Certification of a real frame through the complement property.

    The check is exact and combinatorial, so the report carries no margin
    and no spectral witness.
    """
    result = complement_property(fr)
    verdict = VERDICT_RETRIEVABLE if result.holds else VERDICT_NOT_RETRIEVABLE
    return CertificationReport(
        verdict=verdict, a0=None, witness_xi=None, kernel_excess=None,
        method="complement",
        failing_partition=result.failing_partition,
    )


def _hyperplane_normal(B: np.ndarray) -> Optional[np.ndarray]:
    """Unit normal of the hyperplane of R^n spanned by the n-1 rows of B,
    or None when the rows are dependent (numerical rank below n-1 by the
    package-wide threshold)."""
    n = B.shape[1]
    if n == 1:
        return np.ones(1)
    _, sv, Vt = np.linalg.svd(B)
    if sv[-1] <= RANK_RTOL * sv[0]:
        return None
    return Vt[-1]


def complement_property(fr: ComplexFrame) -> ComplementResult:
    """Complement-property check for a real frame by hyperplane tests.

    The property: for every bipartition of the family, at least one side
    spans R^n; it characterizes injectivity of the magnitude measurement
    map for real frames.  A family that does not span fails it.  Otherwise
    the non-spanning side of a failing bipartition can be enlarged until
    it is the set of vectors in a hyperplane H spanned by n-1 independent
    frame vectors, while the vectors off H still do not span.  So the check
    scans the C(m, n-1) subsets of n-1 vectors in lexicographic order,
    skips the dependent ones, and stops at the first hyperplane whose
    complement does not span.  A vector lies in H when its distance to H
    is at most RANK_RTOL times its length, so rescaling a vector never
    moves it across.  Both sides of a failing partition are confirmed with
    ``rank_by_svd`` before it is returned.

    Raises FramecertError when any entry has a nonzero imaginary part or
    when C(m, n-1) exceeds COMPLEMENT_MAX_CANDIDATES.
    """
    if np.any(fr.vectors.imag != 0.0):
        raise FramecertError("complement property is defined for real frames only")
    m, n = fr.m, fr.n
    candidates = math.comb(m, n - 1)
    if candidates > COMPLEMENT_MAX_CANDIDATES:
        raise FramecertError(
            f"hyperplane check caps at {COMPLEMENT_MAX_CANDIDATES} candidate hyperplanes, "
            f"got C({m}, {n - 1}) = {candidates}"
        )
    if not fr.is_frame:
        return ComplementResult(holds=False, failing_partition=(1,) * m)
    V = fr.vectors.real
    lengths = np.linalg.norm(V, axis=1)
    for subset in itertools.combinations(range(m), n - 1):
        normal = _hyperplane_normal(V[list(subset)])
        if normal is None:
            continue
        in_h = np.abs(V @ normal) <= RANK_RTOL * lengths
        if rank_by_svd(V[~in_h]) == n or rank_by_svd(V[in_h]) == n:
            continue
        side_one = in_h if in_h[0] else ~in_h
        return ComplementResult(
            holds=False,
            failing_partition=tuple(int(b) for b in side_one),
        )
    return ComplementResult(holds=True, failing_partition=None)


def hmw_lower_bound(n: int) -> CardinalityBounds:
    """Cardinality bounds for phase retrieval in C^n.

    The lower bound is 4n - 2 - 2b plus a parity correction, where b is the
    number of ones in the binary expansion of n - 1: add 2 when n is odd
    and b = 3 mod 4, add 1 when n is odd and b = 2 mod 4, else add 0.
    4n-4 generic vectors are injective (Conca-Edidin-Hering-Vinzant 2015),
    and 11 vectors in C^4, one fewer, can be (Vinzant 2015).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    b = (n - 1).bit_count()
    correction = 0
    if n % 2 == 1 and b % 4 == 3:
        correction = 2
    elif n % 2 == 1 and b % 4 == 2:
        correction = 1
    return CardinalityBounds(
        n=n,
        hmw_lower=4 * n - 2 - 2 * b + correction,
        two_n=2 * n,
        conjectured_critical=4 * n - 4,
        generic_upper=4 * n - 2,
    )


def _ray_distance(x: np.ndarray, y: np.ndarray) -> float:
    """min over unimodular c of ||x - c y||."""
    gap = (np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2
           - 2.0 * abs(complex(np.sum(x * y.conj()))))
    return float(np.sqrt(max(gap, 0.0)))


def _plain_magnitudes(vectors, x) -> list[float]:
    """Squared magnitudes computed entry by entry in scalar arithmetic,
    independent of the vectorized path."""
    out = []
    for row in vectors:
        acc = 0j
        for xj, fj in zip(x, row):
            acc += complex(xj) * complex(fj).conjugate()
        out.append(abs(acc) ** 2)
    return out


def _gauss_newton(rf: RealifiedFrame, targets: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Damped Gauss-Newton (Levenberg-Marquardt) on the residuals
    r_k(eta) = eta^T Phi_k eta - targets[k], one independent run from each
    row of E, with the targets of its row; returns the final rows.

    The Jacobian rows are 2 Phi_k eta, twice ``gradient_rows`` (here with
    one matrix-vector product per row), so J^T J = 4 R(eta).  A step
    solves (J^T J + mu I) d = -J^T r.  R(eta) is singular along J eta,
    where r is constant, so mu is floored at ORACLE_DAMPING times
    trace J^T J, and it starts there.  A step that lowers |r|^2 is taken,
    and mu is scaled by the gain ratio (Nielsen 1999); one that does not
    is refused, and mu grows by a factor that doubles each time.  A run
    stops when its step is below the rounding of eta, or after
    ORACLE_ITERS steps.  Every row is computed on its own, so its result
    does not depend on the other rows.
    """
    b, two_n = E.shape
    out = np.array(E, dtype=np.float64)
    # state of the runs still going, compacted whenever some stop
    idx, eta, t = np.arange(b), out.copy(), targets

    def residuals(eta, t):
        # gradient_rows, with products that do not depend on the other rows
        E = eta[:, :, None]
        B = (rf.phi @ E) * rf.phi + (rf.Jphi @ E) * rf.Jphi
        r = (B @ E)[:, :, 0] - t
        return B, r, (r * r).sum(1)

    B, r, cost = residuals(eta, t)
    mu, grow = np.zeros(b), np.full(b, 2.0)
    for _ in range(ORACLE_ITERS):
        BT = np.swapaxes(B, 1, 2)
        A, g = 4.0 * (BT @ B), 2.0 * (BT @ r[:, :, None])[:, :, 0]
        # positive also where R(eta) = 0, where g = 0 as well
        floor = ORACLE_DAMPING * np.trace(A, axis1=1, axis2=2) + np.finfo(float).tiny
        mu = np.maximum(mu, floor)
        d = np.linalg.solve(A + mu[:, None, None] * np.eye(two_n), -g[:, :, None])[:, :, 0]
        Bn, rn, cn = residuals(eta + d, t)
        ok = cn < cost
        gain = (cost - cn) / np.where(ok, (d * (mu[:, None] * d - g)).sum(1), 1.0)
        mu = np.where(ok, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), mu * grow)
        grow = np.where(ok, 2.0, 2.0 * grow)
        eta[ok], B[ok], r[ok], cost[ok] = eta[ok] + d[ok], Bn[ok], rn[ok], cn[ok]
        done = np.linalg.norm(d, axis=1) <= np.finfo(float).eps * np.linalg.norm(eta, axis=1)
        if done.any():
            out[idx[done]] = eta[done]
            keep = ~done
            idx, eta, t = idx[keep], eta[keep], t[keep]
            B, r, cost, mu, grow = B[keep], r[keep], cost[keep], mu[keep], grow[keep]
            if idx.size == 0:
                break
    out[idx] = eta
    return out


def injectivity_sampling_oracle(fr: ComplexFrame, trials: int = 1000,
                                seed: int = 42) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Search for a concrete injectivity counterexample by sampling.

    Each trial samples a target x and a random start, then minimizes the
    mismatch sum_k (|<x, f_k>|^2 - |<y, f_k>|^2)^2 over y by damped
    Gauss-Newton (``_gauss_newton``).  The targets and starts of all trials
    come from one (trials, 4n) normal block, the stream of drawing x by
    ``_random_complex`` and then 2n start entries trial by trial, and the
    trials are solved together ORACLE_CHUNK at a time, so the search stops
    after the first chunk that yields a pair.  A pair counts as a
    counterexample when the squared measurements agree within
    ORACLE_MATCH_TOL while the rays stay ORACLE_RAY_TOL apart; both
    conditions are re-verified in plain scalar arithmetic, and the pair of
    the lowest-numbered trial that passes is returned.  Returns None when
    no trial produces one.

    Finding nothing is evidence, not proof, of injectivity.  Nor does a
    returned pair prove a0 = 0: ORACLE_MATCH_TOL bounds the left side of
    the separation inequality by 1e-16 and ORACLE_RAY_TOL puts the right
    factor at about 4e-8 for unit x, so it proves only a0 <= about 2.5e-9.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = fr.n
    G = np.random.default_rng(seed).standard_normal((trials, 4 * n))
    X, E = (G[:, :n] + 1j * G[:, n:2 * n]) / np.sqrt(2.0), G[:, 2 * n:]
    rf = RealifiedFrame.from_frame(fr)

    def magnitudes(Z):
        # one product per row, so a trial's numbers do not depend on the others
        return np.abs(fr.vectors.conj() @ Z[:, :, None])[:, :, 0] ** 2

    targets = magnitudes(X)
    for lo in range(0, trials, ORACLE_CHUNK):
        chunk = slice(lo, lo + ORACLE_CHUNK)
        eta = _gauss_newton(rf, targets[chunk], E[chunk])
        Y = eta[:, :n] + 1j * eta[:, n:]
        near = np.linalg.norm(targets[chunk] - magnitudes(Y), axis=1) <= ORACLE_MATCH_TOL
        for x, y in zip(X[chunk][near], Y[near]):
            if _ray_distance(x, y) < ORACLE_RAY_TOL:
                continue
            # plain-arithmetic re-verification before certifying the pair
            px = _plain_magnitudes(fr.vectors.tolist(), x.tolist())
            py = _plain_magnitudes(fr.vectors.tolist(), y.tolist())
            match = sum((a - b) ** 2 for a, b in zip(px, py)) ** 0.5
            inner = sum(complex(a) * complex(b).conjugate()
                        for a, b in zip(x.tolist(), y.tolist()))
            nx = sum(abs(complex(a)) ** 2 for a in x.tolist())
            ny = sum(abs(complex(b)) ** 2 for b in y.tolist())
            apart = max(nx + ny - 2.0 * abs(inner), 0.0) ** 0.5
            if match <= ORACLE_MATCH_TOL and apart >= ORACLE_RAY_TOL:
                return x, y
    return None
