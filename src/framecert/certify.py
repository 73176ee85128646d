"""Phase retrievability certification.

The central quantity is the spectral injectivity margin

    a0 = min over unit xi of (second-smallest eigenvalue of r_matrix(rf, xi))

A frame in C^n is phase retrievable exactly when a0 > 0.  The margin is
estimated from many starts in two phases (``estimate_a0``): at most
BLOCK_ITERS iterations of batched block descent, then a batched Riemannian
Newton method on lambda_2(R(xi)) over the unit sphere for every start that
did not join, its gradient and Hessian built from the eigenpairs of the one
eigh each step already makes, all within a total budget of max_iter
iterations per start.  A block-descent start stops for good once it joins
the basin of its frame's leading start, since from there it would only
repeat the leader's descent (multistart clustering, Rinnooy Kan and Timmer
1987).  A stack of frames of one shape, one (frames, m, n) array, is
certified in chunks of whole frames (``_certify_frames``), which is how
``stability_experiment`` certifies its trials: one stacked search per
chunk, or in C^2 one closed form per chunk.
Because numerical minimization can only ever over-estimate a minimum, the
returned value is an upper bound on the true margin and never by itself a
certificate.

In C^2 ``certify_complex`` needs no search: ``lifted.py``, which owns the
lifted map A(Q)_k = f_k* Q f_k, gives the margin and its witness in closed
form from one QR of the lifted rows and the smallest singular value of A
on the traceless Hermitian matrices projected off A(I) (Balan, Casazza and
Edidin 2006; Bandeira, Cahill, Mixon and Nelson 2014).  R is formed there
only for the zero-to-rounding test.

Verdicts, decided in this order at the witness:

* its second eigenvalue is zero to rounding (at most 2n eps times the
  largest), so the kernel is at least two dimensional: NotRetrievable,
  unless ``lifted_certificate`` (``lifted.py``) proves the frame
  retrievable.  That veto makes the verdict Inconclusive: one vector much
  longer than the rest sets the largest eigenvalue, and a positive lambda_2
  can then sit below its rounding.
* a0 > TAU_PR (1e-6), and, for a margin from the search, still so after
  cross-validation of the magnitude separation inequality on random pairs:
  Retrievable.  The closed form in C^2 skips the cross-check: its a0 is
  already the minimum of the pair ratio the cross-check samples.
* anything else: Inconclusive

The deliberately wide gap between the two thresholds is the honesty band: a
margin of, say, 1e-8 is distinguishable from zero in double precision but
not robustly, so it stays Inconclusive rather than being forced either way.

For real frames the complement property gives an exact combinatorial route
(``complement_property``): every bipartition must contain a spanning side.
It is decided by C(m, n-1) hyperplane tests, in batches, rather than by the
2^(m-1) bipartitions: the property fails exactly when the family does not
span, or when some hyperplane H spanned by n-1 of its vectors leaves the
vectors off H non-spanning.

All operations are pure; randomized ones take an explicit seed and are
deterministic given it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    RANK_RTOL,
    ComplexFrame,
    RealifiedFrame,
    _checked,
    gradient_rows,
    j_matrix,
    r_matrix,
    rank_by_svd,
    unrealify,
)
from .errors import FramecertError

__all__ = [
    "TAU_PR",
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
    "estimate_a0",
    "rank_kernel_check",
    "magnitude_separation_check",
    "separation_sides",
    "certify_complex",
    "certify_real",
    "complement_property",
    "injectivity_sampling_oracle",
]

# The verdict threshold on the estimated margin.
TAU_PR = 1e-6

# A one-dimensional kernel counts as the phase direction if it is within
# this angle (radians) of span{J xi}.
KERNEL_ANGLE_TOL = 1e-6

# Complement-property checks are refused above this many candidate
# hyperplanes C(m, n-1).  A candidate takes 10-30 us at m <= 200 (one x86
# core, numpy 2.4.6): 200 vectors in R^3, 19,900 candidates, take 0.4-0.6 s.
COMPLEMENT_MAX_CANDIDATES = 20_000

# Phase 1 of ``estimate_a0``: batched block-descent iterations before the
# starts that did not join switch to the Riemannian Newton method, and the
# decrease per iteration, relative to trace R(xi), below which a start
# switches early.  Block descent converges only linearly, so it just seeds
# basins, and the Newton phase finishes those starts in a few steps.
# Certifying BH n=2..6 (both angle variants) and 28 random frames (n=3..6,
# m = 4n-2 and 4n-5) at 64 starts took 9.5 s with 100 iterations, 6.3 s
# with 30 and 5.8 s with 20; the random frames alone 5.8 -> 2.6 s (2 cores,
# x86, BLAS on one thread).  No random frame's Retrievable a0 rose.
BLOCK_ITERS = 20
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

# Two starts share a basin when their lambda_2 values are within BASIN_RTOL
# (relative, or within rounding) and their rank-two matrices
# (``_same_basin``) have overlap at least 1 - BASIN_OVERLAP_TOL.  Phase 1
# stops a start that shares its frame's leader's basin
# (``_join_leaders``), and the diagnostics count the starts in the best
# start's basin (``_basin_counts``).
BASIN_RTOL = 1e-2
BASIN_OVERLAP_TOL = 1e-6

# Entries of the largest (rows, m, 2n) array of one chunk of frames:
# ``_certify_frames`` certifies the trials of ``stability_experiment``
# together in chunks of whole frames of at most STACK_ENTRIES / (m 2n)
# rows, a frame being ``starts`` rows in the search and one row in the C^2
# closed form; the chunk rule lives there alone.  Larger batches run slower
# per row (random n=10, m=38: 20% slower at 256 rows than at 64).
STACK_ENTRIES = 2 ** 14

# Random pairs used to cross-validate a Retrievable verdict whose margin
# comes from the search.
CROSS_CHECK_PAIRS = 100

# Counterexample acceptance for the sampling oracle: measurement match, on
# the frame scaled into [1/2, 1) (``_unit_scaled``), and minimum distance
# between rays.
ORACLE_MATCH_TOL = 1e-8
ORACLE_RAY_TOL = 1e-4

VERDICT_RETRIEVABLE = "Retrievable"
VERDICT_NOT_RETRIEVABLE = "NotRetrievable"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SearchDiagnostics:
    """Convergence counts of one ``estimate_a0`` run.

    ``starts`` is the number of starts; ``joined`` of them stopped in the
    block descent (phase 1) on joining the basin of their frame's leading
    start, and every other one goes on to the Newton phase whenever the
    budget leaves room for it.  The leader is re-chosen every iteration
    among all the frame's rows, so a leader converged to rounding can join
    a start that joined it, and ``joined`` can equal ``starts``.
    ``hit_budget`` counts the starts that used all max_iter iterations
    without meeting a stopping rule.  ``block_iterations`` and
    ``polish_iterations`` count the batched iterations of each phase (a
    Newton step is one iteration), ``best_iterations`` the iterations of
    the start that gave the margin, and ``best_hit_budget`` says whether
    that start used up the budget.
    ``best_basin_starts`` counts the starts, the best one included, that
    end in the best start's basin (``_basin_counts``): final lambda_2
    within BASIN_RTOL of the best one's, or within its rounding 2n eps
    trace R(xi), and the same rank-two matrix x w* + w x*.  A joined start
    counts exactly when the start it joined does.  A count of one says the
    margin rests on a single start.  Counts only, so reruns give identical
    reports.
    """

    starts: int
    joined: int
    hit_budget: int
    block_iterations: int
    polish_iterations: int
    best_iterations: int
    best_hit_budget: bool
    best_basin_starts: int


@dataclass(frozen=True)
class MarginEstimate:
    """``estimate_a0``'s margin a0, the unit direction ``witness`` achieving
    it and the run's ``SearchDiagnostics``; it unpacks as (a0, witness)."""

    a0: float
    witness: np.ndarray
    diagnostics: SearchDiagnostics

    def __iter__(self):
        return iter((self.a0, self.witness))


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of a certification run.

    ``method`` records which route produced the verdict: "cardinality"
    (too few vectors), "not-a-frame", "eigen" (spectral margin from the
    search), "lifted" (spectral margin in closed form, n = 2), or
    "complement" (real bipartition check).  ``a0`` and ``witness_xi`` are
    set only by the two spectral routes, ``diagnostics`` (the margin
    search's convergence counts) only by the eigen route, and
    ``failing_partition`` only by the complement route.  ``witness_xi`` is
    the unit realified direction achieving the reported margin.  ``a0`` is,
    on the eigen route, lambda_2 there or the cross-check's worst ratio
    when lower; on the lifted route, the closed form's minimum; and None
    on a NotRetrievable report whose margin overflows.  An Inconclusive
    report that the lifted certificate's veto made (a witness zero to
    rounding on a frame the certificate proves) keeps its route's margin,
    which can lie far above TAU_PR.  On the lifted route it is the true
    margin to rounding: BH n=2 with vector 0 scaled by 1e5 reads 0.34904,
    its true margin.  On the eigen route it is at most the rounding of the
    largest eigenvalue of R: BH n=3 with vector 0 scaled by 1e5 reads 0.0
    at 8 starts.  The report says nothing more, so an Inconclusive report
    with a0 > TAU_PR is a vetoed one.
    """

    verdict: str
    method: str
    a0: Optional[float] = None
    witness_xi: Optional[np.ndarray] = None
    failing_partition: Optional[tuple[int, ...]] = None
    diagnostics: Optional[SearchDiagnostics] = None

    @property
    def kernel_excess(self) -> Optional[np.ndarray]:
        """The witness of a spectral NotRetrievable report, where the second
        eigenvalue of r_matrix is zero to rounding, so its kernel has
        dimension >= 2; None on every other report (only spectral reports
        carry a witness)."""
        return self.witness_xi if self.verdict == VERDICT_NOT_RETRIEVABLE else None


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
    that vector 0 is on side 1 (marked 1); it is None exactly when the
    property ``holds``.  When the family does not span, H contains every
    vector and the tuple is all ones.
    """

    failing_partition: Optional[tuple[int, ...]]

    @property
    def holds(self) -> bool:
        return self.failing_partition is None


@dataclass(frozen=True)
class _Stack:
    """The rows of a margin search over several frames of one shape: the
    frames' vectors stacked (phi and Jphi of shape (frames, m, 2n)), their
    common J, and the frame of each row, in ascending order."""

    phi: np.ndarray
    Jphi: np.ndarray
    J: np.ndarray
    frame: np.ndarray


def _take(rows: RealifiedFrame | _Stack, keep) -> RealifiedFrame | _Stack:
    """The rows ``keep`` of a one-frame search or of a ``_Stack``."""
    if isinstance(rows, RealifiedFrame):
        return rows
    return _Stack(rows.phi, rows.Jphi, rows.J, rows.frame[keep])


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
    ends = np.searchsorted(rows.frame, np.arange(len(rows.phi) + 1)).tolist()
    for j, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if hi > lo:
            a[lo:hi], b[lo:hi] = X[lo:hi] @ rows.phi[j].T, X[lo:hi] @ rows.Jphi[j].T
    phi, Jphi = _row_vectors(rows)
    return a[:, :, None] * phi + b[:, :, None] * Jphi


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
    B = _gradient_rows(rf, X)
    R = np.swapaxes(B, 1, 2) @ B
    U = _unit_rows(X @ rf.J.T)
    trace = np.trace(R, axis1=1, axis2=2)
    vals, vecs = np.linalg.eigh(R + (2.0 * trace)[:, None, None] * U[:, :, None] * U[:, None, :])
    return vals, vecs, trace


@lru_cache(maxsize=4096)
def _start_direction(seed: int, two_n: int) -> np.ndarray:
    """Unit start direction drawn from a generator seeded with ``seed``;
    cached (read-only) because neighbouring calls, and neighbouring frames
    of one stacked search, share most of their seeds."""
    v = np.random.default_rng(seed).standard_normal(two_n)
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


def _polish(rf: RealifiedFrame | _Stack, X: np.ndarray, budget: int):
    """Batched Riemannian Newton method on f(xi) = lambda_2(R(xi)) over the
    unit sphere, one independent run per row of X, each taking at most
    ``budget`` steps.  ``rf`` is one frame, or a ``_Stack`` with the frame
    of each row (a frame may have no rows).

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
    the rows of its frame within the steps left.  So no run depends on the
    rows of another frame.  A step makes two eigh calls, one for the
    Hessian and one for f at the new point, plus one per halving.

    Each run's state (its row of X, the eigenpairs of ``_deflated_eigh``
    there, its value STALL_WINDOW steps back) is kept in full-size arrays
    indexed by the ascending array of the runs still going, the way the
    block descent indexes its rows by ``active``: an accepted step writes
    into them and a stopped run leaves the index.  Every batched call sees
    exactly the live rows, in ascending order, since a ``_Stack``'s frames
    must be ascending and ``_gradient_rows`` rounds differently with the
    rows it multiplies.

    Returns the final rows, the eigenvector of lambda_2 at each of them,
    the steps each run took, and whether each stopped by one of these rules
    rather than by spending the budget.
    """
    X = np.array(X, dtype=np.float64)
    frame = np.zeros(len(X), dtype=np.intp) if isinstance(rf, RealifiedFrame) else rf.frame
    used = np.zeros(len(X), dtype=np.int64)
    stopped = np.zeros(len(X), dtype=bool)
    # each run's state, row by row; a stopped run keeps its last state
    vals, vecs, T = _deflated_eigh(rf, X)
    f_then = vals[:, 0].copy()
    best = np.full(frame[-1] + 1, np.inf)
    np.minimum.at(best, frame, vals[:, 0])
    # the runs still going, ascending
    live = np.arange(len(X))
    for step in range(budget + 1):
        f = vals[live, 0]
        g, H = _newton_model(_take(rf, live), X[live], vals[live], vecs[live], T[live])
        stop = np.sqrt((g * g).sum(1)) <= POLISH_GTOL * T[live]
        if step and step % STALL_WINDOW == 0:
            # steps needed to reach the best value of the frame at the recent rate
            mine = best[frame[live]]
            with np.errstate(divide="ignore", invalid="ignore"):
                need = STALL_WINDOW * np.log(f / mine) / np.log(f_then[live] / f)
            stop |= (f > mine) & ~(need <= budget - step)
            f_then[live] = f
        if stop.any():
            stopped[live[stop]] = True
            live, g, H = live[~stop], g[~stop], H[~stop]
        if live.size == 0 or step == budget:
            break
        x, f, trace = X[live], vals[live, 0], T[live]
        mu, Q = np.linalg.eigh(H)
        mu = np.maximum(np.abs(mu), NEWTON_FLOOR * trace[:, None])
        D = -(Q @ ((np.swapaxes(Q, 1, 2) @ g[:, :, None]) / mu[:, :, None]))[:, :, 0]
        slope = (g * D).sum(1)
        # Armijo backtracking, re-evaluating only the runs still pending
        # (positions in live); an accepted candidate becomes its run's state
        t = np.ones(live.size)
        pending = np.arange(live.size)
        while pending.size:
            cand = _unit_rows(x[pending] + t[pending, None] * D[pending])
            vc, Vc, Tc = _deflated_eigh(_take(rf, live[pending]), cand)
            ok = vc[:, 0] <= f[pending] + ARMIJO_C1 * t[pending] * slope[pending]
            hit = live[pending[ok]]
            X[hit], vals[hit], vecs[hit], T[hit] = cand[ok], vc[ok], Vc[ok], Tc[ok]
            pending = pending[~ok]
            t[pending] *= 0.5
            # written so that a NaN slope also ends the search
            resolved = ~(-t[pending] * slope[pending] > np.finfo(float).eps * trace[pending])
            stopped[live[pending[resolved]]] = True
            pending = pending[~resolved]
        used[live] += 1
        np.minimum.at(best, frame[live], vals[live, 0])
        live = live[~stopped[live]]
    return X, vecs[:, :, 0], used, stopped


def _level_with(v: np.ndarray, top: np.ndarray, trace: np.ndarray, two_n: int) -> np.ndarray:
    """The value half of the basin test: whether each lambda_2 value v is
    at most BASIN_RTOL |top| above top, or at most its rounding, 2n eps
    trace R(xi), above it (so kernel points at lambda_2 = +-1e-16 compare
    as level)."""
    return v - top <= np.maximum(BASIN_RTOL * np.abs(top), two_n * np.finfo(float).eps * trace)


def _same_basin(X: np.ndarray, W: np.ndarray, X_top: np.ndarray, W_top: np.ndarray) -> np.ndarray:
    """The matrix half of the basin test: whether the Frobenius-unit
    rank-two matrices M = x w* + w x* of each row pair (X, W) and of its
    match (X_top, W_top), with x and w read as vectors in C^n, have
    overlap |<M, M_top>| >= 1 - BASIN_OVERLAP_TOL.

    lambda_2(R(xi)) = min_w sum_k (f_k* M f_k)^2 / 4 depends on (x, w) only
    through M, so a minimum is one M but a curve of directions x: starts
    in one basin can end at directions x far apart.  Row by row, so no
    row's answer depends on the others.
    """
    Y, V = np.concatenate((X, X_top)), np.concatenate((W, W_top))
    n = Y.shape[1] // 2
    z, v = Y[:, :n] + 1j * Y[:, n:], V[:, :n] + 1j * V[:, n:]
    M = z[:, :, None] * v[:, None, :].conj()
    M = (M + np.swapaxes(M, 1, 2).conj()).reshape(Y.shape[0], -1)
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    overlap = np.abs((M[:len(X)] * M[len(X):].conj()).sum(axis=1))
    return overlap >= 1.0 - BASIN_OVERLAP_TOL


def _join_leaders(active: np.ndarray, v: np.ndarray, trace: np.ndarray,
                  vals: np.ndarray, X: np.ndarray, W: np.ndarray,
                  starts: int) -> tuple[np.ndarray, np.ndarray]:
    """The phase-1 joining rule of ``_search_chunk``: the positions in
    ``active`` of the rows that join their frame's leader, and the leader
    row each joins.  Row r is a start of frame r // starts.

    The leader is the row of the frame with the lowest lambda_2 in
    ``vals`` so far.  An ``active`` row (one whose decrease met the
    stopping rule in this iteration included) joins it when it is not the
    leader, its lambda_2 ``v`` (with trace R(xi) ``trace``) is level with
    the leader's (``_level_with``), and its pair in X, W ends at the
    leader's matrix (``_same_basin``): it would only repeat the leader's
    descent.  Only a frame's own rows are read, and M is formed only for
    the rows that pass the value test.
    """
    leader = vals.reshape(-1, starts).argmin(axis=1) + np.arange(0, vals.size, starts)
    lead = leader[active // starts]
    # .nonzero() rather than np.flatnonzero, whose overhead every block
    # iteration of a 2-start search would pay
    near = ((active != lead) & _level_with(v, vals[lead], trace, X.shape[1])).nonzero()[0]
    to = lead[near]
    if near.size:
        rows = active[near]
        joins = _same_basin(X[rows], W[rows], X[to], W[to])
        near, to = near[joins], to[joins]
    return near, to


def _basin_counts(X: np.ndarray, W: np.ndarray, finals: np.ndarray, trace: np.ndarray,
                  best: np.ndarray, joined_to: np.ndarray, starts: int) -> np.ndarray:
    """For each frame of a chunk of ``_search_chunk``, the starts (the best
    one included) that end in the basin of its best row ``best``.

    A start that joined another in phase 1 (``joined_to``, -1 for none)
    counts exactly when the start it joined does, through chains of joins,
    so each start is represented by the root of its chain.  The best row is
    a root whatever it joined: a leader converged to rounding can join a
    start that joined it, and a chain through it may close in a cycle.  A
    root counts when its final lambda_2 is level with the best row's
    (``_level_with``) and its pair (x, w) ends at the same matrix
    (``_same_basin``).  Here x is the start's final direction and w its
    partner in the search's last step (the block half step's direction,
    or the lambda_2 eigenvector at a Newton run's end).  Every step is row
    by row, so a stacked search counts as the searches on its frames
    alone.
    """
    rows = np.arange(finals.size)
    root = np.where(joined_to < 0, rows, joined_to)
    root[best] = best
    # pointer jumping: each pass doubles the chain length resolved, and a
    # chain is shorter than its frame's starts
    for _ in range(int(starts).bit_length()):
        root = root[root]
    frame = rows // starts
    anchor = best[frame]
    own = np.flatnonzero((root == rows) & _level_with(finals, finals[anchor], trace, X.shape[1]))
    member = np.zeros(finals.size, dtype=bool)
    member[own] = _same_basin(X[own], W[own], X[anchor[own]], W[anchor[own]])
    return np.bincount(frame[member[root]], minlength=best.size)


def _search_chunk(rows: RealifiedFrame | _Stack, starts: int, seeds: list[int],
                  max_iter: int) -> list[MarginEstimate]:
    """The two phases of ``estimate_a0`` on one frame, or on the frames of
    one ``_Stack`` that ``_certify_frames`` has sized, frame j with seed
    seeds[j], rows j*starts .. (j+1)*starts - 1 being its starts.  Every
    rule that stops a row looks only at its own frame's rows, and the
    products are taken frame by frame (``_gradient_rows``), so each result
    is bit for bit the one ``estimate_a0`` gives on that frame alone."""
    frames = len(seeds)
    # row r starts at the direction of seed seeds[r // starts] + r % starts;
    # the cache draws a seed that neighbouring frames share only once
    X = np.stack([_start_direction(s + i, rows.J.shape[0]) for s in seeds for i in range(starts)])
    # each row's partner w in its last step, for ``_basin_counts``
    W = np.empty_like(X)
    vals = np.full(X.shape[0], np.inf)
    iterations = np.zeros(X.shape[0], dtype=np.int64)
    # the row each row joined in phase 1, or -1
    joined_to = np.full(X.shape[0], -1)
    # the rows still descending (row r is a start of frame r // starts), and their frames
    active, live = np.arange(X.shape[0]), rows
    for _ in range(min(BLOCK_ITERS, max_iter)):
        if active.size == 0:
            break
        # each half step: the lambda_2 eigenvector of R at the other block
        Wa = _deflated_eigh(live, X[active])[1][:, :, 0]
        lam, vecs, trace = _deflated_eigh(live, Wa)
        v = lam[:, 0]
        X[active], W[active] = vecs[:, :, 0], Wa
        iterations[active] += 1
        going = vals[active] - v > BLOCK_RTOL * trace
        vals[active] = v
        joins, lead = _join_leaders(active, v, trace, vals, X, W, starts)
        if joins.size:
            joined_to[active[joins]] = lead
            going[joins] = False
        if not going.all():
            active, live = active[going], _take(live, going)
    block_iterations = iterations.reshape(frames, starts).max(axis=1)
    stopped = np.ones(X.shape[0], dtype=bool)
    stopped[active] = False
    # every row that did not join goes on, with the budget phase 1 left
    budget = max_iter - min(BLOCK_ITERS, max_iter)
    newton = (joined_to < 0).nonzero()[0]
    used = np.zeros(X.shape[0], dtype=np.int64)
    if budget > 0 and newton.size:
        X[newton], W[newton], used[newton], stopped[newton] = _polish(
            _take(rows, newton), X[newton], budget)
        iterations += used
    B = _gradient_rows(rows, X)
    R = np.swapaxes(B, 1, 2) @ B
    finals = np.linalg.eigvalsh(R)[:, 1]
    best = finals.reshape(frames, starts).argmin(axis=1) + np.arange(0, frames * starts, starts)
    basins = _basin_counts(X, W, finals, np.trace(R, axis1=1, axis2=2), best, joined_to, starts)
    joined = (joined_to >= 0).reshape(frames, starts).sum(axis=1)
    counts = zip(joined, (~stopped).reshape(frames, starts).sum(axis=1),
                 block_iterations, used.reshape(frames, starts).max(axis=1), best, basins)
    out = []
    for joined_j, hit, block_j, polish_j, b, basin in counts:
        diagnostics = SearchDiagnostics(
            starts=starts,
            joined=int(joined_j),
            hit_budget=int(hit),
            block_iterations=int(block_j),
            polish_iterations=int(polish_j),
            best_iterations=int(iterations[b]),
            best_hit_budget=bool(not stopped[b]),
            best_basin_starts=int(basin),
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
    keyed by (seed + i, 2n), so calls whose seeds overlap, such as repeated
    certifications, and the frames of one stacked search, such as the
    trials of ``stability_experiment``, draw each one once.  The search
    (``_search_chunk``) runs on the one frame's own rows; ``_certify_frames``
    gives it whole stacks of frames, and calls ``estimate_a0`` for a chunk
    of one frame.

    1. Batched block descent for at most BLOCK_ITERS iterations.  The margin
       is the minimum over unit pairs (xi, w) with w orthogonal to J xi of
       sum_k <Phi_k xi, w>^2, a quartic symmetric in xi and w; each half
       step minimizes one block exactly through a constrained eigenvector
       computation, so the objective is nonincreasing.  A start leaves it
       once its decrease per iteration is at most BLOCK_RTOL times
       trace R(xi), or when it joins its frame's leader, the start with the
       lowest value so far: it is not the leader, its value is within
       BASIN_RTOL of the leader's (or within 2n eps trace R(xi)), and its
       rank-two matrix x w* + w x* matches the leader's to an overlap of
       1 - BASIN_OVERLAP_TOL.  A joined start keeps its pair and skips
       phase 2; the leader goes on, so the margin still comes from the
       lowest final value.
    2. Every start that did not join finishes with a batched Riemannian
       Newton method on f(xi) = lambda_2(R(xi)) over the unit sphere
       (``_polish``), for the rest of the budget: block descent stalls in
       narrow valleys, and its decrease rule cannot tell a start near zero
       converged, where ``certify_complex`` needs it resolved.

    The reported a0 is the smallest second eigenvalue (``eigvalsh``) of
    R(xi) over the final directions.  It is an upper bound on the true
    margin (a minimizer may have been missed), so a tiny value suggests,
    but never proves, that the frame is not retrievable; see
    ``certify_complex`` for the verification step.  The result, a
    ``MarginEstimate``, unpacks as the pair (a0, witness) and carries the
    convergence counts as ``diagnostics``.  Every stopping rule is relative to trace R(xi), so
    the frame scaled by a power of two c gives exactly c^4 a0, the same
    witness and equal diagnostics.
    """
    starts, max_iter = _checked("starts", starts, 1), _checked("max_iter", max_iter, 1)
    return _search_chunk(rf, starts, [_checked("seed", seed, 0)], max_iter)[0]


def rank_kernel_check(rf: RealifiedFrame, xi: np.ndarray) -> RankKernelResult:
    """Numerical rank and kernel of r_matrix at the direction xi.

    An eigenvalue counts as zero when it is <= RANK_RTOL times the largest.
    ``kernel_is_span_jxi`` is True exactly when the kernel is one
    dimensional and within KERNEL_ANGLE_TOL radians of the phase line
    span{J xi}.  A spectral NotRetrievable verdict asserts a kernel of
    dimension >= 2 at its ``kernel_excess``.
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
    return _separation_sides(fr.vectors, X, Y)


def _separation_sides(V: np.ndarray, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """``separation_sides`` on frame vectors V, or on a stack of them
    (frames, m, n) with pairs X, Y of shape (frames, pairs, n)."""
    X = np.asarray(X, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    Vh = V.conj().swapaxes(-1, -2)
    mx = np.abs(X @ Vh) ** 2
    my = np.abs(Y @ Vh) ** 2
    left = np.sum((mx - my) ** 2, axis=-1)
    inner = np.sum(X * Y.conj(), axis=-1)
    factor = (np.linalg.norm(X - Y, axis=-1) ** 2 * np.linalg.norm(X + Y, axis=-1) ** 2
              - 4.0 * inner.imag ** 2)
    return left, factor


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
    return bool(left[0] >= a0 * factor[0] - 1e-9 * (1.0 + abs(factor[0])))


def _random_pairs(rng: np.random.Generator, pairs: int,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` pairs of standard complex Gaussian vectors in C^n, entries
    (g + i g') / sqrt(2), drawn pair by pair from one stream: for each pair
    the n real then the n imaginary parts of x, then those of y."""
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
    3. Find the margin: for n = 2 in closed form (method "lifted", see
       ``lifted._c2_margins``), otherwise with ``estimate_a0`` at its default
       budget MAX_ITER (method "eigen"), whose Newton phase has already
       finished every start that did not join, the leader near zero
       included.  One ``eigvalsh`` of R at the witness then decides, in
       this order:

       * the second eigenvalue is zero to rounding, at most 2n eps times
         the largest, so the kernel is at least two dimensional:
         NotRetrievable, the witness a point of that kernel, unless
         ``lifted_certificate`` proves the frame retrievable, which makes
         the verdict Inconclusive;
       * a0 > TAU_PR: Retrievable.  On the eigen route the margin first
         becomes the smaller of a0 and the worst ratio of the two sides of
         the separation inequality over CROSS_CHECK_PAIRS random pairs
         (drawn from a generator seeded with ``seed``, checked in one
         batch by ``separation_sides``) whose right factor exceeds 1e-12,
         and the verdict is Inconclusive if that no longer exceeds TAU_PR.
         The lifted a0 needs no such check: it is the minimum of that very
         ratio, ||A(Q)||^2 / ||Q||_*^2 at Q = x x* - y y*;
       * otherwise Inconclusive: a small margin that double precision
         cannot tell from zero is never enough.

    An eigen report carries the search's ``diagnostics``; ``starts`` and
    ``seed`` play no part in a lifted report, though both are still
    validated on every route: ``starts`` >= 1 and ``seed`` >= 0.  The
    margin, the zero-to-rounding test and the cross-check run on the frame
    scaled by the power of two that brings its largest entry into [1/2, 1),
    and a0 is scaled back by its fourth power.  So
    rescaling a frame by a power of two changes neither the witness, nor
    the diagnostics, nor the zero-to-rounding test, and a NotRetrievable
    verdict holds at every such scale (with a0 None where it overflows).
    A frame so small that a0 underflows to 0 is Inconclusive; one so large
    that the a0 of any other verdict overflows raises FramecertError.
    TAU_PR is still absolute, so rescaling can move a0 across it.
    """
    return _certify_frames(fr.vectors[None], starts, [seed])[0]


def _certify_frames(vectors: np.ndarray, starts: int,
                    seeds: list[int]) -> list[CertificationReport]:
    """``certify_complex`` on each frame of the stack ``vectors`` (frames,
    m, n), frame i with seed seeds[i].  ``starts`` and the seeds are checked
    before any precheck, and the cardinality gate is one test of the
    stack's shape.  This is the one place that sizes chunks: the frames go
    in chunks of whole frames, each run as one stack with one batched SVD
    for the span precheck, then in C^2 one ``lifted._c2_margins`` call
    (imported there, so a process that certifies no frame in C^2 never
    loads ``lifted.py`` for it) or else one stacked search
    (``_search_chunk``; ``estimate_a0`` for a chunk of one), one
    ``_spectra`` of R at the witnesses, and one ``_decide``.  A chunk holds
    at most STACK_ENTRIES / (m 2n r) frames, r the rows per frame
    (``starts`` in the search, 1 in the closed form), but at least one
    frame.  A single frame is a stack of one.

    Each frame's margin is found on it scaled by ``_unit_scaled``, so
    that R(xi) neither overflows nor underflows to 0.  The scaling is exact
    and both routes are equivariant under it.  Each margin is the one its
    route found; ``_spectra`` feeds only the zero-to-rounding test."""
    starts, seeds = _checked("starts", starts, 1), [_checked("seed", s, 0) for s in seeds]
    frames, m, n = vectors.shape
    if n >= 2 and m < 2 * n:
        return [CertificationReport(verdict=VERDICT_NOT_RETRIEVABLE, method="cardinality")
                for _ in range(frames)]
    reports = [None] * frames
    per = max(1, STACK_ENTRIES // (m * 2 * n * (1 if n == 2 else starts)))
    for lo in range(0, frames, per):
        V = vectors[lo:lo + per]
        chunk = np.arange(lo, lo + len(V))
        spans = rank_by_svd(V) == n
        for i in chunk[~spans]:
            reports[i] = CertificationReport(verdict=VERDICT_NOT_RETRIEVABLE, method="not-a-frame")
        if not spans.any():
            continue
        chunk, V = chunk[spans], V[spans]
        chunk_seeds = [seeds[i] for i in chunk]
        V, k = _unit_scaled(V)
        phi = np.concatenate((V.real, V.imag), axis=2)
        Jphi = np.concatenate((-V.imag, V.real), axis=2)
        if n == 2:
            from .lifted import _c2_margins
            (witness, a0), diagnostics = _c2_margins(V), [None] * len(chunk)
        else:
            estimates = ([estimate_a0(RealifiedFrame(phi[0], Jphi[0], j_matrix(n)), starts=starts,
                                      seed=chunk_seeds[0])] if len(chunk) == 1
                         else _search_chunk(_Stack(phi, Jphi, j_matrix(n),
                                                   np.repeat(np.arange(len(chunk)), starts)),
                                            starts, chunk_seeds, MAX_ITER))
            a0, witness, diagnostics = zip(*((e.a0, e.witness, e.diagnostics) for e in estimates))
        spectrum = _spectra(phi, Jphi, np.stack(witness))
        for i, rep in zip(chunk, _decide(V, k, a0, witness, spectrum, chunk_seeds, diagnostics)):
            reports[i] = rep
    return reports


def _unit_scaled(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frames of the stack V (frames, m, n) each scaled by 2^-k, k the
    binary exponent of its largest realified entry, so that entry lies in
    [1/2, 1); and k.  ``np.ldexp`` scales both parts exactly, unless an
    entry falls below the normal range."""
    k = np.frexp(np.abs(V.view(np.float64)).max(axis=(1, 2)))[1]
    return np.ldexp(V.view(np.float64), -k[:, None, None]).view(np.complex128), k


def _spectra(phi: np.ndarray, Jphi: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The eigenvalues of r_matrix at the direction W[i] of each frame i of
    a stack (phi and Jphi of shape (frames, m, 2n)) in one batched
    product, with the arithmetic of ``gradient_rows`` on each frame."""
    X = W[:, None, :]
    B = ((X @ phi.swapaxes(1, 2)).swapaxes(1, 2) * phi
         + (X @ Jphi.swapaxes(1, 2)).swapaxes(1, 2) * Jphi)
    return np.linalg.eigvalsh(B.swapaxes(1, 2) @ B)


def _decide(V: np.ndarray, k: np.ndarray, a0, witness, spectrum: np.ndarray,
            seeds: list[int], diagnostics) -> list[CertificationReport]:
    """``certify_complex`` step 3 on a stack V (frames, m, n) of complex
    frames scaled by 2^-k, once frame i's route has found its margin a0[i]
    at its unit witness[i], where R has the eigenvalues spectrum[i], read
    for the zero-to-rounding test alone, with the search's diagnostics[i]
    (None for the closed form).  Only a searched frame (n != 2) is
    cross-checked: frame i draws its pairs from ``default_rng(seeds[i])``,
    and all are checked in one batch.  In C^2 a0 is already the minimum of
    every pair's ratio, so a pair could undercut it by rounding only.

    A frame whose witness is zero to rounding is NotRetrievable unless
    ``lifted_certificate`` proves it retrievable, and then Inconclusive;
    the certificate runs on those frames only.  The zero-to-rounding test
    and the cross-check run on the scaled frames, and only the margins
    they leave are scaled back by 2^(4k).  So a kernel point is
    NotRetrievable at any scale (with ``a0`` None where its margin
    overflows), and no cross-check pair is lost to overflow."""
    n = V.shape[2]
    # the second eigenvalue is zero to rounding: a kernel beyond J xi
    kernel = spectrum[:, 1] <= 2 * n * np.finfo(float).eps * spectrum[:, -1]
    # unless the lifted certificate proves the frame retrievable: then the
    # test met only the rounding of the frame's longest vector
    vetoed = np.zeros_like(kernel)
    if kernel.any():
        # imported here, so a process that meets no kernel point never loads it
        from .lifted import lifted_certificate
        for i in kernel.nonzero()[0]:
            vetoed[i] = lifted_certificate(ComplexFrame(V[i])).proved
    with np.errstate(over="ignore"):
        full = np.ldexp(a0, 4 * k)
    for i in (np.isinf(full) & ~kernel).nonzero()[0][:1]:
        raise FramecertError(f"entries too large: a0 = {float(a0[i])!r} * 2^{4 * k[i]} overflows")
    check = (~kernel & (full > TAU_PR) & (n != 2)).nonzero()[0]
    worst = np.full(len(a0), np.inf)
    if check.size:
        X, Y = np.array([_random_pairs(np.random.default_rng(seeds[i]), CROSS_CHECK_PAIRS, n)
                         for i in check]).swapaxes(0, 1)
        left, factor = _separation_sides(V[check], X, Y)
        # the worst ratio over the pairs whose right factor exceeds 1e-12
        worst[check] = np.divide(left, factor, out=np.full_like(left, np.inf),
                                 where=factor > 1e-12).min(axis=1)
    low = worst < a0
    full[low] = np.ldexp(worst[low], 4 * k[low])
    return [CertificationReport(
        verdict=(VERDICT_INCONCLUSIVE if vetoed[i] else VERDICT_NOT_RETRIEVABLE if kernel[i] else
                 VERDICT_RETRIEVABLE if full[i] > TAU_PR else VERDICT_INCONCLUSIVE),
        method="lifted" if d is None else "eigen",
        a0=None if np.isinf(full[i]) else float(full[i]),
        witness_xi=witness[i], diagnostics=d) for i, d in enumerate(diagnostics)]


def certify_real(fr: ComplexFrame) -> CertificationReport:
    """Certification of a real frame through the complement property.

    The check is exact and combinatorial, so the report carries no margin
    and no spectral witness.
    """
    result = complement_property(fr)
    verdict = VERDICT_RETRIEVABLE if result.holds else VERDICT_NOT_RETRIEVABLE
    return CertificationReport(verdict=verdict, method="complement",
                               failing_partition=result.failing_partition)


def complement_property(fr: ComplexFrame) -> ComplementResult:
    """Complement-property check for a real frame by hyperplane tests.

    The property: for every bipartition of the family, at least one side
    spans R^n; it characterizes injectivity of the magnitude measurement
    map for real frames.  A family that does not span fails it.  Otherwise
    the non-spanning side of a failing bipartition can be enlarged until
    it is the set of vectors in a hyperplane H spanned by n-1 independent
    frame vectors, while the vectors off H still do not span.  So the check
    scans the C(m, n-1) subsets of n-1 vectors in lexicographic order,
    skips the dependent ones, and returns the first hyperplane whose
    complement does not span.  A vector lies in H when its distance to H
    is at most RANK_RTOL times its length, so rescaling a vector never
    moves it across.  The subsets go in chunks of 1, 2, 4, ... up to
    STACK_ENTRIES / (2 m n) subsets, so an early failure is found at once;
    a chunk takes its normals from one batched SVD, its sides of H from
    one product, and the ranks of both sides from one ``rank_by_svd`` of
    the frame stacked with the other side's rows zeroed (which leaves the
    singular values unchanged).

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
        return ComplementResult(failing_partition=(1,) * m)
    if n == 1:
        # H = {0}, and the nonzero vectors span R^1 on whichever side
        return ComplementResult(failing_partition=None)
    V = fr.vectors.real
    lengths = np.linalg.norm(V, axis=1)
    subsets = itertools.combinations(range(m), n - 1)
    size, most = 1, max(1, STACK_ENTRIES // (2 * m * n))
    while (chunk := np.array(list(itertools.islice(subsets, size)), dtype=np.intp)).size:
        _, sv, Vt = np.linalg.svd(V[chunk])
        in_h = np.abs(Vt[:, -1] @ V.T) <= RANK_RTOL * lengths
        ranks = rank_by_svd(np.concatenate((in_h, ~in_h))[:, :, None] * V)
        fail = (sv[:, -1] > RANK_RTOL * sv[:, 0]) & (ranks.reshape(2, -1) < n).all(axis=0)
        if fail.any():
            side = in_h[fail.argmax()]
            side_one = side if side[0] else ~side
            return ComplementResult(failing_partition=tuple(int(b) for b in side_one))
        size = min(2 * size, most)
    return ComplementResult(failing_partition=None)


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


def injectivity_sampling_oracle(fr: ComplexFrame, trials: int = 64,
                                seed: int = 42) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Search for a concrete injectivity counterexample through the margin
    search.

    ``estimate_a0`` runs ``trials`` starts from ``seed`` and returns its
    unit witness xi; w is the unit lambda_2 eigenvector of R(xi) orthogonal
    to J xi, the first eigenvector of ``_deflated_eigh`` there.  The
    candidate pair is x, y = unrealify(xi +- ORACLE_RAY_TOL w).  Since w is
    orthogonal to J xi, <x, y> is real and the rays are exactly 2
    ORACLE_RAY_TOL apart, while the squared measurements differ by 4
    ORACLE_RAY_TOL <Phi_k xi, w>, so their mismatch is 4 ORACLE_RAY_TOL
    sqrt(lambda_2(R(xi))).  A pair
    counts as a counterexample when the squared measurements agree within
    ORACLE_MATCH_TOL while the rays stay ORACLE_RAY_TOL apart.  Both
    conditions are re-verified entry by entry in plain scalar arithmetic,
    and that re-verification is the part of the answer independent of the
    search.  Returns None when the pair fails it.

    The search and the re-verification both run on the frame scaled by
    ``_unit_scaled``, as ``certify_complex``'s margin does, so scaling the
    frame by a power of two leaves the answer unchanged, and any other scale
    changes it only through rounding.  Scaling f by c scales every
    |<x, f_k>|^2 by c^2, so a pair for the scaled frame is one for fr.

    ``trials`` (>= 1) and ``seed`` (>= 0) are checked first, on every
    frame.  Then a frame that ``lifted_certificate`` proves retrievable
    (its lifted map's kernel has dimension <= 1 and holds no difference
    x x* - y y* but 0) has no such pair, and the oracle returns None
    without a search: there None is a proof.  Otherwise finding nothing is
    evidence, not proof, of injectivity.  Nor does a returned pair prove
    a0 = 0: it proves only lambda_2(R(xi)) <=
    (ORACLE_MATCH_TOL / (4 ORACLE_RAY_TOL))^2 = 6.25e-10 at a unit witness
    xi of the frame scaled so that its largest realified entry lies in
    [1/2, 1).
    """
    trials, seed = _checked("trials", trials, 1), _checked("seed", seed, 0)
    from .lifted import lifted_certificate
    if lifted_certificate(fr).proved:
        return None
    V = _unit_scaled(fr.vectors[None])[0][0]
    rf = RealifiedFrame.from_frame(ComplexFrame(V))
    _, xi = estimate_a0(rf, starts=trials, seed=seed)
    w = _deflated_eigh(rf, xi[None, :])[1][0, :, 0]
    x, y = unrealify(xi + ORACLE_RAY_TOL * w), unrealify(xi - ORACLE_RAY_TOL * w)
    # plain-arithmetic re-verification before certifying the pair
    px = _plain_magnitudes(V.tolist(), x.tolist())
    py = _plain_magnitudes(V.tolist(), y.tolist())
    match = sum((a - b) ** 2 for a, b in zip(px, py)) ** 0.5
    inner = sum(complex(a) * complex(b).conjugate()
                for a, b in zip(x.tolist(), y.tolist()))
    nx = sum(abs(complex(a)) ** 2 for a in x.tolist())
    ny = sum(abs(complex(b)) ** 2 for b in y.tolist())
    apart = max(nx + ny - 2.0 * abs(inner), 0.0) ** 0.5
    if match <= ORACLE_MATCH_TOL and apart >= ORACLE_RAY_TOL:
        return x, y
    return None
