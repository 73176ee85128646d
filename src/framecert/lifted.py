"""The lifted view of phase retrievability, and a certificate from it.

The squared measurements of x are linear in x x*: |<x, f_k>|^2 = f_k* (x x*)
f_k.  So A(Q)_k = f_k* Q f_k is a linear map from the n^2-dimensional real
space of Hermitian matrices to R^m, and x, y have equal magnitudes under
every f_k exactly when Q = x x* - y y* lies in its kernel K.  The matrices
x x* - y y* are the set V of Hermitian matrices with at most one positive
and at most one negative eigenvalue, so a frame is phase retrievable
exactly when K and V meet only in 0 (Balan, Casazza and Edidin 2006;
Bandeira, Cahill, Mixon and Nelson 2014).  The package's margin is a0 =
min ||A(Q)||^2 over Q in V of nuclear norm 1: ``separation_sides`` gives
left = ||A(Q)||^2 and factor = ||Q||_*^2 at Q = x x* - y y*.

``lifted_certificate`` decides K and V apart wherever d = dim K <= 1, from
one SVD of A and, for d = 1, one ``eigvalsh``.  It proves nothing for
d >= 2.  Scaling a vector by a nonzero scalar leaves K, V and so the
answer unchanged, so A is built on the nonzero vectors each scaled to
unit length: then every row of A has norm 1, and no one long vector sets
the scale against which the rest are rounding.

In C^2 every Hermitian matrix has at most one positive and one negative
eigenvalue, so V is the whole space, and the margin is the minimum of
||A(Q)||^2 over all Q of nuclear norm 1.  ``_c2_margins`` reads that
minimum and its minimizer off A in the same basis, in closed form, and
gives ``certify_complex`` its margin and witness there with no search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComplexFrame

__all__ = ["LiftedCertificate", "lifted_map", "lifted_certificate"]

# Rounding slacks of ``lifted_certificate``, as multiples of eps.
#
# A: each entry of the computed unit vector u_k is that of the exact
# multiple f_k / |f_k|_computed to a relative eps, and an entry of A is a
# product of two of them, a sum of two products, times sqrt(2), so the
# computed A differs from the exact lifted map of those multiples by at most
# 6 eps per row of norm 1, 6 sqrt(m) eps in 2-norm.  LAPACK's SVD returns
# the exact singular values of A + E with ||E|| <= p(m, n^2) eps ||A||, p
# growing about like max(m, n^2), and singular vectors orthonormal to
# working precision, where a unit x orthogonal to the computed last one
# loses only a second-order amount of sigma_{n^2-1}.  By Weyl's inequality
# each singular value of the exact map is then within SVD_SLACK max(m, n^2)
# eps sigma_max of the computed one (sigma_max >= 1, the norm of a row).
#
# Q: eigvalsh returns the eigenvalues of Q + F with ||F|| <= p(n) eps ||Q||
# and ||Q|| <= ||Q||_F = 1, and forming Q from q rounds by eps.  The distance
# to V is 1-Lipschitz in the eigenvalue vector, whose 2-norm error is at
# most sqrt(n) times the largest, so EIG_SLACK n eps bounds its error.
SVD_SLACK = 10
EIG_SLACK = 10


@dataclass(frozen=True)
class LiftedCertificate:
    """The outcome of ``lifted_certificate``.

    ``kernel_dim`` is d = dim K, counted as n^2 less the singular values
    of A above their rounding slack.  ``proved`` says that the frame is phase
    retrievable, proved by the d = 0 or the d = 1 route; it is never True
    for d >= 2.  ``a0_lower`` is a lower bound on the margin a0 of the
    frame as given (inf where it overflows), and 0.0 when not proved.
    """

    kernel_dim: int
    proved: bool
    a0_lower: float


def _unit_rows(V: np.ndarray) -> tuple[np.ndarray, float, int]:
    """The nonzero rows of V each scaled to unit length, and the shortest
    row's length as t * 2^e.  Each row is first scaled by the power of two
    that brings its largest real or imaginary part into [1/2, 1), which is
    exact, so no length overflows or underflows."""
    V = np.asarray(V, dtype=np.complex128)
    big = np.abs(V.view(np.float64)).max(axis=1)
    V, e = V[big > 0], np.frexp(big[big > 0])[1]
    W = np.ldexp(V.view(np.float64), -e[:, None])
    length = np.sqrt((W * W).sum(axis=1))
    if not len(length):
        return W.view(np.complex128), 0.0, 0
    short = np.argmin(np.log2(length) + e)
    return (W / length[:, None]).view(np.complex128), float(length[short]), int(e[short])


def _lift(U: np.ndarray) -> np.ndarray:
    """The m x n^2 matrix of A for the rows of U (m, n), in the basis of
    ``lifted_map``, or one such matrix per frame of a stack (frames, m, n)."""
    n = U.shape[-1]
    j, l = np.triu_indices(n, 1)
    off = np.sqrt(2.0) * U[..., j].conj() * U[..., l]
    return np.concatenate((U.real ** 2 + U.imag ** 2, off.real, -off.imag), axis=-1)


def lifted_map(V) -> np.ndarray:
    """The real matrix of A on the nonzero rows of V (m, n), each scaled to
    unit length, in the orthonormal basis of the Hermitian matrices E_jj
    (j < n), then (E_jl + E_lj) / sqrt(2) and then i (E_jl - E_lj) / sqrt(2)
    for j < l in row-major order.  Row k is A(Q)_k = u_k* Q u_k as a
    function of Q's coordinates, so ||A q|| = ||A(Q)|| with ||q|| = ||Q||_F."""
    return _lift(_unit_rows(V)[0])


def _hermitian(q: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrix of the coordinates q (n^2,) in the basis of
    ``lifted_map``, or one per row of a stack q (frames, n^2)."""
    j, l = np.triu_indices(n, 1)
    z = (q[..., n:n + len(j)] + 1j * q[..., n + len(j):]) / np.sqrt(2.0)
    Q = np.zeros(q.shape[:-1] + (n, n), dtype=np.complex128)
    Q[..., range(n), range(n)] = q[..., :n]
    Q[..., j, l], Q[..., l, j] = z, z.conj()
    return Q


def _c2_margins(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit realified witnesses (frames, 4) and the margins (frames,) of
    a stack V (frames, m, 2) of frames in C^2, in closed form, with no
    search.

    Write Q = s I + Theta with Theta traceless.  With L_0 .. L_3 the columns
    of A = ``_lift(V)``, A(Q) = s a + G theta: a = L_0 + L_1 = A(I) holds the
    squared lengths ||f_k||^2, G = [(L_0 - L_1) / sqrt(2), L_2, L_3] is A on
    the orthonormal traceless basis (E_00 - E_11) / sqrt(2), then the two
    off-diagonal elements of ``lifted_map``, and theta holds Theta's
    coordinates there.  Theta's eigenvalues are +-||theta|| / sqrt(2), so Q
    has nuclear norm 1 at ||theta|| = 1 / sqrt(2) and |s| <= 1/2.  Row k of
    G has norm a_k / sqrt(2), so |a^T G theta| <= ||a||^2 / 2: the best s =
    -a^T G theta / ||a||^2 always lies in [-1/2, 1/2], and the margin is
    sigma_min(P G)^2 / 2, P the projection off a.

    One Householder QR of [a, G] gives P G's triangular factor as the
    trailing 3 x 3 block of R, and s = -r_01 theta / r_00.  The rows go in
    by decreasing length, which keeps the factorization accurate row by
    row when the lengths spread widely (Cox and Higham 1998), and a stacked
    QR factors each frame alone, so a frame rounds alike in any stack.
    theta is the smallest right singular vector of that block over
    sqrt(2).  With (lambda_j, u_j) Q's two eigenpairs, x = sum_j
    sqrt|lambda_j| u_j and w = sum_j sign(lambda_j) sqrt|lambda_j| u_j are
    unit with x w* + w x* = 2 Q, and the witness is realify(x).
    """
    l0, l1, l2, l3 = np.moveaxis(_lift(V), -1, 0)
    rows = np.stack((l0 + l1, (l0 - l1) / np.sqrt(2.0), l2, l3), axis=-1)
    # row k has length a_k sqrt(3/2): sort the rows by decreasing a_k
    order = np.argsort(-rows[..., :1], axis=1, kind="stable")
    R = np.linalg.qr(np.take_along_axis(rows, order, axis=1), mode="r")
    _, sigma, Vt = np.linalg.svd(R[:, 1:, 1:])
    theta = Vt[:, -1] / np.sqrt(2.0)
    # |s| <= 1/2 in exact arithmetic; rounding can step past it
    s = np.clip(-(R[:, 0, 1:] * theta).sum(axis=1) / R[:, 0, 0], -0.5, 0.5)
    q = np.concatenate((s[:, None] + theta[:, :1] / np.sqrt(2.0) * [1.0, -1.0], theta[:, 1:]),
                       axis=1)
    lam, U = np.linalg.eigh(_hermitian(q, 2))
    x = (np.sqrt(np.abs(lam))[:, None, :] * U).sum(axis=2)
    xi = np.concatenate((x.real, x.imag), axis=1)
    return xi / np.sqrt(xi[:, None, :] @ xi[:, :, None])[:, 0], sigma[:, -1] ** 2 / 2.0


def _distance_to_v(w: np.ndarray) -> float:
    """dist_F(Q, V) from Q's ascending eigenvalues w: the root-sum-square of
    all of them but the largest positive one and the most negative one (V
    is a unitarily invariant spectral set, Lewis 1996)."""
    rest = w[1 if w[0] < 0 else 0:-1 if w[-1] > 0 else None]
    return float(np.sqrt(rest @ rest))


def lifted_certificate(fr: ComplexFrame) -> LiftedCertificate:
    """Prove the frame phase retrievable from its lifted map A, where d =
    dim K <= 1, with rounding slacks (SVD_SLACK, EIG_SLACK).

    A unit Q in V has ||Q||_* <= sqrt(2) (rank two), so a0 >= min ||A(Q)||^2
    / 2 over unit Q in V.

    * d = 0: ||A(Q)|| >= sigma_min ||Q||_F, so a0 >= sigma_min^2 / 2.
    * d = 1: let q be the last right singular vector, Q its unit Hermitian
      matrix, r = ||A q|| and sigma+ <= min ||A x|| over unit x orthogonal
      to q, and gamma = g(Q) = dist_F(Q, V).  A unit P in V is a q + p with
      p orthogonal to q; V is a cone with V = -V, and g is 1-Lipschitz, so
      |a| gamma = g(a Q) <= g(P) + ||p|| = ||p||, and ||A(P)|| >= sigma+ ||p||
      - |a| r >= ||p|| (sigma+ - r / gamma) with ||p||^2 >= gamma^2 / (1 +
      gamma^2).  So sigma+ gamma > r proves K and V apart, and a0 >=
      (sigma+ - r / gamma)^2 gamma^2 / (2 (1 + gamma^2)).

    sigma_min, sigma+ and gamma enter as lower bounds and r as an upper
    bound.  The rows of A are the unit-scaled vectors, so the bound is
    multiplied by min_k ||f_k||^4 over the nonzero vectors to bound the
    frame's own a0.
    """
    n = fr.n
    U, short, e = _unit_rows(fr.vectors)
    if not len(U):
        return LiftedCertificate(kernel_dim=n * n, proved=False, a0_lower=0.0)
    A = _lift(U)
    # all n^2 right singular vectors, also where m < n^2
    _, s, Vt = np.linalg.svd(A, full_matrices=len(A) < n * n)
    eps = np.finfo(float).eps
    slack = SVD_SLACK * max(A.shape) * eps * s[0]
    # the singular values of A as a map on the n^2 coordinates
    sigma = np.zeros(n * n)
    sigma[:len(s)] = s
    kernel_dim = int(np.count_nonzero(sigma <= slack))
    proved, bound = kernel_dim == 0, 0.0
    if proved:
        bound = (sigma[-1] - slack) ** 2 / 2.0
    elif kernel_dim == 1:
        q = Vt[-1] / np.linalg.norm(Vt[-1])
        sigma_plus = sigma[-2] - slack
        r = float(np.linalg.norm(A @ q)) + slack
        gamma = _distance_to_v(np.linalg.eigvalsh(_hermitian(q, n))) - EIG_SLACK * n * eps
        proved = sigma_plus * gamma > r
        if proved:
            bound = (sigma_plus - r / gamma) ** 2 * gamma ** 2 / (2.0 * (1.0 + gamma ** 2))
    with np.errstate(over="ignore"):
        a0_lower = float(np.ldexp(bound * short ** 4, 4 * e))
    return LiftedCertificate(kernel_dim=kernel_dim, proved=bool(proved), a0_lower=a0_lower)
