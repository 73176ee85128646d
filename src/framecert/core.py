"""Linear-algebra core for finite frames in C^n and their real lifts.

A frame here is a finite family f_1, ..., f_m of vectors spanning C^n.  Phase
retrieval asks when the magnitudes |<x, f_k>| determine x up to a unimodular
scalar.  Every spectral question about that map is posed in the realified
picture: C^n is identified with R^{2n} through ``realify``, and multiplication
by i becomes the orthogonal matrix returned by ``j_matrix``.

Conventions used throughout the package:

* inner products are linear in the first argument, <x, y> = sum_j x_j conj(y_j)
* rank decisions treat a singular value as zero when it is at most
  ``RANK_RTOL`` times the largest singular value
* only Hermitian / real-symmetric eigensolvers are used, never a general one

All functions are pure and share no mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FramecertError

__all__ = [
    "RANK_RTOL",
    "COND_CAP",
    "ComplexFrame",
    "RealifiedFrame",
    "FrameOperatorSummary",
    "j_matrix",
    "realify",
    "unrealify",
    "rank_by_svd",
    "build_phi",
    "gradient_rows",
    "r_matrices",
    "r_matrix",
    "l_matrix",
    "frame_bounds",
    "gram_squared",
    "transform_frame",
    "canonical_dual",
    "parseval_version",
]

# A singular value counts as zero when it is <= RANK_RTOL * largest.
RANK_RTOL = 1e-9

# Condition-number cap for the transforms and frame operators that are
# inverted.
COND_CAP = 1e12


def _checked(name: str, value: int, least: int) -> int:
    """``value`` as a Python int; refuse one below ``least``, naming it: a
    count of starts, iterations, trials or samples that leaves nothing to
    do, or a seed that numpy's generators do not take."""
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def j_matrix(n: int) -> np.ndarray:
    """Return the 2n x 2n block matrix [[0, -I], [I, 0]].

    Acting on realified vectors it implements multiplication by i:
    ``j_matrix(n) @ realify(x) == realify(1j * x)``.  It is orthogonal and
    squares to minus the identity.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def realify(x: np.ndarray) -> np.ndarray:
    """Map a complex n-vector to the real 2n-vector of its parts.

    The map stacks real parts over imaginary parts.  It is an isometry for
    the real inner product: <realify(x), realify(y)> = Re <x, y>.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return np.concatenate([x.real, x.imag])


def unrealify(xi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify`: rebuild the complex n-vector."""
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    if xi.size % 2 != 0:
        raise ValueError(f"realified vector must have even length, got {xi.size}")
    n = xi.size // 2
    return xi[:n] + 1j * xi[n:]


def rank_by_svd(mat: np.ndarray) -> int | np.ndarray:
    """Numerical rank: number of singular values above RANK_RTOL * largest;
    an array of ranks, from one batched SVD, for a stack (..., rows, cols)."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = (sv > RANK_RTOL * sv[..., :1]).sum(axis=-1)
    return int(rank) if mat.ndim == 2 else rank


@dataclass(frozen=True)
class ComplexFrame:
    """An ordered family of m vectors in C^n, stored as the rows of a
    read-only (m, n) complex array, whose shape gives ``m`` and ``n``.

    ``field`` records whether the family is declared real (all imaginary
    parts exactly zero) or genuinely complex; the real label is validated at
    construction, and without one the label follows the dtype: complex for
    a complex array, whatever its values, and real otherwise.  The family
    is not required to span C^n; ``is_frame`` reports whether it does,
    using the package-wide rank threshold.
    """

    vectors: np.ndarray
    field: str | None = None

    def __post_init__(self) -> None:
        if self.field is None:
            object.__setattr__(self, "field",
                               "complex" if np.iscomplexobj(self.vectors) else "real")
        vecs = np.asarray(self.vectors, dtype=np.complex128)
        if vecs.ndim != 2:
            raise ValueError(f"vectors must be 2-dimensional, got shape {vecs.shape}")
        if vecs.size == 0:
            raise ValueError(f"need m >= 1 and n >= 1, got m={vecs.shape[0]}, n={vecs.shape[1]}")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("vectors must have finite entries")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.field == "real" and np.any(vecs.imag != 0.0):
            raise ValueError("field is 'real' but some entry has a nonzero imaginary part")
        vecs = vecs.copy()
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @classmethod
    def from_vectors(cls, vectors, field: str | None = None) -> "ComplexFrame":
        """The constructor under the name most callers use."""
        return cls(vectors, field)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def is_frame(self) -> bool:
        """True when the family spans C^n (numerical rank equals n)."""
        return rank_by_svd(self.vectors) == self.n


@dataclass(frozen=True)
class RealifiedFrame:
    """Realified data for a frame: the lifted vectors phi_k = realify(f_k),
    their images Jphi_k = J phi_k = realify(i f_k), and the
    multiplication-by-i matrix J.

    phi and Jphi have shape (m, 2n), J has shape (2n, 2n).  The lifted
    measurement forms Phi_k = build_phi(f_k) are never stored: they act as
    Phi_k xi = (phi_k . xi) phi_k + (Jphi_k . xi) Jphi_k, which is how
    ``gradient_rows`` applies them, so the data take O(m n) memory.
    """

    phi: np.ndarray
    Jphi: np.ndarray
    J: np.ndarray

    @classmethod
    def from_frame(cls, fr: ComplexFrame) -> "RealifiedFrame":
        J = j_matrix(fr.n)
        V = fr.vectors
        phi = np.concatenate([V.real, V.imag], axis=1)
        Jphi = np.concatenate([-V.imag, V.real], axis=1)
        for arr in (phi, Jphi, J):
            arr.setflags(write=False)
        return cls(phi=phi, Jphi=Jphi, J=J)

    @property
    def two_n(self) -> int:
        return self.phi.shape[1]


def build_phi(f: np.ndarray) -> np.ndarray:
    """Lifted measurement form of a single vector f in C^n.

    Returns the symmetric PSD matrix ``phi phi^T + (J phi)(J phi)^T`` with
    phi = realify(f).  Its quadratic form at realify(x) equals |<x, f>|^2,
    its trace is 2 ||f||^2, its rank is at most 2, and it commutes with J.
    """
    phi = realify(f)
    n = phi.size // 2
    Jphi = j_matrix(n) @ phi
    return np.outer(phi, phi) + np.outer(Jphi, Jphi)


def gradient_rows(rf: RealifiedFrame, X: np.ndarray) -> np.ndarray:
    """The vectors Phi_k xi for every row xi of X, shape (..., m, 2n).

    Phi_k xi = a_k phi_k + b_k Jphi_k with a_k = phi_k . xi and
    b_k = Jphi_k . xi, which is realify(<x, f_k> f_k) for xi = realify(x).
    X may be one direction of shape (2n,) or any stack (..., 2n).
    """
    X = np.asarray(X, dtype=np.float64)
    a = X @ rf.phi.T
    b = X @ rf.Jphi.T
    return a[..., :, None] * rf.phi + b[..., :, None] * rf.Jphi


def r_matrices(rf: RealifiedFrame, X: np.ndarray) -> np.ndarray:
    """``r_matrix`` at every row xi of X in one batched product: the Gram
    matrices B^T B of the rows B = gradient_rows(rf, xi), shape
    (..., 2n, 2n)."""
    B = gradient_rows(rf, X)
    return np.swapaxes(B, -1, -2) @ B


def r_matrix(rf: RealifiedFrame, xi: np.ndarray) -> np.ndarray:
    """Gram matrix of the vectors Phi_k xi, a (2n, 2n) symmetric PSD matrix.

    Up to a factor 4 this is the Gram matrix of the gradients of the
    squared-magnitude measurement map at xi, so its rank measures local
    injectivity.  The phase direction J xi is always in its kernel; the
    frame is phase retrievable exactly when, for every nonzero xi, nothing
    else is, i.e. when the second-smallest eigenvalue stays positive.

    Quadratic in xi: r_matrix(rf, c * xi) == c**2 * r_matrix(rf, xi).
    """
    xi = np.asarray(xi, dtype=np.float64).reshape(-1)
    return r_matrices(rf, xi)


def l_matrix(rf: RealifiedFrame, X: np.ndarray) -> np.ndarray:
    """r_matrix plus the rank-one completion (J xi)(J xi)^T in the phase
    direction, for one direction xi of shape (2n,) or at every row of a
    stack X of shape (..., 2n), as in ``gradient_rows``.

    For a phase retrievable frame with injectivity margin a0 this matrix is
    bounded below by min(1, a0) * ||xi||^2 on the whole space.
    """
    X = np.asarray(X, dtype=np.float64)
    JX = X @ rf.J.T
    return r_matrices(rf, X) + JX[..., :, None] * JX[..., None, :]


@dataclass(frozen=True)
class FrameOperatorSummary:
    """Frame operator S = sum_k f_k f_k* with its extreme eigenvalues.

    A is the lower frame bound (smallest eigenvalue, clamped at 0), B the
    upper frame bound (largest eigenvalue).  A > 0 exactly when the family
    spans, up to the rank threshold.
    """

    S: np.ndarray
    A: float
    B: float


def frame_bounds(fr: ComplexFrame) -> FrameOperatorSummary:
    """Frame operator and optimal frame bounds of the family."""
    V = fr.vectors
    S = V.T @ V.conj()
    w = np.linalg.eigvalsh(S)
    S.setflags(write=False)
    return FrameOperatorSummary(S=S, A=float(max(w[0], 0.0)), B=float(max(w[-1], 0.0)))


def gram_squared(fr: ComplexFrame) -> np.ndarray:
    """Entrywise squared-magnitude Gram matrix, G[k, l] = |<f_k, f_l>|^2.

    Real symmetric with nonnegative entries; diagonal entries are ||f_k||^4.
    Invariant under per-vector unimodular scalings and a common unitary.
    """
    V = fr.vectors
    G = V @ V.conj().T
    return np.abs(G) ** 2


def transform_frame(fr: ComplexFrame, T: np.ndarray, z: np.ndarray) -> ComplexFrame:
    """Apply g_k = z_k * (T f_k) with invertible T and nonzero scalars z_k.

    Phase retrievability is preserved by such transforms, which is what
    makes them useful for moving certificates between equivalent frames.

    Raises FramecertError when the condition number of T exceeds COND_CAP
    (or is not finite), or when some z_k is 0.
    """
    T = np.asarray(T, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if T.shape != (fr.n, fr.n):
        raise ValueError(f"T must have shape ({fr.n}, {fr.n}), got {T.shape}")
    if z.size != fr.m:
        raise ValueError(f"need one scalar per vector, got {z.size} for m={fr.m}")
    if np.any(z == 0):
        raise FramecertError("all scalars z_k must be nonzero")
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise FramecertError(
            f"transform condition number {cond:g} exceeds cap {COND_CAP:g}"
        )
    out = fr.vectors @ T.T * z[:, None]
    return ComplexFrame.from_vectors(out)


def _checked_frame_operator(fr: ComplexFrame) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the frame operator S.

    Raises FramecertError when the family does not span, or when S has a
    condition number of at least COND_CAP.
    """
    if not fr.is_frame:
        raise FramecertError("the family does not span")
    w, U = np.linalg.eigh(frame_bounds(fr).S)
    if w[0] <= w[-1] / COND_CAP:
        cond = w[-1] / w[0] if w[0] > 0.0 else np.inf
        raise FramecertError(
            f"frame operator condition number {cond:g} exceeds cap {COND_CAP:g}"
        )
    return w, U


def canonical_dual(fr: ComplexFrame) -> ComplexFrame:
    """Canonical dual frame S^{-1} f_k.

    The dual of the dual is the original frame; duality inverts the frame
    bounds to (1/B, 1/A).
    """
    w, U = _checked_frame_operator(fr)
    Sinv = (U / w) @ U.conj().T
    out = fr.vectors @ Sinv.T
    return ComplexFrame.from_vectors(out)


def parseval_version(fr: ComplexFrame) -> ComplexFrame:
    """Closest Parseval frame S^{-1/2} f_k; its frame bounds are both 1."""
    w, U = _checked_frame_operator(fr)
    Sinvhalf = (U / np.sqrt(w)) @ U.conj().T
    out = fr.vectors @ Sinvhalf.T
    return ComplexFrame.from_vectors(out)
