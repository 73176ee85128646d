"""Independent checks of framecert's outputs.

Everything here is plain numpy written for the benchmark.  None of it calls
framecert's own checkers, so a defect there cannot hide a wrong answer.
"""

from __future__ import annotations

import numpy as np

# A singular value or eigenvalue counts as zero below this share of the largest.
ZERO_RTOL = 1e-9


def complex_pairs(seed: tuple[int, ...], count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs of standard complex Gaussian vectors in C^n."""
    rng = np.random.default_rng(list(seed))
    draw = lambda: (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) / np.sqrt(2.0)
    return draw(), draw()


def separation_violations(vectors: np.ndarray, a0: float, X: np.ndarray, Y: np.ndarray) -> int:
    """Pairs (x, y) that break the magnitude separation inequality

        sum_k (|<x, f_k>|^2 - |<y, f_k>|^2)^2
            >= a0 (||x - y||^2 ||x + y||^2 - 4 Im(<x, y>)^2)

    beyond an additive slack of 1e-9 (1 + |right factor|)."""
    mx = np.abs(X @ vectors.conj().T) ** 2
    my = np.abs(Y @ vectors.conj().T) ** 2
    left = np.sum((mx - my) ** 2, axis=1)
    inner = np.sum(X * Y.conj(), axis=1)
    factor = (np.linalg.norm(X - Y, axis=1) ** 2 * np.linalg.norm(X + Y, axis=1) ** 2
              - 4.0 * inner.imag ** 2)
    return int(np.count_nonzero(left < a0 * factor - 1e-9 * (1.0 + np.abs(factor))))


def gradient_gram(vectors: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """R(xi) = B^T B, where row k of B is the realified <x, f_k> f_k and x is
    the complex vector whose real and imaginary parts stack into xi."""
    n = vectors.shape[1]
    x = xi[:n] + 1j * xi[n:]
    rows = (vectors.conj() @ x)[:, None] * vectors
    B = np.concatenate([rows.real, rows.imag], axis=1)
    return B.T @ B


def kernel_dim(vectors: np.ndarray, xi: np.ndarray) -> int:
    """Number of eigenvalues of R(xi) at or below ZERO_RTOL times the largest."""
    w = np.linalg.eigvalsh(gradient_gram(vectors, xi))
    return int(np.count_nonzero(w <= ZERO_RTOL * max(w[-1], 0.0)))


def spans(rows: np.ndarray, n: int) -> bool:
    """Whether the rows span an n-dimensional space."""
    if rows.shape[0] < n:
        return False
    sv = np.linalg.svd(rows, compute_uv=False)
    return bool(sv[0] > 0.0 and np.count_nonzero(sv > ZERO_RTOL * sv[0]) == n)


def frame_bounds(vectors: np.ndarray) -> tuple[float, float]:
    """Lower and upper frame bounds: extreme eigenvalues of sum_k f_k f_k*."""
    w = np.linalg.eigvalsh(vectors.T @ vectors.conj())
    return max(float(w[0]), 0.0), max(float(w[-1]), 0.0)


def ray_distance(x: np.ndarray, y: np.ndarray) -> float:
    """min over unimodular c of ||x - c y||."""
    gap = np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2 - 2.0 * abs(np.vdot(y, x))
    return float(np.sqrt(max(gap, 0.0)))


def close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def hmw_bounds(n: int) -> dict:
    """Cardinality bounds for phase retrieval in C^n: 4n - 2 - 2b plus 2
    (n odd, b = 3 mod 4) or 1 (n odd, b = 2 mod 4), b = popcount(n - 1)."""
    b = bin(n - 1).count("1")
    correction = {3: 2, 2: 1}.get(b % 4, 0) if n % 2 else 0
    return {"n": n, "hmw_lower": 4 * n - 2 - 2 * b + correction, "two_n": 2 * n,
            "conjectured_critical": 4 * n - 4, "generic_upper": 4 * n - 2}
