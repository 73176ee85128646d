"""Named frame families and continuous paths between frames.

``bodmann_hammen`` builds the 4n-4 vector family (a union of 2n-3 root-of-
unity rows and 2n-1 moment vectors of points on a circle in C); the circle
offset angle must avoid a finite set of rational multiples of pi.
``connect_frames`` joins two frames of equal shape by a two segment path
that is a frame at every instant.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import ComplexFrame, _checked, rank_by_svd
from .errors import FramecertError

__all__ = [
    "BodmannHammenParams",
    "FramePath",
    "ANGLE_DENY_TOL",
    "MAX_SUBSET_SCAN",
    "bodmann_hammen",
    "denied_angles",
    "r3_example",
    "trivial_non_retrievable",
    "random_frame",
    "connect_frames",
    "path_eval",
]

ANGLE_DENY_TOL = 1e-12
MAX_SUBSET_SCAN = 100_000


@dataclass(frozen=True)
class BodmannHammenParams:
    """Parameters of the 4n-4 construction: ambient dimension n >= 2,
    circle offset angle a in (0, pi/2], and the convention used for the
    sample angles on the circle.

    ``angle_variant`` "two_pi" places the 2n-1 samples at 2 pi (k-1)/(2n-1),
    evenly around the circle; "verbatim" places them at (k-1)/(2n-1), a
    narrow arc.  Both variants are faithful readings of the published
    angles; two_pi is the default because it certifies with a far larger
    margin.
    """

    n: int
    a: float = 1.0
    angle_variant: str = dc_field(default="two_pi")

    def __post_init__(self) -> None:
        if self.n < 2:
            raise FramecertError(f"construction needs n >= 2, got n={self.n}")
        if not 0.0 < self.a <= np.pi / 2.0:
            raise ValueError(f"angle a must lie in (0, pi/2], got {self.a}")
        if self.angle_variant not in ("two_pi", "verbatim"):
            raise ValueError(
                f"angle_variant must be 'two_pi' or 'verbatim', got {self.angle_variant!r}"
            )


def denied_angles(n: int) -> list[float]:
    """Angles pi p/q with 1 <= q <= 2(n-1) and 0 <= p <= 2q, where the
    construction's genericity argument breaks down."""
    out = set()
    for q in range(1, 2 * (n - 1) + 1):
        for p in range(0, 2 * q + 1):
            out.add(np.pi * p / q)
    return sorted(out)


def bodmann_hammen(params: BodmannHammenParams, strict: bool = False) -> ComplexFrame:
    """Frame of 4n-4 vectors in C^n.

    Block one: 2n-3 rows (e^(2 pi i (k+1) j / (2n-1)))_j, k = 1 .. 2n-3.
    Block two: 2n-1 moment vectors (1, z_k, ..., z_k^(n-1)) of

        z_k = sin(pi/N)/sin(a) e^(i theta_k)
              - e^(i (pi/N - a/2)) sin(pi/N - a/2) / sin(a),  N = 2n-1,

    with theta_k set by the angle variant.  When a falls within
    ANGLE_DENY_TOL of a denied angle the function warns, or raises
    FramecertError when strict.
    """
    n = params.n
    if any(abs(params.a - bad) <= ANGLE_DENY_TOL for bad in denied_angles(n)):
        msg = f"angle a={params.a} is a denied rational multiple of pi for n={n}"
        if strict:
            raise FramecertError(msg)
        warnings.warn(msg, stacklevel=2)
    N = 2 * n - 1
    j = np.arange(n)
    block_one = [np.exp(2j * np.pi * (k + 1) * j / N) for k in range(1, 2 * n - 2)]
    radius = np.sin(np.pi / N) / np.sin(params.a)
    center = (np.exp(1j * (np.pi / N - params.a / 2.0))
              * np.sin(np.pi / N - params.a / 2.0) / np.sin(params.a))
    block_two = []
    for k in range(1, N + 1):
        theta = (k - 1) / N
        if params.angle_variant == "two_pi":
            theta *= 2.0 * np.pi
        z = radius * np.exp(1j * theta) - center
        block_two.append(z ** j)
    return ComplexFrame.from_vectors(np.array(block_one + block_two), field="complex")


def r3_example() -> ComplexFrame:
    """Six vectors in R^3 satisfying the complement property: the standard
    basis plus the three sums of basis pairs."""
    vectors = np.array([
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 1, 0],
        [1, 0, 1],
        [0, 1, 1],
    ], dtype=np.complex128)
    return ComplexFrame.from_vectors(vectors, field="real")


def trivial_non_retrievable(n: int, m: int) -> ComplexFrame:
    """The standard basis of C^n padded with m - n repetitions of the last
    basis vector: a frame with bounds A = 1, B = m - n + 1 that is never
    phase retrievable for n >= 2 (all mass repeats one coordinate, so the
    relative phase between coordinates is invisible)."""
    if not m >= n >= 2:
        raise FramecertError(f"need m >= n >= 2, got n={n}, m={m}")
    vectors = np.zeros((m, n), dtype=np.complex128)
    for i in range(n):
        vectors[i, i] = 1.0
    vectors[n:, n - 1] = 1.0
    return ComplexFrame.from_vectors(vectors, field="complex")


def random_frame(n: int, m: int, seed: int = 42) -> ComplexFrame:
    """Frame of m standard complex Gaussian vectors in C^n, entries
    (g + i g') / sqrt(2), from one draw.  For m >= n the draw spans with
    probability one; one that does not, as always for m < n, raises
    FramecertError, so no non-frame is returned.
    """
    if n < 1 or m < 1:
        raise FramecertError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(_checked("seed", seed, 0))
    vectors = (rng.standard_normal((m, n))
               + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    if rank_by_svd(vectors) < n:
        raise FramecertError(f"the m={m} drawn vectors do not span C^{n}")
    return ComplexFrame.from_vectors(vectors, field="complex")


@dataclass(frozen=True)
class FramePath:
    """Two segment path between frames of equal shape.

    ``index_set`` holds the n anchor positions whose start vectors stay
    fixed during the first segment; ``complement`` holds the rest, whose
    end vectors stay fixed during the second.  Start and end vectors are
    matched by position.
    """

    start: ComplexFrame
    end: ComplexFrame
    index_set: tuple[int, ...]
    complement: tuple[int, ...]


def connect_frames(start: ComplexFrame, end: ComplexFrame) -> FramePath:
    """Build a path t in [-1, 1] from ``start`` to ``end`` that is a frame
    at every t.

    Needs an n-subset I of positions where the start vectors are linearly
    independent and the end vectors at the complementary positions span.
    During the first segment the I block is pinned (it spans on its own)
    while the rest slide toward their end vectors; during the second the
    complementary block is pinned while the I block slides.  Scans
    n-subsets in lexicographic order and raises FramecertError after
    MAX_SUBSET_SCAN candidates or when none works; such a subset always
    exists when both families are generic, but not for every pair of
    frames.
    """
    if start.n != end.n or start.m != end.m:
        raise FramecertError(
            f"frames differ in shape: ({start.m}, {start.n}) vs ({end.m}, {end.n})"
        )
    n, m = start.n, start.m
    if m < 2 * n:
        raise FramecertError(f"path construction needs m >= 2n, got m={m}, n={n}")
    if not start.is_frame:
        raise FramecertError("start family does not span")
    if not end.is_frame:
        raise FramecertError("end family does not span")
    scanned = 0
    for combo in itertools.combinations(range(m), n):
        scanned += 1
        if scanned > MAX_SUBSET_SCAN:
            raise FramecertError(
                f"no admissible anchor subset within {MAX_SUBSET_SCAN} candidates"
            )
        if rank_by_svd(start.vectors[list(combo)]) != n:
            continue
        rest = [i for i in range(m) if i not in combo]
        if rank_by_svd(end.vectors[rest]) != n:
            continue
        return FramePath(
            start=start,
            end=end,
            index_set=combo,
            complement=tuple(rest),
        )
    raise FramecertError(
        "no n-subset has independent start vectors and a spanning end complement"
    )


def path_eval(path: FramePath, t: float) -> ComplexFrame:
    """Evaluate the path at t in [-1, 1].

    First segment (-1 <= t <= 0): anchors keep their start vectors, the
    rest interpolate (-t) start + (t+1) end.  Second segment (0 < t <= 1):
    the complement keeps its end vectors, anchors interpolate (1-t) start
    + t end.  Endpoints reproduce the start and end families exactly, and
    every instant contains a spanning block by construction.
    """
    t = float(t)
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"path parameter must lie in [-1, 1], got {t}")
    f1 = path.start.vectors
    f2 = path.end.vectors
    out = np.empty_like(f1)
    anchors = list(path.index_set)
    rest = list(path.complement)
    if t <= 0.0:
        out[anchors] = f1[anchors]
        out[rest] = (-t) * f1[rest] + (t + 1.0) * f2[rest]
    else:
        out[rest] = f2[rest]
        out[anchors] = (1.0 - t) * f1[anchors] + t * f2[anchors]
    return ComplexFrame.from_vectors(out)
