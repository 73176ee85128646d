"""The lifted map A(Q)_k = f_k* Q f_k and the certificate built on it:
its coordinates agree with the separation inequality, it never proves a
frame with a planted pair, its bound stays below the margin, and its
answer survives every change of the frame that keeps retrievability."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecert import (
    BodmannHammenParams,
    ComplexFrame,
    bodmann_hammen,
    certify_complex,
    lifted_certificate,
    lifted_map,
    random_frame,
    separation_sides,
    trivial_non_retrievable,
)
from framecert import lifted as lifted_module

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def complex_gaussian(rng, rows, n):
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


def unitary(rng, n):
    return np.linalg.qr(complex_gaussian(rng, n, n))[0]


def bh(n, variant="two_pi"):
    return bodmann_hammen(BodmannHammenParams(n=n, angle_variant=variant))


def coordinates(Q):
    """The coordinates of a Hermitian Q in the basis of ``lifted_map``."""
    j, l = np.triu_indices(Q.shape[0], 1)
    return np.concatenate((Q.diagonal().real, np.sqrt(2.0) * Q[j, l].real,
                           np.sqrt(2.0) * Q[j, l].imag))


def planted_frame(rng, n, m):
    """m vectors with |<e_1, f_k>| = |<e_2, f_k>|, turned by a random
    unitary and scaled by 1e-2..1e2: the pair T e_1, T e_2 has equal
    magnitudes, so the frame is not retrievable."""
    F = complex_gaussian(rng, m, n)
    F[:, 1] = np.abs(F[:, 0]) * np.exp(2j * np.pi * rng.random(m))
    F *= 10.0 ** rng.uniform(-2.0, 2.0, size=(m, 1))
    return ComplexFrame.from_vectors(F @ unitary(rng, n).T)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=5), m=st.integers(min_value=1, max_value=20),
       seed=SEEDS)
def test_lifted_map_gives_both_sides_of_the_separation_inequality(n, m, seed):
    rng = np.random.default_rng(seed)
    F = complex_gaussian(rng, m, n)
    U = F / np.linalg.norm(F, axis=1, keepdims=True)
    A = lifted_map(F)
    assert A.shape == (m, n * n)
    np.testing.assert_allclose(np.linalg.norm(A, axis=1), 1.0, rtol=1e-12)
    X, Y = complex_gaussian(rng, 4, n), complex_gaussian(rng, 4, n)
    left, factor = separation_sides(ComplexFrame.from_vectors(U), X, Y)
    for x, y, lhs, rhs in zip(X, Y, left, factor):
        Q = np.outer(x, x.conj()) - np.outer(y, y.conj())
        q = coordinates(Q)
        np.testing.assert_allclose(lifted_module._hermitian(q, n), Q, atol=1e-12)
        assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(Q), rel=1e-12)
        assert np.sum((A @ q) ** 2) == pytest.approx(lhs, rel=1e-9, abs=1e-12)
        assert np.abs(np.linalg.eigvalsh(Q)).sum() ** 2 == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_lifted_map_drops_zero_vectors():
    F = np.array([[1.0, 1j], [0.0, 0.0], [2.0, 0.0]])
    np.testing.assert_array_equal(lifted_map(F), lifted_map(F[[0, 2]]))
    assert lifted_map(np.zeros((2, 3))).shape == (0, 9)


@pytest.mark.parametrize("n, m, seed", [(3, 8, 0), (3, 9, 0), (4, 15, 1), (4, 16, 1)])
def test_kernel_matrix_is_measured_to_zero_exactly_where_kernel_dim_is_one(n, m, seed):
    fr = random_frame(n, m, seed=seed)
    A = lifted_map(fr.vectors)
    q = np.linalg.svd(A)[2][-1]
    Q = lifted_module._hermitian(q, n)
    # f_k* Q f_k from the matrix itself, over ||f_k||^2
    direct = np.einsum("kj,jl,kl->k", fr.vectors.conj(), Q, fr.vectors).real
    direct /= np.linalg.norm(fr.vectors, axis=1) ** 2
    np.testing.assert_allclose(direct, A @ q, atol=1e-13)
    cert = lifted_certificate(fr)
    assert cert.kernel_dim == n * n - m if m < n * n else cert.kernel_dim == 0
    if cert.kernel_dim == 1:
        assert np.linalg.norm(direct) <= 1e-13
    else:
        assert np.linalg.norm(direct) >= 1e-6
    assert cert.proved


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(3, 8), (3, 9), (4, 15)]), seed=SEEDS)
def test_a_frame_with_a_planted_pair_is_never_proved(shape, seed):
    cert = lifted_certificate(planted_frame(np.random.default_rng(seed), *shape))
    assert not cert.proved
    assert cert.a0_lower == 0.0
    assert cert.kernel_dim >= 1


@pytest.mark.parametrize("fr", [random_frame(3, 7, seed=2), random_frame(5, 15, seed=3),
                                trivial_non_retrievable(3, 10), bh(4), bh(5, "verbatim"),
                                random_frame(2, 3, seed=0)],
                         ids=["r3m7", "r5m15", "trivial3", "bh4", "bh5-verbatim", "r2m3"])
def test_the_certificate_refuses_what_it_cannot_prove(fr):
    cert = lifted_certificate(fr)
    assert cert.kernel_dim >= 2 or (fr.n == 2 and cert.kernel_dim == 1)
    assert not cert.proved and cert.a0_lower == 0.0


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from([(3, 8), (3, 9), (4, 15), (4, 16)]), seed=SEEDS)
def test_a0_lower_is_below_the_searched_margin(shape, seed):
    n, m = shape
    rng = np.random.default_rng(seed)
    F = complex_gaussian(rng, m, n) * 10.0 ** rng.uniform(-1.0, 1.0, size=(m, 1))
    fr = ComplexFrame.from_vectors(F)
    cert = lifted_certificate(fr)
    report = certify_complex(fr, starts=64, seed=seed % 1000)
    assert cert.proved
    assert cert.a0_lower <= report.a0


def c2_margin_is_at_least(F, bound):
    """Whether the margin of the frame F in C^2 is at least ``bound``, in
    exact rational arithmetic on the float entries.  There a0 is the
    smallest eigenvalue of G / 4, G = C^T C - (C^T a)(a^T C) / a^T a, with
    a_k = ||f_k||^2 and C the m x 3 matrix of Stokes vectors: C is sqrt(2)
    times the traceless block of ``lifted._c2_margins``, with its columns
    permuted and one negated, so a0 >= bound exactly when G - 4 bound I is
    positive semidefinite: when all seven of its principal minors are
    nonnegative."""
    a, C = [], []
    for alpha, beta in F:
        x, y, u, v = (Fraction(float(t)) for t in (alpha.real, alpha.imag, beta.real, beta.imag))
        a.append(x * x + y * y + u * u + v * v)
        C.append((2 * (x * u + y * v), 2 * (x * v - y * u), x * x + y * y - u * u - v * v))
    aa = sum(t * t for t in a)
    aC = [sum(a[k] * C[k][i] for k in range(len(a))) for i in range(3)]
    G = [[sum(row[i] * row[j] for row in C) - aC[i] * aC[j] / aa
          - (4 * Fraction(bound) if i == j else 0) for j in range(3)] for i in range(3)]
    minors = [G[i][i] for i in range(3)]
    minors += [G[i][i] * G[j][j] - G[i][j] * G[j][i] for i, j in ((0, 1), (0, 2), (1, 2))]
    minors.append(G[0][0] * (G[1][1] * G[2][2] - G[1][2] * G[2][1])
                  - G[0][1] * (G[1][0] * G[2][2] - G[1][2] * G[2][0])
                  + G[0][2] * (G[1][0] * G[2][1] - G[1][1] * G[2][0]))
    return all(t >= 0 for t in minors)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(min_value=4, max_value=12), seed=SEEDS)
def test_a0_lower_is_below_the_margin_in_c2_in_exact_arithmetic(m, seed):
    # lengths spread over 10^+-3: the bound lies below the margin formed
    # exactly and below the closed form's own, which is exact to rounding
    rng = np.random.default_rng(seed)
    F = complex_gaussian(rng, m, 2) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    cert = lifted_certificate(ComplexFrame.from_vectors(F))
    assert cert.kernel_dim == 0 and cert.proved
    assert c2_margin_is_at_least(F, cert.a0_lower)
    assert cert.a0_lower <= certify_complex(ComplexFrame.from_vectors(F)).a0
    # the exact test is tight: on the vectors scaled to unit length it
    # refuses 1.01 times the closed form
    G = F / np.linalg.norm(F, axis=1, keepdims=True)
    assert not c2_margin_is_at_least(G, 1.01 * certify_complex(ComplexFrame.from_vectors(G)).a0)


def test_the_closed_form_in_c2_is_bracketed_by_the_exact_margin():
    # lengths spread over 10^+-1 and over 10^+-3: on each of these 300
    # frames a relative 1e-12 holds on both sides, small margins included
    for spread in (1.0, 3.0):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(4, 13))
            F = complex_gaussian(rng, m, 2) * 10.0 ** rng.uniform(-spread, spread, size=(m, 1))
            a0 = certify_complex(ComplexFrame.from_vectors(F)).a0
            assert c2_margin_is_at_least(F, a0 * (1.0 - 1e-12)), (spread, seed)
            assert not c2_margin_is_at_least(F, a0 * (1.0 + 1e-12)), (spread, seed)


@pytest.mark.parametrize("fr", [bh(2), bh(3), bh(3, "verbatim"), random_frame(3, 8, seed=1),
                                random_frame(4, 15, seed=0)],
                         ids=["bh2", "bh3", "bh3-verbatim", "r3m8", "r4m15"])
def test_a0_lower_on_reference_frames(fr):
    cert = lifted_certificate(fr)
    assert cert.proved and 0.0 < cert.a0_lower <= certify_complex(fr, starts=64).a0
    # a power-of-two scale is exact: the bound scales by its fourth power
    for k in (-300, -5, 5, 70):
        scaled = lifted_certificate(ComplexFrame.from_vectors(np.ldexp(fr.vectors.real, k)
                                                              + 1j * np.ldexp(fr.vectors.imag, k)))
        assert scaled.proved
        assert scaled.a0_lower == np.ldexp(cert.a0_lower, 4 * k)
    huge = lifted_certificate(ComplexFrame.from_vectors(1e100 * fr.vectors))
    assert huge.proved and huge.a0_lower == np.inf


# the frames whose certificate must survive every change below, drawn from rng
BASES = {
    **{f"random-{n}-{m}": (lambda rng, n=n, m=m: complex_gaussian(rng, m, n))
       for n, m in [(3, 7), (3, 8), (3, 9), (4, 12), (4, 15), (4, 16)]},
    **{f"planted-{n}-{m}": (lambda rng, n=n, m=m: planted_frame(rng, n, m).vectors)
       for n, m in [(3, 8), (4, 15)]},
    "bh3": lambda rng: bh(3).vectors,
    "bh3-verbatim": lambda rng: bh(3, "verbatim").vectors,
}


@settings(max_examples=80, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), seed=SEEDS)
def test_proved_survives_every_change_that_keeps_retrievability(base, seed):
    rng = np.random.default_rng(seed)
    F = BASES[base](rng)
    m, n = F.shape
    proved = lifted_certificate(ComplexFrame.from_vectors(F)).proved
    variants = {
        "scaled": F * 10.0 ** rng.uniform(-10.0, 10.0, size=(m, 1)),
        "unitary": F @ unitary(rng, n).T,
        "unimodular": F * np.exp(2j * np.pi * rng.random((m, 1))),
        "permuted": F[rng.permutation(m)],
        "duplicated": np.concatenate((F, F[rng.integers(0, m, size=3)])),
        "zero-row": np.concatenate((F, np.zeros((1, n)))),
    }
    for name, G in variants.items():
        assert lifted_certificate(ComplexFrame.from_vectors(G)).proved == proved, name


@settings(max_examples=300, deadline=None)
@given(start=st.floats(min_value=0.0, max_value=2.0 * np.pi),
       weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5))
def test_bh3_with_its_moment_points_anywhere_on_the_circle_is_proved(start, weights):
    # five points on the circle whose gaps, wrapping round, are all >= 0.05
    w = np.array(weights) + 1e-3
    gaps = 0.05 + (2.0 * np.pi - 5 * 0.05) * w / w.sum()
    t = start + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    # the construction's circle, a = 1 and N = 2n - 1 = 5
    N, a = 5, 1.0
    radius = np.sin(np.pi / N) / np.sin(a)
    center = np.exp(1j * (np.pi / N - a / 2.0)) * np.sin(np.pi / N - a / 2.0) / np.sin(a)
    z = radius * np.exp(1j * t) - center
    F = np.concatenate((bh(3).vectors[:3], z[:, None] ** np.arange(3)))
    cert = lifted_certificate(ComplexFrame.from_vectors(F))
    assert cert.kernel_dim == 1 and cert.proved
