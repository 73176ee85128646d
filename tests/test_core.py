"""Realification machinery, frame bounds, and outer-product algebra."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from framecert import (
    ComplexFrame,
    FramecertError,
    RealifiedFrame,
    build_phi,
    canonical_dual,
    frame_bounds,
    gram_squared,
    j_matrix,
    l_matrix,
    parseval_version,
    r_matrix,
    rank_by_svd,
    separation_sides,
    realify,
    r3_example,
    transform_frame,
    trivial_non_retrievable,
    unrealify,
)


def random_complex(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def test_j_matrix_is_orthogonal_and_squares_to_minus_identity():
    for n in (1, 2, 5):
        J = j_matrix(n)
        np.testing.assert_array_equal(J.T @ J, np.eye(2 * n))
        np.testing.assert_array_equal(J @ J, -np.eye(2 * n))


def test_j_matrix_implements_multiplication_by_i():
    rng = np.random.default_rng(3)
    for n in (1, 3, 6):
        x = random_complex(rng, n)
        np.testing.assert_array_equal(j_matrix(n) @ realify(x), realify(1j * x))


def test_j_matrix_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        j_matrix(0)


def test_realify_is_isometric_for_the_real_inner_product():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = random_complex(rng, 4)
        y = random_complex(rng, 4)
        real_side = realify(x) @ realify(y)
        complex_side = np.sum(x * y.conj()).real
        assert abs(real_side - complex_side) < 1e-12


def test_unrealify_inverts_realify():
    rng = np.random.default_rng(5)
    x = random_complex(rng, 7)
    np.testing.assert_array_equal(unrealify(realify(x)), x)
    with pytest.raises(ValueError):
        unrealify(np.zeros(3))


def test_frame_field_inference_and_validation():
    real = ComplexFrame.from_vectors(np.eye(2))
    assert real.field == "real"
    comp = ComplexFrame.from_vectors(np.array([[1.0, 1j], [1j, 1.0]]))
    assert comp.field == "complex"
    # the label follows the dtype, not the values
    assert ComplexFrame.from_vectors(np.array([[1.0 + 0j]])).field == "complex"
    with pytest.raises(ValueError):
        ComplexFrame.from_vectors(np.array([[1.0, 1e-30j], [0, 1]]), field="real")
    with pytest.raises(ValueError):
        ComplexFrame.from_vectors(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(ValueError):
        ComplexFrame.from_vectors(np.zeros((2, 2)), field="rational")
    with pytest.raises(ValueError, match=r"vectors must be 2-dimensional, got shape \(3,\)"):
        ComplexFrame.from_vectors(np.ones(3))
    with pytest.raises(ValueError, match="need m >= 1 and n >= 1, got m=0, n=3"):
        ComplexFrame.from_vectors(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="need m >= 1 and n >= 1, got m=3, n=0"):
        ComplexFrame(np.zeros((3, 0)))


def test_frame_stores_only_its_vectors_and_label():
    assert [f.name for f in fields(ComplexFrame)] == ["vectors", "field"]
    with pytest.raises(TypeError):
        ComplexFrame(n=2, m=2, vectors=np.eye(2))
    # the constructor labels by dtype and reads m and n off the array
    real = ComplexFrame(np.ones((3, 2)))
    assert (real.field, real.m, real.n) == ("real", 3, 2)
    assert ComplexFrame(np.ones((3, 2), dtype=complex)).field == "complex"
    assert ComplexFrame(np.eye(2), "complex").field == "complex"


def test_frame_vectors_are_read_only():
    fr = ComplexFrame.from_vectors(np.eye(2))
    with pytest.raises(ValueError):
        fr.vectors[0, 0] = 5.0


def test_is_frame_detects_spanning():
    assert ComplexFrame.from_vectors(np.eye(3)).is_frame
    deficient = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=complex)
    assert not ComplexFrame.from_vectors(deficient).is_frame
    # a zero vector alone does not break the frame property
    padded = np.vstack([np.eye(3), np.zeros((1, 3))])
    assert ComplexFrame.from_vectors(padded).is_frame


def test_rank_by_svd_edge_cases():
    assert rank_by_svd(np.zeros((3, 3))) == 0
    assert rank_by_svd(np.empty((0, 3))) == 0
    assert rank_by_svd(np.eye(4)) == 4


def test_build_phi_quadratic_form_gives_squared_magnitudes():
    rng = np.random.default_rng(6)
    for _ in range(20):
        f = random_complex(rng, 3)
        x = random_complex(rng, 3)
        Phi = build_phi(f)
        xi = realify(x)
        quad = xi @ Phi @ xi
        target = abs(np.sum(x * f.conj())) ** 2
        assert abs(quad - target) < 1e-12 * (1.0 + target)


def test_build_phi_structure():
    rng = np.random.default_rng(7)
    f = random_complex(rng, 4)
    Phi = build_phi(f)
    n = 4
    np.testing.assert_allclose(Phi, Phi.T, atol=1e-14)
    w = np.linalg.eigvalsh(Phi)
    assert w[0] > -1e-12
    assert rank_by_svd(Phi) <= 2
    norm_sq = float(np.sum(np.abs(f) ** 2))
    assert abs(np.trace(Phi) - 2.0 * norm_sq) < 1e-12
    J = j_matrix(n)
    np.testing.assert_allclose(Phi @ J, J @ Phi, atol=1e-12)


def test_phi_pairing_identity():
    # <Phi_k j(x), j(y)> must equal Re(<x, f><f, y>)
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = random_complex(rng, 3)
        x = random_complex(rng, 3)
        y = random_complex(rng, 3)
        Phi = build_phi(f)
        left = realify(y) @ Phi @ realify(x)
        xf = np.sum(x * f.conj())
        fy = np.sum(f * y.conj())
        assert abs(left - (xf * fy).real) < 1e-12


def test_r_matrix_annihilates_the_phase_direction():
    rng = np.random.default_rng(9)
    fr = ComplexFrame.from_vectors(random_complex(rng, 3 * 6).reshape(6, 3))
    rf = RealifiedFrame.from_frame(fr)
    for _ in range(50):
        xi = rng.standard_normal(6)
        R = r_matrix(rf, xi)
        assert np.linalg.norm(R @ (rf.J @ xi)) < 1e-10 * (1.0 + np.linalg.norm(R))


def test_r_matrix_is_quadratic_in_xi_and_quartic_in_frame_scale():
    rng = np.random.default_rng(10)
    vecs = random_complex(rng, 2 * 4).reshape(4, 2)
    fr = ComplexFrame.from_vectors(vecs)
    rf = RealifiedFrame.from_frame(fr)
    xi = rng.standard_normal(4)
    R = r_matrix(rf, xi)
    np.testing.assert_allclose(r_matrix(rf, 2.5 * xi), 2.5**2 * R, rtol=1e-12)
    scaled = RealifiedFrame.from_frame(ComplexFrame.from_vectors(1.7 * vecs))
    np.testing.assert_allclose(r_matrix(scaled, xi), 1.7**4 * R, rtol=1e-12)


def test_l_matrix_completes_the_phase_direction():
    rng = np.random.default_rng(11)
    fr = ComplexFrame.from_vectors(random_complex(rng, 2 * 4).reshape(4, 2))
    rf = RealifiedFrame.from_frame(fr)
    xi = rng.standard_normal(4)
    xi /= np.linalg.norm(xi)
    L = l_matrix(rf, xi)
    Jxi = rf.J @ xi
    assert abs(Jxi @ L @ Jxi - 1.0) < 1e-10


def test_l_matrix_takes_a_stack_of_directions():
    rng = np.random.default_rng(13)
    rf = RealifiedFrame.from_frame(
        ComplexFrame.from_vectors(random_complex(rng, 5 * 3).reshape(5, 3)))
    X = rng.standard_normal((2, 4, 6))
    stacked = l_matrix(rf, X)
    assert stacked.shape == (2, 4, 6, 6)
    for i in range(2):
        for j in range(4):
            np.testing.assert_allclose(stacked[i, j], l_matrix(rf, X[i, j]),
                                       rtol=1e-12, atol=1e-14)


def sym_outer(u, v):
    """The symmetrized outer product (u v* + v u*) / 2, a Hermitian matrix
    of rank at most 2."""
    return (np.outer(u, v.conj()) + np.outer(v, u.conj())) / 2.0


def nuclear_norm(matrix):
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(matrix))))


def test_sym_outer_eigenvalue_signature_and_nuclear_norm():
    rng = np.random.default_rng(12)
    for _ in range(30):
        u = random_complex(rng, 4)
        v = random_complex(rng, 4)
        t = sym_outer(u, v)
        w = np.linalg.eigvalsh(t)
        # rank <= 2 with at most one eigenvalue of each sign
        assert np.sum(np.abs(w) > 1e-10) <= 2
        assert np.sum(w > 1e-10) <= 1
        nu = nuclear_norm(t)
        inner = np.sum(u * v.conj())
        closed = np.sqrt(
            np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2 - inner.imag**2
        )
        assert abs(nu - closed) < 1e-9 * (1.0 + closed)
        assert nu <= np.sqrt(2.0) * np.linalg.norm(u) * np.linalg.norm(v) + 1e-12


def test_sym_outer_of_difference_and_sum_represents_outer_gap():
    # x x* - y y* equals sym_outer(x - y, x + y); its squared nuclear norm
    # is ||x-y||^2 ||x+y||^2 - 4 Im(<x, y>)^2, the right factor of the
    # separation inequality
    rng = np.random.default_rng(13)
    fr = ComplexFrame.from_vectors(np.eye(3))
    for _ in range(20):
        x = random_complex(rng, 3)
        y = random_complex(rng, 3)
        gap = np.outer(x, x.conj()) - np.outer(y, y.conj())
        t = sym_outer(x - y, x + y)
        np.testing.assert_allclose(t, gap, atol=1e-12)
        inner = np.sum(x * y.conj())
        closed = (np.linalg.norm(x - y) ** 2 * np.linalg.norm(x + y) ** 2
                  - 4.0 * inner.imag**2)
        assert abs(nuclear_norm(t) ** 2 - closed) < 1e-9 * (1.0 + abs(closed))
        _, factor = separation_sides(fr, x[None, :], y[None, :])
        assert abs(nuclear_norm(t) ** 2 - factor[0]) < 1e-9 * (1.0 + abs(closed))


def test_frame_bounds_on_reference_families():
    r3 = r3_example()
    summary = frame_bounds(r3)
    np.testing.assert_array_equal(
        summary.S.real, np.array([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
    )
    assert abs(summary.A - 2.0) < 1e-12
    assert abs(summary.B - 5.0) < 1e-12
    triv = trivial_non_retrievable(3, 8)
    tb = frame_bounds(triv)
    assert abs(tb.A - 1.0) < 1e-12
    assert abs(tb.B - 6.0) < 1e-12


def test_frame_inequality_holds_with_optimal_bounds():
    rng = np.random.default_rng(14)
    fr = ComplexFrame.from_vectors(random_complex(rng, 3 * 7).reshape(7, 3))
    summary = frame_bounds(fr)
    for _ in range(50):
        x = random_complex(rng, 3)
        total = float(np.sum(np.abs(fr.vectors.conj() @ x) ** 2))
        nsq = float(np.linalg.norm(x) ** 2)
        assert summary.A * nsq - 1e-9 <= total <= summary.B * nsq + 1e-9


def test_gram_squared_reference_matrix():
    G2 = gram_squared(r3_example())
    expected = np.array([
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
        [1, 1, 0, 4, 1, 1],
        [1, 0, 1, 1, 4, 1],
        [0, 1, 1, 1, 1, 4],
    ], dtype=float)
    np.testing.assert_array_equal(G2, expected)


def test_gram_squared_invariances():
    rng = np.random.default_rng(15)
    fr = ComplexFrame.from_vectors(random_complex(rng, 2 * 5).reshape(5, 2))
    G2 = gram_squared(fr)
    # per-vector unimodular scaling
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))
    scaled = transform_frame(fr, np.eye(2, dtype=complex), phases)
    np.testing.assert_allclose(gram_squared(scaled), G2, atol=1e-12)
    # common unitary
    theta = 0.7
    Q = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    rotated = transform_frame(fr, Q, np.ones(5))
    np.testing.assert_allclose(gram_squared(rotated), G2, atol=1e-12)


def test_transform_frame_rejects_bad_inputs():
    fr = ComplexFrame.from_vectors(np.eye(2))
    with pytest.raises(FramecertError, match="all scalars z_k must be nonzero"):
        transform_frame(fr, np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(FramecertError, match="transform condition number .* exceeds cap 1e\\+12"):
        transform_frame(fr, np.array([[1, 0], [0, 0]]), np.ones(2))
    with pytest.raises(ValueError):
        transform_frame(fr, np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        transform_frame(fr, np.eye(2), np.ones(5))


def test_canonical_dual_reconstructs():
    rng = np.random.default_rng(16)
    fr = ComplexFrame.from_vectors(random_complex(rng, 3 * 6).reshape(6, 3))
    dual = canonical_dual(fr)
    x = random_complex(rng, 3)
    coeffs = dual.vectors.conj() @ x
    recon = coeffs @ fr.vectors
    np.testing.assert_allclose(recon, x, atol=1e-10)
    # duality inverts the bounds
    fb, db = frame_bounds(fr), frame_bounds(dual)
    assert abs(db.A - 1.0 / fb.B) < 1e-9
    assert abs(db.B - 1.0 / fb.A) < 1e-9


def test_parseval_version_is_parseval():
    rng = np.random.default_rng(17)
    fr = ComplexFrame.from_vectors(random_complex(rng, 2 * 5).reshape(5, 2))
    par = parseval_version(fr)
    summary = frame_bounds(par)
    assert abs(summary.A - 1.0) < 1e-10
    assert abs(summary.B - 1.0) < 1e-10


def test_dual_of_non_frame_is_refused():
    deficient = ComplexFrame.from_vectors(
        np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=complex)
    )
    with pytest.raises(FramecertError, match="the family does not span"):
        canonical_dual(deficient)
    with pytest.raises(FramecertError, match="the family does not span"):
        parseval_version(deficient)


def test_ill_conditioned_frame_operator_is_refused_with_its_condition_number():
    # the family spans, so it is a frame, but A/B = 7.5e-15 is past the cap
    fr = ComplexFrame.from_vectors(np.array([[1, 0], [0, 1e-7], [1, 1e-7]]))
    assert fr.is_frame
    message = "frame operator condition number 1.3333.e\\+14 exceeds cap 1e\\+12"
    for op in (canonical_dual, parseval_version):
        with pytest.raises(FramecertError, match=message) as info:
            op(fr)
        assert "does not span" not in str(info.value)
    # singular values down to 2e-9: the family spans, but about half of
    # these rotations give S a computed smallest eigenvalue <= 0
    rng = np.random.default_rng(0)
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        fr = ComplexFrame.from_vectors(
            np.array([[1, 0, 0], [0, 1, 0], [0, 0, 2e-9], [1, 1, 2e-9]]) @ Q)
        assert fr.is_frame
        with pytest.raises(FramecertError, match=r"number (inf|\d\S*) exceeds cap") as info:
            canonical_dual(fr)
        assert "does not span" not in str(info.value)


def test_frame_operator_below_the_cap_still_inverts():
    # singular values 1 and 1e-5: cond S = 1e10 < COND_CAP
    fr = ComplexFrame.from_vectors(np.array([[1, 0], [0, 1e-5]]))
    dual = canonical_dual(fr)
    np.testing.assert_allclose(dual.vectors, [[1, 0], [0, 1e5]], rtol=1e-12)
    summary = frame_bounds(parseval_version(fr))
    assert abs(summary.A - 1.0) < 1e-10 and abs(summary.B - 1.0) < 1e-10
