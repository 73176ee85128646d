"""Reference frame families and the two segment connecting path."""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from framecert import constructions as constructions_module
from framecert import (
    VERDICT_RETRIEVABLE,
    BodmannHammenParams,
    ComplexFrame,
    FramecertError,
    bodmann_hammen,
    certify_complex,
    connect_frames,
    denied_angles,
    frame_bounds,
    path_eval,
    r3_example,
    random_frame,
    rank_by_svd,
    trivial_non_retrievable,
)


def test_params_validation():
    with pytest.raises(FramecertError, match="construction needs n >= 2, got n=1"):
        BodmannHammenParams(n=1)
    with pytest.raises(ValueError):
        BodmannHammenParams(n=2, a=0.0)
    with pytest.raises(ValueError):
        BodmannHammenParams(n=2, a=2.0)
    with pytest.raises(ValueError):
        BodmannHammenParams(n=2, angle_variant="three_pi")


def test_bodmann_hammen_cardinality():
    for n in range(2, 9):
        fr = bodmann_hammen(BodmannHammenParams(n=n))
        assert fr.m == 4 * n - 4
        assert fr.n == n
        assert fr.is_frame


def test_bodmann_hammen_n2_block_split():
    # one root-of-unity vector and three moment vectors
    fr = bodmann_hammen(BodmannHammenParams(n=2))
    first = np.array([cmath.exp(0), cmath.exp(4j * cmath.pi / 3)])
    np.testing.assert_allclose(fr.vectors[0], first, atol=1e-15)
    np.testing.assert_allclose(fr.vectors[1:, 0], 1.0, atol=1e-15)


def test_bodmann_hammen_first_block_vector_in_dimension_three():
    fr = bodmann_hammen(BodmannHammenParams(n=3))
    expected = np.array([1.0,
                         cmath.exp(4j * cmath.pi / 5),
                         cmath.exp(8j * cmath.pi / 5)])
    np.testing.assert_allclose(fr.vectors[0], expected, atol=1e-15)
    assert fr.m == 8


def test_bodmann_hammen_variants_differ():
    two_pi = bodmann_hammen(BodmannHammenParams(n=2, angle_variant="two_pi"))
    verbatim = bodmann_hammen(BodmannHammenParams(n=2, angle_variant="verbatim"))
    # the first moment vector (k = 1, theta = 0) agrees, later ones differ
    np.testing.assert_allclose(two_pi.vectors[1], verbatim.vectors[1], atol=1e-15)
    assert np.abs(two_pi.vectors[2] - verbatim.vectors[2]).max() > 1e-3


def test_denied_angles_guard():
    assert any(abs(np.pi / 2 - bad) <= 1e-12 for bad in denied_angles(2))
    params = BodmannHammenParams(n=2, a=np.pi / 2)
    with pytest.raises(FramecertError, match="is a denied rational multiple of pi for n=2"):
        bodmann_hammen(params, strict=True)
    with pytest.warns(UserWarning):
        bodmann_hammen(params, strict=False)


def test_moment_vectors_vary_continuously_in_the_angle():
    def family(a):
        return bodmann_hammen(BodmannHammenParams(n=3, a=a)).vectors[3:]

    base = family(1.0)
    gaps = [np.abs(family(1.0 + h) - base).max() for h in (1e-3, 1e-4, 1e-5)]
    assert gaps[1] < gaps[0] / 5.0
    assert gaps[2] < gaps[1] / 5.0


def test_r3_example_is_exact():
    fr = r3_example()
    assert fr.field == "real"
    expected = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                         [1, 1, 0], [1, 0, 1], [0, 1, 1]])
    np.testing.assert_array_equal(fr.vectors.real, expected)
    np.testing.assert_array_equal(fr.vectors.imag, 0.0)


def test_trivial_non_retrievable_shape_and_bounds():
    fr = trivial_non_retrievable(2, 4)
    assert (fr.n, fr.m) == (2, 4)
    summary = frame_bounds(fr)
    assert abs(summary.A - 1.0) < 1e-12
    assert abs(summary.B - 3.0) < 1e-12
    with pytest.raises(FramecertError, match=r"need m >= n >= 2, got n=1, m=4"):
        trivial_non_retrievable(1, 4)
    with pytest.raises(FramecertError, match=r"need m >= n >= 2, got n=3, m=2"):
        trivial_non_retrievable(3, 2)


def test_random_frame_determinism_and_failure():
    first = random_frame(2, 6, seed=9)
    again = random_frame(2, 6, seed=9)
    np.testing.assert_array_equal(first.vectors, again.vectors)
    assert np.any(first.vectors != random_frame(2, 6, seed=10).vectors)
    with pytest.raises(FramecertError, match=r"the m=2 drawn vectors do not span C\^3"):
        random_frame(3, 2, seed=9)
    with pytest.raises(FramecertError, match=r"need n >= 1 and m >= 1, got n=0, m=2"):
        random_frame(0, 2)


def _redrawing_random_frame(n, m, seed):
    """The former random_frame: redraw a non-spanning family up to 32 times."""
    rng = np.random.default_rng(seed)
    for _ in range(32):
        vectors = (rng.standard_normal((m, n))
                   + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
        if rank_by_svd(vectors) == n:
            return vectors
    raise AssertionError(f"no spanning draw for n={n}, m={m}, seed={seed}")


def test_random_frame_single_draw_matches_the_redrawing_reference():
    # a Gaussian family with m >= n spans with probability one, so the
    # first draw is the frame the redrawing loop returned
    for n in range(1, 9):
        for m in range(n, 4 * n + 1):
            for seed in range(50):
                np.testing.assert_array_equal(
                    random_frame(n, m, seed=seed).vectors,
                    _redrawing_random_frame(n, m, seed),
                )


def test_generic_frames_above_the_critical_count_certify():
    # m = 4n - 2 vectors in C^2 are generically retrievable
    for seed in range(50):
        fr = random_frame(2, 6, seed=seed)
        assert certify_complex(fr, starts=16).verdict == VERDICT_RETRIEVABLE


def test_connect_frames_picks_first_admissible_subset():
    f1 = random_frame(2, 4, seed=1)
    f2 = random_frame(2, 4, seed=2)
    path = connect_frames(f1, f2)
    assert path.index_set == (0, 1)
    assert path.complement == (2, 3)


def test_path_eval_recovers_endpoints_exactly():
    rng_seeds = [(1, 2), (3, 4), (5, 6)]
    for s1, s2 in rng_seeds:
        f1 = random_frame(2, 4, seed=s1)
        f2 = random_frame(2, 4, seed=s2)
        path = connect_frames(f1, f2)
        np.testing.assert_array_equal(path_eval(path, -1.0).vectors, f1.vectors)
        np.testing.assert_array_equal(path_eval(path, 1.0).vectors, f2.vectors)


def test_path_midpoint_mixes_the_two_families():
    f1 = random_frame(2, 4, seed=7)
    f2 = random_frame(2, 4, seed=8)
    path = connect_frames(f1, f2)
    mid = path_eval(path, 0.0)
    np.testing.assert_array_equal(mid.vectors[list(path.index_set)],
                                  f1.vectors[list(path.index_set)])
    np.testing.assert_array_equal(mid.vectors[list(path.complement)],
                                  f2.vectors[list(path.complement)])
    assert mid.is_frame


def test_path_stays_a_frame_on_a_dense_grid():
    f1 = random_frame(3, 6, seed=11)
    f2 = random_frame(3, 6, seed=12)
    path = connect_frames(f1, f2)
    lows = [frame_bounds(path_eval(path, t)).A
            for t in np.linspace(-1.0, 1.0, 41)]
    assert min(lows) > 1e-8


def test_path_eval_rejects_out_of_range_parameter():
    path = connect_frames(random_frame(2, 4, seed=1), random_frame(2, 4, seed=2))
    for t in (-1.001, 1.001, 5.0):
        with pytest.raises(ValueError):
            path_eval(path, t)


def test_connect_frames_error_paths():
    with pytest.raises(FramecertError, match=r"frames differ in shape: \(4, 2\) vs \(6, 3\)"):
        connect_frames(random_frame(2, 4, seed=1), random_frame(3, 6, seed=1))
    with pytest.raises(FramecertError, match="path construction needs m >= 2n, got m=3, n=2"):
        connect_frames(random_frame(2, 3, seed=1), random_frame(2, 3, seed=2))
    flat = ComplexFrame.from_vectors(np.array([[1, 0], [2, 0], [3, 0], [4, 0]],
                                              dtype=complex))
    with pytest.raises(FramecertError, match="start family does not span"):
        connect_frames(flat, random_frame(2, 4, seed=1))
    with pytest.raises(FramecertError, match="end family does not span"):
        connect_frames(random_frame(2, 4, seed=1), flat)


def test_connect_frames_gives_up_after_max_subset_scan(monkeypatch):
    # the first candidate (0, 1) is parallel, so the scan needs a second
    monkeypatch.setattr(constructions_module, "MAX_SUBSET_SCAN", 1)
    start = ComplexFrame.from_vectors(np.array([[1, 0], [2, 0], [0, 1], [1, 1]], dtype=complex))
    with pytest.raises(FramecertError, match="no admissible anchor subset within 1 candidates"):
        connect_frames(start, random_frame(2, 4, seed=1))


def test_connect_frames_can_fail_even_on_frames():
    # e1, e1, e1, e2 twice: every independent start pair leaves a
    # complement that cannot span
    vecs = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=complex)
    fr = ComplexFrame.from_vectors(vecs)
    assert fr.is_frame
    with pytest.raises(FramecertError,
                       match="no n-subset has independent start vectors and a spanning end complement"):
        connect_frames(fr, fr)
