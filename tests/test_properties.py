"""Property tests for the batched realified kernel, the batched separation
check, the cached start directions, the Newton phase and the scale
equivariance of the margin search, the closed-form margin in C^2, and the
hyperplane test of the complement property."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framecert import (
    ComplexFrame,
    RealifiedFrame,
    build_phi,
    certify_complex,
    complement_property,
    estimate_a0,
    frame_bounds,
    magnitude_separation_check,
    r_matrices,
    r_matrix,
    random_frame,
    rank_by_svd,
    separation_sides,
    trivial_non_retrievable,
)
from framecert import certify as certify_module
from framecert import lifted as lifted_module

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def complex_gaussian(rng, rows, n):
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


@st.composite
def frame_and_batch(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=4 * n))
    batch = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(SEEDS))
    fr = ComplexFrame.from_vectors(complex_gaussian(rng, m, n))
    return fr, rng.standard_normal((batch, 2 * n))


@settings(max_examples=60, deadline=None)
@given(frame_and_batch())
def test_batched_r_matches_the_sum_over_lifted_forms(case):
    fr, X = case
    rf = RealifiedFrame.from_frame(fr)
    forms = [build_phi(f) for f in fr.vectors]
    R = r_matrices(rf, X)
    assert R.shape == (X.shape[0], rf.two_n, rf.two_n)
    for xi, R_xi in zip(X, R):
        ref = sum(np.outer(P @ xi, P @ xi) for P in forms)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(R_xi - ref) <= 1e-10 * scale
        assert np.linalg.norm(r_matrix(rf, xi) - ref) <= 1e-10 * scale


@st.composite
def frame_and_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4 * n))
    pairs = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(SEEDS))
    fr = ComplexFrame.from_vectors(complex_gaussian(rng, m, n))
    X = complex_gaussian(rng, pairs, n)
    Y = complex_gaussian(rng, pairs, n)
    # every other pair is phase equivalent: y = e^{i theta} x
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=pairs))
    Y[::2] = phases[::2, None] * X[::2]
    a0 = draw(st.floats(min_value=0.0, max_value=4.0))
    return fr, X, Y, a0


@settings(max_examples=60, deadline=None)
@given(frame_and_pairs())
def test_batched_separation_decides_like_the_one_pair_check(case):
    fr, X, Y, a0 = case
    left, factor = separation_sides(fr, X, Y)
    batched = left >= a0 * factor - 1e-9 * (1.0 + np.abs(factor))
    for p, (x, y) in enumerate(zip(X, Y)):
        assert bool(batched[p]) == magnitude_separation_check(fr, a0, x, y)
    # the phase-equivalent pairs have both sides zero up to rounding
    assert np.all(batched[::2])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=6),
       pairs=st.integers(min_value=0, max_value=20), seed=SEEDS)
def test_cross_check_pairs_follow_the_per_pair_stream(n, pairs, seed):
    rng = np.random.default_rng(seed)

    def draw():
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

    xs, ys = [], []
    for _ in range(pairs):
        xs.append(draw())
        ys.append(draw())
    X, Y = certify_module._random_pairs(np.random.default_rng(seed), pairs, n)
    np.testing.assert_array_equal(X, np.array(xs).reshape(pairs, n))
    np.testing.assert_array_equal(Y, np.array(ys).reshape(pairs, n))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=3), starts=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=2**31), frame_seed=SEEDS)
def test_estimate_a0_is_the_same_on_cold_and_warm_start_cache(n, starts, seed, frame_seed):
    rng = np.random.default_rng(frame_seed)
    rf = RealifiedFrame.from_frame(ComplexFrame.from_vectors(complex_gaussian(rng, 4 * n, n)))
    certify_module._start_direction.cache_clear()
    cold = estimate_a0(rf, starts=starts, max_iter=50, seed=seed)
    warm = estimate_a0(rf, starts=starts, max_iter=50, seed=seed)
    assert cold.a0 == warm.a0
    np.testing.assert_array_equal(cold.witness, warm.witness)
    # start i is the unit direction drawn from default_rng(seed + i)
    for i in range(starts):
        v = np.random.default_rng(seed + i).standard_normal(2 * n)
        cached = certify_module._start_direction(seed + i, 2 * n)
        np.testing.assert_array_equal(cached, v / np.linalg.norm(v))
        assert not cached.flags.writeable


@st.composite
def near_critical_frames(draw):
    """Random frames in C^n, n = 2..4, with 3n-1 <= m <= 4n-2 vectors."""
    n = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=3 * n - 1, max_value=4 * n - 2))
    return random_frame(n, m, seed=draw(SEEDS))


@settings(max_examples=40, deadline=None)
@given(fr=near_critical_frames(), k=st.integers(min_value=-8, max_value=8),
       starts=st.integers(min_value=4, max_value=8))
def test_estimate_a0_scale_equivariance(fr, k, starts):
    # scaling by c = 2^k is exact in floating point and multiplies R(xi) by
    # c^4, so every stopping rule of the search must follow it
    c = 2.0 ** k
    base = estimate_a0(RealifiedFrame.from_frame(fr), starts=starts)
    scaled = estimate_a0(RealifiedFrame.from_frame(ComplexFrame.from_vectors(c * fr.vectors)),
                         starts=starts)
    assert scaled.a0 == c ** 4 * base.a0
    np.testing.assert_array_equal(scaled.witness, base.witness)
    assert scaled.diagnostics == base.diagnostics


@st.composite
def frames_in_c2(draw):
    """Random frames in C^2 with 4 <= m <= 9 vectors, half of them with the
    second column scaled by 10^-3..1, which brings a0 down to about 1e-13."""
    m = draw(st.integers(min_value=4, max_value=9))
    rng = np.random.default_rng(draw(SEEDS))
    V = complex_gaussian(rng, m, 2)
    if draw(st.booleans()):
        V[:, 1] *= 10.0 ** draw(st.floats(min_value=-3.0, max_value=0.0))
    return ComplexFrame.from_vectors(V)


@settings(max_examples=40, deadline=None)
@given(frames_in_c2(), SEEDS)
def test_lifted_margin_is_the_minimum_the_search_finds(fr, seed):
    rf = RealifiedFrame.from_frame(fr)
    (witness,), (a0,) = lifted_module._c2_margins(fr.vectors[None])
    R = r_matrix(rf, witness)
    searched = estimate_a0(rf, starts=64)
    # B^2, B the upper frame bound, bounds lambda_max(R(xi)) at every unit
    # xi; the closed form's margin, lambda_2 of R at its witness and the
    # search's differ at most by the rounding of lambda_2 there (at most
    # 0.6 eps B^2 on 1500 such frames)
    rounding = 4 * np.finfo(float).eps * frame_bounds(fr).B ** 2
    assert abs(a0 - np.linalg.eigvalsh(R)[1]) <= max(1e-9 * a0, rounding)
    assert abs(a0 - searched.a0) <= max(1e-9 * searched.a0, rounding)
    assert abs(np.linalg.norm(witness) - 1.0) <= 1e-15
    assert certify_complex(fr).diagnostics is None
    # the witness x and its lambda_2 partner w (J x adds nothing to
    # x w* + w x*) give Q = (x w* + w x*) / 2 = (t I + n . sigma) / 2 with
    # |n| = 1; t is the best one for n, -a^T C n / ||a||^2, inside [-1, 1]
    x = witness[:2] + 1j * witness[2:]
    w = np.linalg.eigh(R)[1][:, 1]
    w = w[:2] + 1j * w[2:]
    w -= (w @ (1j * x).conj()).real * 1j * x
    w /= np.linalg.norm(w)
    Q = (np.outer(x, w.conj()) + np.outer(w, x.conj())) / 2.0
    t = Q.trace().real
    n = np.array([2.0 * Q[1, 0].real, 2.0 * Q[1, 0].imag, (Q[0, 0] - Q[1, 1]).real])
    alpha, beta = fr.vectors[:, 0], fr.vectors[:, 1]
    a = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    C = np.stack([2.0 * (alpha.conj() * beta).real, 2.0 * (alpha.conj() * beta).imag,
                  np.abs(alpha) ** 2 - np.abs(beta) ** 2], axis=1)
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
    assert abs(t) <= 1.0
    assert abs(t + (a @ C @ n) / (a @ a)) <= 1e-6
    # and the margin is ||A(Q)||^2 = ||a t + C n||^2 / 4
    assert np.sum((a * t + C @ n) ** 2) / 4.0 == pytest.approx(a0, rel=1e-6, abs=rounding)
    # a pair's separation ratio is ||A(Q)||^2 / ||Q||_*^2 at Q = x x* - y y*,
    # so no pair falls below a0 beyond rounding: not random pairs, and not
    # the pair x +- 1e-4 v, v the lambda_2 eigenvector at the witness,
    # whose Q is the minimizer's up to scale.  This is why a lifted margin
    # is not cross-checked.
    X, Y = certify_module._random_pairs(np.random.default_rng(seed), 200, 2)
    v = certify_module._deflated_eigh(rf, witness[None])[1][0, :, 0]
    step = 1e-4 * (v[:2] + 1j * v[2:])
    left, factor = separation_sides(fr, np.vstack([X, x + step]), np.vstack([Y, x - step]))
    assert np.all(left / factor >= a0 - max(1e-9 * a0, rounding))


@settings(max_examples=40, deadline=None)
@given(frames_in_c2(), SEEDS, st.integers(min_value=-8, max_value=8))
def test_lifted_verdict_survives_unitaries_phases_permutation_and_scaling(fr, seed, k):
    rng = np.random.default_rng(seed)
    base = certify_complex(fr)
    T = np.linalg.qr(complex_gaussian(rng, 2, 2))[0]
    z = np.exp(2j * np.pi * rng.random(fr.m))
    for V in (fr.vectors @ T.T * z[:, None], fr.vectors[rng.permutation(fr.m)]):
        rep = certify_complex(ComplexFrame.from_vectors(V))
        assert (rep.verdict, rep.method) == (base.verdict, "lifted")
    # scaling by 2^k is exact and multiplies the margin by 2^4k; TAU_PR is
    # absolute, so it has to move with the margin for the verdict to stay
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify_module, "TAU_PR", math.ldexp(certify_module.TAU_PR, 4 * k))
        rep = certify_complex(ComplexFrame.from_vectors(2.0 ** k * fr.vectors))
    assert (rep.verdict, rep.a0) == (base.verdict, math.ldexp(base.a0, 4 * k))
    assert rep.witness_xi.tobytes() == base.witness_xi.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.lists(frames_in_c2(), min_size=2, max_size=4), SEEDS,
       st.integers(min_value=1, max_value=3))
def test_stacked_lifted_reports_equal_lone_reports(frames, seed, per_chunk):
    # one stack, in chunks of per_chunk frames, with a kernel frame and a
    # frame that does not span mixed in so that the batched span precheck
    # decides some frames
    m = frames[0].m
    rng = np.random.default_rng(seed)
    frames = [ComplexFrame.from_vectors(np.resize(fr.vectors, (m, 2))) for fr in frames]
    frames += [trivial_non_retrievable(2, m),
               ComplexFrame.from_vectors(np.outer(complex_gaussian(rng, m, 1), [1.0, 1j]))]
    frames = [frames[i] for i in rng.permutation(len(frames))]
    seeds = [seed % 1000 + i for i in range(len(frames))]
    real_margins, sizes = lifted_module._c2_margins, []

    def counting(V):
        sizes.append(len(V))
        return real_margins(V)

    with pytest.MonkeyPatch.context() as mp:
        # a frame in C^2 is one row of m 2n entries
        mp.setattr(certify_module, "STACK_ENTRIES", per_chunk * 4 * m)
        mp.setattr(lifted_module, "_c2_margins", counting)
        reports = certify_module._certify_frames(np.stack([fr.vectors for fr in frames]), 8,
                                                 seeds)
    # one closed form per chunk of per_chunk frames, on its spanning frames
    lifted = [rep.method == "lifted" for rep in reports]
    assert sizes == [k for k in (sum(lifted[lo:lo + per_chunk])
                                 for lo in range(0, len(frames), per_chunk)) if k]
    for fr, s, stacked in zip(frames, seeds, reports):
        alone = certify_complex(fr, starts=8, seed=s)
        assert (stacked.verdict, stacked.method, stacked.diagnostics) == (
            alone.verdict, alone.method, None)
        assert alone.method in ("lifted", "not-a-frame")
        if alone.method == "lifted":
            assert stacked.a0.hex() == alone.a0.hex()
            assert stacked.witness_xi.tobytes() == alone.witness_xi.tobytes()
        else:
            assert stacked.a0 is stacked.witness_xi is alone.a0 is alone.witness_xi is None
    assert [rep.method for rep in reports].count("lifted") == len(frames) - 1


def exhaustive_complement_holds(V: np.ndarray) -> bool:
    """Reference complement-property check: every bipartition, as masks
    0 .. 2^(m-1) - 1 with vector 0 pinned to side one (bit i of the mask
    puts vector i+1 there), must have a spanning side."""
    m, n = V.shape
    for mask in range(2 ** (m - 1)):
        side_one = np.zeros(m, dtype=bool)
        side_one[0] = True
        for i in range(m - 1):
            if mask >> i & 1:
                side_one[i + 1] = True
        if rank_by_svd(V[side_one]) == n:
            continue
        if rank_by_svd(V[~side_one]) == n:
            continue
        return False
    return True


@st.composite
def integer_frames(draw):
    """m <= 10 vectors in R^n, n = 1..4, with entries in {-1, 0, 1} and up
    to two rows zeroed."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=10))
    entries = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=m * n, max_size=m * n))
    zeroed = draw(st.lists(st.integers(min_value=0, max_value=m - 1), max_size=2))
    V = np.array(entries, dtype=np.float64).reshape(m, n)
    V[zeroed] = 0.0
    return V


def decide(V: np.ndarray):
    """complement_property on the rows of V, with any failing partition
    checked against its definition: vector 0 on side 1, no spanning side."""
    result = complement_property(ComplexFrame.from_vectors(V, field="real"))
    if not result.holds:
        side_one = np.array(result.failing_partition, dtype=bool)
        assert side_one.shape == (V.shape[0],) and side_one[0]
        assert rank_by_svd(V[side_one]) < V.shape[1]
        assert rank_by_svd(V[~side_one]) < V.shape[1]
    return result.holds


def serial_complement_partition(V: np.ndarray):
    """Reference hyperplane scan, one candidate at a time: the failing
    partition complement_property returned before its candidates were
    tested in batches, or None when the property holds."""
    m, n = V.shape
    if rank_by_svd(V) < n:
        return (1,) * m
    lengths = np.linalg.norm(V, axis=1)
    for subset in itertools.combinations(range(m), n - 1):
        if n == 1:
            normal = np.ones(1)
        else:
            _, sv, Vt = np.linalg.svd(V[list(subset)])
            if sv[-1] <= certify_module.RANK_RTOL * sv[0]:
                continue
            normal = Vt[-1]
        in_h = np.abs(V @ normal) <= certify_module.RANK_RTOL * lengths
        if rank_by_svd(V[~in_h]) == n or rank_by_svd(V[in_h]) == n:
            continue
        side_one = in_h if in_h[0] else ~in_h
        return tuple(int(b) for b in side_one)
    return None


@st.composite
def two_plane_frames(draw):
    """3 <= m <= 20 vectors in R^3 on two random planes, each vector on
    either plane at random, with up to two rows repeated and up to two
    zeroed, so that the first failing hyperplane falls anywhere in the
    scan."""
    m = draw(st.integers(min_value=3, max_value=20))
    rng = np.random.default_rng(draw(SEEDS))
    planes = [np.linalg.qr(rng.standard_normal((3, 2)))[0] for _ in range(2)]
    V = np.array([planes[int(rng.integers(2))] @ rng.standard_normal(2) for _ in range(m)])
    copies = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=2))
    for target, source in copies:
        V[target] = V[source]
    V[draw(st.lists(st.integers(min_value=0, max_value=m - 1), max_size=2))] = 0.0
    return V


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_frames(), two_plane_frames()), st.integers(min_value=1, max_value=4))
def test_batched_hyperplane_scan_matches_the_serial_scan(V, most):
    # the chunks grow 1, 2, 4, ... candidates up to their cap, which the
    # second scan lowers to `most`, so more chunk boundaries fall early
    expected = serial_complement_partition(V)
    fr = ComplexFrame.from_vectors(V, field="real")
    assert complement_property(fr).failing_partition == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify_module, "STACK_ENTRIES", most * 2 * V.size)
        assert complement_property(fr).failing_partition == expected


@settings(max_examples=300, deadline=None)
@given(integer_frames())
def test_hyperplane_test_agrees_with_the_exhaustive_scan(V):
    assert decide(V) == exhaustive_complement_holds(V)


@settings(max_examples=200, deadline=None)
@given(integer_frames(), SEEDS)
def test_complement_verdict_survives_permutation_scaling_and_transforms(V, seed):
    rng = np.random.default_rng(seed)
    m, n = V.shape
    holds = decide(V)
    assert decide(V[rng.permutation(m)]) == holds
    scales = rng.choice((-1.0, 1.0), size=m) * 10.0 ** rng.uniform(-3.0, 3.0, size=m)
    assert decide(scales[:, None] * V) == holds
    # well conditioned: singular values in [0.5, 2]
    Q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    T = Q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q2
    assert decide(V @ T.T) == holds


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), extra=st.integers(min_value=0, max_value=8),
       rows=st.integers(min_value=1, max_value=4), budget=st.integers(min_value=0, max_value=40),
       seed=SEEDS)
def test_polish_never_raises_lambda_2(n, extra, rows, budget, seed):
    rng = np.random.default_rng(seed)
    rf = RealifiedFrame.from_frame(ComplexFrame.from_vectors(complex_gaussian(rng, 2 * n + extra, n)))
    X = rng.standard_normal((rows, 2 * n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    out, W, used, stopped = certify_module._polish(rf, X, budget)
    before = np.linalg.eigvalsh(r_matrices(rf, X))
    R = r_matrices(rf, out)
    after = np.linalg.eigvalsh(R)
    slack = 1e-12 * np.trace(r_matrices(rf, X), axis1=1, axis2=2)
    assert np.all(after[:, 1] <= before[:, 1] + slack)
    assert np.all(used <= budget)
    assert np.all(stopped | (used == budget))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-12)
    # W is each run's lambda_2 eigenvector at its returned row
    np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose((W * (out @ rf.J.T)).sum(axis=1), 0.0, atol=1e-12)
    rayleigh = np.einsum("bi,bij,bj->b", W, R, W)
    assert np.all(np.abs(rayleigh - after[:, 1]) <= 1e-12 * np.trace(R, axis1=1, axis2=2))


@st.composite
def point_and_horizontal_direction(draw):
    """A random frame in C^n, n = 2..4, with 2n <= m <= 4n-2 vectors, a unit
    xi and a unit eta orthogonal to xi and J xi."""
    n = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=2 * n, max_value=4 * n - 2))
    rng = np.random.default_rng(draw(SEEDS))
    rf = RealifiedFrame.from_frame(ComplexFrame.from_vectors(complex_gaussian(rng, m, n)))
    xi, eta = rng.standard_normal((2, 2 * n))
    xi /= np.linalg.norm(xi)
    jxi = rf.J @ xi
    eta -= (eta @ xi) * xi + (eta @ jxi) * jxi
    return rf, xi, eta / np.linalg.norm(eta)


@settings(max_examples=60, deadline=None)
@given(point_and_horizontal_direction())
def test_newton_model_matches_central_differences_along_great_circles(case):
    rf, xi, eta = case
    vals, vecs, trace = certify_module._deflated_eigh(rf, xi[None, :])
    T = trace[0]
    # away from lambda_2 = lambda_3, where f is smooth enough for differences
    assume(vals[0, 1] - vals[0, 0] >= 1e-2 * T)
    g, H = certify_module._newton_model(rf, xi[None, :], vals, vecs, trace)
    g, H = g[0], H[0]

    def f(t):
        return np.linalg.eigvalsh(r_matrix(rf, xi * np.cos(t) + eta * np.sin(t)))[1]

    h = 1e-5
    ahead, here, behind = f(h), f(0.0), f(-h)
    # rounding of f puts the second difference off by about eps T / h^2
    assert abs((ahead - behind) / (2 * h) - g @ eta) <= 1e-7 * T
    assert abs((ahead - 2 * here + behind) / h ** 2 - eta @ H @ eta) <= 1e-4 * T
    assert abs(g @ xi) <= 1e-12 * T and abs(g @ (rf.J @ xi)) <= 1e-12 * T
