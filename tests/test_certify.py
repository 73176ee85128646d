"""Certification pipeline: margin estimation, verdicts, witnesses."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from framecert import certify as certify_module
from framecert import (
    TAU_NPR,
    TAU_PR,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_RETRIEVABLE,
    VERDICT_RETRIEVABLE,
    BodmannHammenParams,
    ComplexFrame,
    FramecertError,
    RealifiedFrame,
    bodmann_hammen,
    certify_complex,
    certify_real,
    complement_property,
    estimate_a0,
    hmw_lower_bound,
    injectivity_sampling_oracle,
    magnitude_separation_check,
    r3_example,
    r_matrix,
    rank_by_svd,
    rank_kernel_check,
    random_frame,
    r_matrices,
    realify,
    transform_frame,
    trivial_non_retrievable,
    unrealify,
)


def bh(n, variant="two_pi"):
    return bodmann_hammen(BodmannHammenParams(n=n, angle_variant=variant))


def eigenvalue_2n_minus_1(M):
    """The (2n-1)-th largest of the 2n eigenvalues of a symmetric matrix,
    i.e. its second-smallest: the quantity whose minimum is the margin."""
    return float(np.sort(np.linalg.eigvalsh(M))[::-1][M.shape[0] - 2])


def test_eigenvalue_2n_minus_1_picks_second_smallest():
    M = np.diag([5.0, -1.0, 3.0, 0.5])
    assert eigenvalue_2n_minus_1(M) == 0.5
    # the reported margin is that eigenvalue of R at the (unit) witness
    for fr in (bh(2), bh(3), random_frame(3, 10, seed=4)):
        rf = RealifiedFrame.from_frame(fr)
        a0, witness = estimate_a0(rf, starts=8)
        assert a0 == pytest.approx(eigenvalue_2n_minus_1(r_matrix(rf, witness)), rel=1e-12)


def block_descent_oracle(rf, starts, max_iter=2000, tol=1e-10, seed=42):
    """The margin search before the Newton phase: batched block descent
    from the same starts for up to max_iter iterations, then the smallest
    second eigenvalue over the final directions."""
    X = np.stack([certify_module._start_direction(seed + i, rf.two_n) for i in range(starts)])
    vals = np.full(starts, np.inf)
    active = np.arange(starts)
    for _ in range(max_iter):
        if active.size == 0:
            break
        Xa, _, _ = certify_module._block_min_eig(rf, X[active])
        Xa, v, _ = certify_module._block_min_eig(rf, Xa)
        X[active] = Xa
        decrease = vals[active] - v
        vals[active] = v
        active = active[(decrease > tol) & (v > 1e-18)]
    return float(max(np.linalg.eigvalsh(r_matrices(rf, X))[:, 1].min(), 0.0))


ORACLE_FRAMES = {f"bh{n}": (n, None) for n in (2, 3, 4, 5)}
ORACLE_FRAMES.update({f"random{n}-seed{s}": (n, s) for n in (3, 4, 5, 6) for s in (1, 2)})


@pytest.mark.parametrize("name", sorted(ORACLE_FRAMES))
def test_estimate_a0_is_no_higher_than_the_block_descent_oracle(name):
    n, seed = ORACLE_FRAMES[name]
    fr = bh(n) if seed is None else random_frame(n, 4 * n - 2, seed=seed)
    rf = RealifiedFrame.from_frame(fr)
    assert estimate_a0(rf, starts=8)[0] <= block_descent_oracle(rf, 8) * (1.0 + 1e-9)


def test_max_iter_is_the_budget_over_both_phases():
    rf = RealifiedFrame.from_frame(bh(6))
    for max_iter in (40, 100, 160):
        d = estimate_a0(rf, starts=2, max_iter=max_iter).diagnostics
        assert d.block_iterations == min(max_iter, certify_module.BLOCK_ITERS)
        assert d.block_iterations + d.polish_iterations <= max_iter
        assert d.best_iterations <= max_iter
    short = estimate_a0(rf, starts=2, max_iter=40).diagnostics
    assert (short.polished, short.polish_iterations, short.hit_budget) == (0, 0, 2)
    assert short.best_hit_budget


def test_newton_phase_step_counts():
    # seed 42: BH n=6 at 2 starts polishes in a narrow valley, and BH n=3
    # at 64 starts polishes starts that already sit near the best value;
    # a quasi-Newton (L-BFGS) phase takes 380 and 45 steps there
    assert estimate_a0(RealifiedFrame.from_frame(bh(6)), starts=2).diagnostics.polish_iterations <= 190
    assert estimate_a0(RealifiedFrame.from_frame(bh(3)), starts=64).diagnostics.polish_iterations <= 15


def test_search_diagnostics_count_every_start():
    for fr in (bh(2), bh(5), trivial_non_retrievable(3, 8)):
        estimate = estimate_a0(RealifiedFrame.from_frame(fr), starts=16)
        d = estimate.diagnostics
        assert d.starts == 16
        assert d.block_converged + d.polished == 16
        assert 0 <= d.hit_budget <= d.polished
        assert d.block_iterations <= certify_module.BLOCK_ITERS
        assert d.best_iterations <= d.block_iterations + d.polish_iterations
        again = estimate_a0(RealifiedFrame.from_frame(fr), starts=16)
        assert again.diagnostics == d and again[0] == estimate[0]
        copied = pickle.loads(pickle.dumps(estimate))
        assert copied.diagnostics == d and copied[0] == estimate[0]
    # BH n=2 converges in the block descent; BH n=5 needs the Newton phase
    assert estimate_a0(RealifiedFrame.from_frame(bh(2)), starts=16).diagnostics.polished == 0
    assert estimate_a0(RealifiedFrame.from_frame(bh(5)), starts=16).diagnostics.polished > 0


def test_estimate_a0_single_vector_in_c1():
    fr = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    a0, witness = estimate_a0(RealifiedFrame.from_frame(fr), starts=8)
    assert abs(a0 - 1.0) < 1e-8
    assert abs(np.linalg.norm(witness) - 1.0) < 1e-12


def test_estimate_a0_is_deterministic_per_seed():
    rf = RealifiedFrame.from_frame(bh(2))
    a0_first, w_first = estimate_a0(rf, starts=16, seed=7)
    a0_again, w_again = estimate_a0(rf, starts=16, seed=7)
    assert a0_first == a0_again
    np.testing.assert_array_equal(w_first, w_again)


def test_estimate_a0_is_seed_stable_on_certified_frame():
    rf = RealifiedFrame.from_frame(bh(2))
    values = [estimate_a0(rf, starts=32, seed=s)[0] for s in (1, 7, 42)]
    assert max(values) - min(values) < 1e-8 * max(values)


def test_estimate_a0_vanishes_on_non_retrievable_frame():
    rf = RealifiedFrame.from_frame(trivial_non_retrievable(2, 4))
    a0, witness = estimate_a0(rf, starts=16)
    assert a0 < TAU_NPR
    assert rank_kernel_check(rf, witness).kernel_dim >= 2


def test_margin_bounds_r_matrix_off_the_j_line():
    # R(xi) dominates a0 ||xi||^2 (I - P) where P projects onto J xi
    fr = bh(2)
    rf = RealifiedFrame.from_frame(fr)
    a0, _ = estimate_a0(rf, starts=16)
    rng = np.random.default_rng(33)
    for _ in range(25):
        xi = rng.standard_normal(rf.two_n)
        jxi = rf.J @ xi
        proj = np.outer(jxi, jxi) / (xi @ xi)
        gap = r_matrix(rf, xi) - a0 * (xi @ xi) * (np.eye(rf.two_n) - proj)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-8


def test_estimate_a0_parameter_validation():
    rf = RealifiedFrame.from_frame(bh(2))
    with pytest.raises(ValueError):
        estimate_a0(rf, starts=0)
    with pytest.raises(ValueError):
        estimate_a0(rf, max_iter=0)


def test_rank_kernel_check_on_retrievable_frame():
    fr = bh(2)
    rf = RealifiedFrame.from_frame(fr)
    rng = np.random.default_rng(20)
    for _ in range(20):
        xi = rng.standard_normal(rf.two_n)
        result = rank_kernel_check(rf, xi)
        assert result.rank == rf.two_n - 1
        assert result.kernel_dim == 1
        assert result.kernel_is_span_jxi


def test_rank_kernel_check_detects_excess_kernel():
    rf = RealifiedFrame.from_frame(trivial_non_retrievable(2, 4))
    # at the first basis direction only one measurement has a gradient
    result = rank_kernel_check(rf, realify(np.array([1.0, 0.0])))
    assert result.rank == 1
    assert result.kernel_dim == 3
    assert not result.kernel_is_span_jxi
    with pytest.raises(FramecertError, match="direction xi must be nonzero"):
        rank_kernel_check(rf, np.zeros(4))


def test_magnitude_separation_trivial_pairs():
    fr = bh(2)
    rng = np.random.default_rng(21)
    x = (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert magnitude_separation_check(fr, 1.0, x, x)
    for theta in rng.uniform(0, 2 * np.pi, size=10):
        assert magnitude_separation_check(fr, 1.0, x, np.exp(1j * theta) * x)


def test_magnitude_separation_near_equality_in_c1():
    # for the frame {1} both sides collapse to (|x|^2 - |y|^2)^2
    fr = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    rng = np.random.default_rng(22)
    for _ in range(50):
        x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        y = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert magnitude_separation_check(fr, 1.0, x, y)
        left = (abs(x[0]) ** 2 - abs(y[0]) ** 2) ** 2
        inner = x[0] * np.conj(y[0])
        right = (np.linalg.norm(x - y) ** 2 * np.linalg.norm(x + y) ** 2
                 - 4.0 * inner.imag**2)
        assert abs(left - right) < 1e-9 * (1.0 + abs(left))


def test_magnitude_separation_with_estimated_margin():
    fr = bh(2)
    rep = certify_complex(fr, starts=16)
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert magnitude_separation_check(fr, rep.a0, x, y)


def test_cross_check_downgrades_an_optimistic_margin(monkeypatch):
    # an estimate ten times the true margin must be caught by the random
    # pairs and replaced by their worst ratio, drawn pair by pair as
    # x = (g_re + i g_im) / sqrt(2), then y the same way
    fr = bh(2)
    true_a0 = certify_complex(fr, starts=16).a0
    real_estimate = certify_module.estimate_a0

    def optimistic(*args, **kwargs):
        estimate = real_estimate(*args, **kwargs)
        return certify_module.MarginEstimate(10.0 * estimate.a0, estimate.witness,
                                             estimate.diagnostics)

    monkeypatch.setattr(certify_module, "estimate_a0", optimistic)
    seed = 5
    rep = certify_complex(fr, starts=16, seed=seed)

    rng = np.random.default_rng(seed)
    V = fr.vectors
    ratios = []
    for _ in range(certify_module.CROSS_CHECK_PAIRS):
        x = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0)
        y = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0)
        left = np.sum((np.abs(V.conj() @ x) ** 2 - np.abs(V.conj() @ y) ** 2) ** 2)
        inner = np.sum(x * y.conj())
        factor = (np.linalg.norm(x - y) ** 2 * np.linalg.norm(x + y) ** 2
                  - 4.0 * inner.imag ** 2)
        if factor > 1e-12:
            ratios.append(left / factor)
    worst = min(ratios)
    assert true_a0 <= worst < 10.0 * true_a0
    assert rep.a0 == pytest.approx(worst, rel=1e-12)
    assert rep.verdict == (VERDICT_RETRIEVABLE if worst > TAU_PR else VERDICT_INCONCLUSIVE)


def test_certify_cardinality_precheck():
    fr = random_frame(3, 5, seed=2)
    rep = certify_complex(fr)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.method == "cardinality"
    assert rep.a0 is None


def test_certify_single_vector_line_bypasses_cardinality_gate():
    # one nonzero vector in dimension one pins |x| exactly, so the count
    # precheck must not fire there
    fr = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    rep = certify_complex(fr, starts=8)
    assert rep.verdict == VERDICT_RETRIEVABLE
    assert rep.method == "eigen"
    assert abs(rep.a0 - 1.0) < 1e-9


def test_certify_non_frame_precheck():
    vecs = np.vstack([np.eye(2), np.eye(2)])[:, :1] @ np.ones((1, 2))
    fr = ComplexFrame.from_vectors(np.vstack([vecs, vecs]))
    assert not fr.is_frame
    rep = certify_complex(fr)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.method == "not-a-frame"


def test_certify_retrievable_with_unit_witness():
    rep = certify_complex(bh(2), starts=16)
    assert rep.verdict == VERDICT_RETRIEVABLE
    assert rep.method == "eigen"
    assert rep.a0 > TAU_PR
    assert abs(np.linalg.norm(rep.witness_xi) - 1.0) < 1e-12


def test_certify_not_retrievable_requires_kernel_witness():
    rep = certify_complex(trivial_non_retrievable(2, 4), starts=16)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.kernel_excess is not None
    rf = RealifiedFrame.from_frame(trivial_non_retrievable(2, 4))
    assert rank_kernel_check(rf, rep.kernel_excess).kernel_dim >= 2


def test_certify_inconclusive_band():
    # a frame whose margin sits between the two thresholds must stay
    # undecided; Bodmann-Hammen n=3 with the verbatim angles lands there
    rep = certify_complex(bh(3, "verbatim"), starts=32)
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_certify_real_frame_treated_over_c_is_not_retrievable():
    # conjugation preserves all magnitudes against real vectors, so a real
    # frame can never separate complex rays
    fr = ComplexFrame.from_vectors(r3_example().vectors, field="complex")
    rep = certify_complex(fr, starts=16)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.a0 < TAU_NPR


def test_bh5_is_inconclusive_with_an_explicit_separation_witness():
    # the margin search finds xi with lambda_2(R(xi)) below TAU_PR, and the
    # pair xi +- eps w, w the eigenvector of lambda_2, has separation ratio
    # lambda_2 for every eps: it violates the inequality at TAU_PR
    fr = bh(5)
    rep = certify_complex(fr, starts=64)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert TAU_NPR < rep.a0 < TAU_PR
    rf = RealifiedFrame.from_frame(fr)
    xi = rep.witness_xi
    vals, vecs = np.linalg.eigh(r_matrix(rf, xi))
    w = vecs[:, 1]
    x, y = unrealify(xi + 0.1 * w), unrealify(xi - 0.1 * w)
    left, factor = certify_module.separation_sides(fr, x[None, :], y[None, :])
    assert left[0] / factor[0] == pytest.approx(vals[1], rel=1e-6)
    assert not certify_module._separation_holds(left, factor, TAU_PR)[0]


def test_an_unresolved_margin_is_not_declared_not_retrievable():
    # BH n=4 with the verbatim angles falls below TAU_NPR at 64 starts with
    # a two-dimensional kernel at RANK_RTOL, but lambda_2 / lambda_max stays
    # far above 2n eps after the witness polish
    fr = bh(4, "verbatim")
    rep = certify_complex(fr, starts=64)
    assert rep.a0 < TAU_NPR
    assert rep.verdict == VERDICT_INCONCLUSIVE
    spectrum = np.linalg.eigvalsh(r_matrix(RealifiedFrame.from_frame(fr), rep.witness_xi))
    assert spectrum[1] > 2 * fr.n * np.finfo(float).eps * spectrum[-1]


def test_random_frame_below_the_cardinality_bound_is_not_retrievable():
    # seven vectors in C^3: the witness's second eigenvalue is zero to rounding
    fr = random_frame(3, 7, seed=0)
    rep = certify_complex(fr, starts=64)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    spectrum = np.linalg.eigvalsh(r_matrix(RealifiedFrame.from_frame(fr), rep.kernel_excess))
    assert spectrum[1] <= 2 * fr.n * np.finfo(float).eps * spectrum[-1]


def test_verdict_invariant_under_equivalence_transforms():
    rng = np.random.default_rng(24)
    for fr, expected in ((bh(2), VERDICT_RETRIEVABLE),
                         (trivial_non_retrievable(2, 4), VERDICT_NOT_RETRIEVABLE)):
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=fr.m))
        while True:
            T = rng.standard_normal((fr.n, fr.n)) + 1j * rng.standard_normal((fr.n, fr.n))
            if np.linalg.cond(T) <= 10.0:
                break
        moved = transform_frame(fr, T, z)
        assert certify_complex(moved, starts=16).verdict == expected


def test_report_to_dict_is_json_ready():
    import json

    rep = certify_complex(bh(2), starts=8)
    doc = rep.to_dict()
    json.dumps(doc)
    assert doc["verdict"] == VERDICT_RETRIEVABLE
    assert len(doc["witness_xi"]) == 4
    assert doc["diagnostics"] == rep.diagnostics.to_dict()
    assert doc["diagnostics"]["starts"] == 8


def test_complement_property_reference_family():
    assert complement_property(r3_example()).holds


def assert_failing_partition(fr, partition):
    """The defining property of a failing partition: vector 0 is on side 1
    and neither side spans R^n."""
    side_one = np.array(partition, dtype=bool)
    assert side_one.shape == (fr.m,)
    assert side_one[0]
    V = fr.vectors.real
    assert rank_by_svd(V[side_one]) < fr.n
    assert rank_by_svd(V[~side_one]) < fr.n


def test_complement_property_five_vector_subsets_fail():
    # dropping any vector from the six-vector family breaks the property
    full = r3_example().vectors
    for drop in range(6):
        sub = ComplexFrame.from_vectors(np.delete(full, drop, axis=0), field="real")
        result = complement_property(sub)
        assert not result.holds
        assert_failing_partition(sub, result.failing_partition)


def test_complement_property_fails_for_orthonormal_bases():
    # n vectors cannot satisfy the property for n >= 2
    for n in (2, 3, 4):
        fr = ComplexFrame.from_vectors(np.eye(n), field="real")
        result = complement_property(fr)
        assert not result.holds
        assert_failing_partition(fr, result.failing_partition)


def test_complement_partition_puts_vector_0_on_side_1_when_it_is_off_the_hyperplane():
    # vector 0 is too short to span a hyperplane with any other vector, so
    # the first failing hyperplane is span{e1, e2}, which it lies off
    V = np.array([[0.0, 0.0, 1e-12], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fr = ComplexFrame.from_vectors(V, field="real")
    result = complement_property(fr)
    assert not result.holds
    assert_failing_partition(fr, result.failing_partition)


def test_complement_property_rejects_complex_and_oversized_frames():
    with pytest.raises(FramecertError, match="complement property is defined for real frames only"):
        complement_property(bh(2))
    big = ComplexFrame.from_vectors(np.ones((40, 6)), field="real")
    with pytest.raises(FramecertError, match=(r"hyperplane check caps at 20000 candidate "
                                              r"hyperplanes, got C\(40, 5\) = 658008")):
        complement_property(big)
    # thirty-one vectors in R^1 are one candidate, far below the cap
    assert complement_property(ComplexFrame.from_vectors(np.ones((31, 1)), field="real")).holds
    # the cap counts candidates: C(20000, 1) is admitted (and decided at
    # once, the family spanning only a line), C(20001, 1) is refused
    line = np.outer(np.ones(20001), [1.0, 0.0])
    result = complement_property(ComplexFrame.from_vectors(line[:20000], field="real"))
    assert result.failing_partition == (1,) * 20000
    with pytest.raises(FramecertError, match=r"got C\(20001, 1\) = 20001"):
        complement_property(ComplexFrame.from_vectors(line, field="real"))


def two_plane_frame(m, seed):
    """m real vectors in R^3 on two random planes, vector 0 and every third
    one on the first; their split by plane is the only failing bipartition."""
    rng = np.random.default_rng(seed)
    planes = [np.linalg.qr(rng.standard_normal((3, 2)))[0] for _ in range(2)]
    on_first = np.arange(m) % 3 == 0
    V = np.array([planes[0 if first else 1] @ rng.standard_normal(2) for first in on_first])
    return ComplexFrame.from_vectors(V, field="real"), on_first


def test_certify_real_decides_thirty_vectors_in_r3():
    rng = np.random.default_rng(30)
    rep = certify_real(ComplexFrame.from_vectors(rng.standard_normal((30, 3)), field="real"))
    assert rep.verdict == VERDICT_RETRIEVABLE
    assert rep.failing_partition is None
    fr, on_first = two_plane_frame(30, seed=31)
    rep = certify_real(fr)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert_failing_partition(fr, rep.failing_partition)
    assert rep.failing_partition == tuple(int(b) for b in on_first)


def test_certify_real_wraps_the_complement_check():
    rep = certify_real(r3_example())
    assert rep.verdict == VERDICT_RETRIEVABLE
    assert rep.method == "complement"
    assert rep.failing_partition is None
    sub = ComplexFrame.from_vectors(r3_example().vectors[:5], field="real")
    rep = certify_real(sub)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.failing_partition is not None
    assert rep.failing_partition[0] == 1


def test_hmw_lower_bound_reference_values():
    expected = {1: 2, 2: 4, 3: 8, 4: 10, 5: 16, 8: 24, 11: 39}
    for n, value in expected.items():
        bounds = hmw_lower_bound(n)
        assert bounds.hmw_lower == value
        assert bounds.two_n == 2 * n
        assert bounds.conjectured_critical == 4 * n - 4
        assert bounds.generic_upper == 4 * n - 2
    with pytest.raises(ValueError):
        hmw_lower_bound(0)


def test_hmw_lower_bound_never_exceeds_generic_count():
    for n in range(1, 65):
        bounds = hmw_lower_bound(n)
        assert bounds.hmw_lower <= bounds.generic_upper


def test_oracle_finds_counterexample_on_trivial_frame():
    fr = trivial_non_retrievable(2, 4)
    pair = injectivity_sampling_oracle(fr, trials=50, seed=1)
    assert pair is not None
    x, y = pair
    mx = np.abs(fr.vectors.conj() @ x) ** 2
    my = np.abs(fr.vectors.conj() @ y) ** 2
    assert np.linalg.norm(mx - my) <= 1e-8
    ray_gap = (np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2
               - 2.0 * abs(np.sum(x * y.conj())))
    assert np.sqrt(max(ray_gap, 0.0)) >= 1e-4


def test_oracle_matches_hand_built_counterexample():
    # x = e1 + e2 and y = e1 - e2 collide on the trivial family
    fr = trivial_non_retrievable(2, 4)
    x = np.array([1.0 + 0j, 1.0])
    y = np.array([1.0 + 0j, -1.0])
    mx = np.abs(fr.vectors.conj() @ x) ** 2
    my = np.abs(fr.vectors.conj() @ y) ** 2
    np.testing.assert_array_equal(mx, my)
    assert abs(np.sum(x * y.conj())) < np.linalg.norm(x) * np.linalg.norm(y)


def test_oracle_finds_nothing_on_certified_frames():
    assert injectivity_sampling_oracle(bh(2), trials=1000, seed=3) is None
    single = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    assert injectivity_sampling_oracle(single, trials=100, seed=4) is None


def sequential_oracle_draws(seed, trials, n):
    """Targets x and starts eta drawn trial by trial: x by _random_complex,
    then the 2n start entries."""
    rng = np.random.default_rng(seed)
    xs, etas = [], []
    for _ in range(trials):
        xs.append(certify_module._random_complex(rng, n))
        etas.append(rng.standard_normal(2 * n))
    return np.array(xs), np.array(etas)


def test_oracle_draws_targets_and_starts_from_the_sequential_stream(monkeypatch):
    fr = trivial_non_retrievable(3, 8)
    seen = []
    real = certify_module._gauss_newton

    def spy(rf, targets, E):
        seen.append((targets.copy(), E.copy()))
        return real(rf, targets, E)

    monkeypatch.setattr(certify_module, "_gauss_newton", spy)
    x, _ = injectivity_sampling_oracle(fr, trials=20, seed=11)
    xs, etas = sequential_oracle_draws(11, 20, fr.n)
    targets, E = seen[0]
    np.testing.assert_array_equal(E, etas)
    np.testing.assert_allclose(targets, np.abs(xs @ fr.vectors.conj().T) ** 2, rtol=1e-14)
    # the lowest-numbered trial that passes is the first one here
    np.testing.assert_array_equal(x, xs[0])


@pytest.mark.parametrize("fr", [trivial_non_retrievable(2, 4), trivial_non_retrievable(3, 8)],
                         ids=["trivial-2-4", "trivial-3-8"])
def test_oracle_pair_does_not_depend_on_the_number_of_trials(fr):
    # the first chunk holds k trials in one call and 2k (or a full chunk)
    # in the other, so each trial's run must not depend on the rest
    for k in (1, 5, 40):
        for seed in (1, 2, 3):
            first = injectivity_sampling_oracle(fr, trials=k, seed=seed)
            if first is None:
                continue
            again = injectivity_sampling_oracle(fr, trials=2 * k, seed=seed)
            assert again is not None
            np.testing.assert_array_equal(first[0], again[0])
            np.testing.assert_array_equal(first[1], again[1])


NO_SCIPY = """
import importlib.abc, sys

class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, Block())
from framecert import (BodmannHammenParams, bodmann_hammen, certify_complex,
                       injectivity_sampling_oracle, stability_experiment,
                       trivial_non_retrievable)
bh2 = bodmann_hammen(BodmannHammenParams(n=2))
trivial = trivial_non_retrievable(2, 4)
assert certify_complex(bh2, starts=8).verdict == "Retrievable"
assert certify_complex(trivial, starts=8).verdict == "NotRetrievable"
assert stability_experiment(bh2, trials=3, starts=8).failures == 0
assert injectivity_sampling_oracle(bh2, trials=20) is None
assert injectivity_sampling_oracle(trivial, trials=20) is not None
assert "scipy" not in sys.modules
print("ok")
"""


def test_certification_and_oracle_run_without_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_newton_model_at_a_direction_where_r_vanishes():
    # R(xi) = 0 where xi is orthogonal to every vector of a family that
    # does not span; the run must stop at once, without a 0/0
    rf = RealifiedFrame.from_frame(ComplexFrame.from_vectors(np.array([[1.0, 0.0], [2.0, 0.0]])))
    xi = np.array([[0.0, 1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, used, stopped = certify_module._polish(rf, xi, 10)
        a0, witness = estimate_a0(rf, starts=8)
    np.testing.assert_array_equal(out, xi)
    assert used.tolist() == [0] and stopped.tolist() == [True]
    assert a0 == 0.0
    assert np.linalg.eigvalsh(r_matrix(rf, witness))[1] <= 1e-15


def test_oracle_agrees_with_verdicts_on_reference_frames():
    cases = [
        (bh(2), VERDICT_RETRIEVABLE),
        (trivial_non_retrievable(2, 4), VERDICT_NOT_RETRIEVABLE),
        (trivial_non_retrievable(3, 8), VERDICT_NOT_RETRIEVABLE),
    ]
    for fr, expected in cases:
        verdict = certify_complex(fr, starts=16).verdict
        assert verdict == expected
        pair = injectivity_sampling_oracle(fr, trials=30, seed=5)
        if verdict == VERDICT_RETRIEVABLE:
            assert pair is None
        else:
            assert pair is not None
