"""Certification pipeline: margin estimation, verdicts, witnesses."""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from framecert import certify as certify_module
from framecert import lifted as lifted_module
from framecert import (
    TAU_PR,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_RETRIEVABLE,
    VERDICT_RETRIEVABLE,
    BodmannHammenParams,
    CertificationReport,
    ComplementResult,
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
    lifted_certificate,
    magnitude_separation_check,
    r3_example,
    r_matrix,
    rank_by_svd,
    rank_kernel_check,
    random_frame,
    r_matrices,
    realify,
    stability_experiment,
    transform_frame,
    trivial_non_retrievable,
    unrealify,
)
from framecert.cli import _json_default
from test_lifted import c2_margin_is_at_least


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


def block_min_eig(rf, X):
    vals, vecs, _ = certify_module._deflated_eigh(rf, X)
    return vecs[:, :, 0], vals[:, 0]


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
        Xa, _ = block_min_eig(rf, X[active])
        Xa, v = block_min_eig(rf, Xa)
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
    assert estimate_a0(rf, starts=8).a0 <= block_descent_oracle(rf, 8) * (1.0 + 1e-9)


@pytest.mark.parametrize("name", sorted(k for k, (_, s) in ORACLE_FRAMES.items() if s is not None))
def test_shorter_block_descent_finds_no_higher_margin(monkeypatch, name):
    n, seed = ORACLE_FRAMES[name]
    rf = RealifiedFrame.from_frame(random_frame(n, 4 * n - 2, seed=seed))
    short = estimate_a0(rf, starts=8).a0
    monkeypatch.setattr(certify_module, "BLOCK_ITERS", 100)
    assert short <= estimate_a0(rf, starts=8).a0 * (1.0 + 1e-9)


def test_bh2_search_does_not_depend_on_the_block_cap(monkeypatch):
    # every start of BH n=2 stops in the block descent within either cap
    rf = RealifiedFrame.from_frame(bh(2))
    short = estimate_a0(rf)
    monkeypatch.setattr(certify_module, "BLOCK_ITERS", 100)
    long = estimate_a0(rf)
    assert short.a0 == long.a0 and short.diagnostics == long.diagnostics
    assert np.array_equal(short.witness, long.witness)


def test_max_iter_is_the_budget_over_both_phases():
    rf = RealifiedFrame.from_frame(bh(6))
    cap = certify_module.BLOCK_ITERS
    for max_iter in (cap // 2, cap, cap + 60):
        d = estimate_a0(rf, starts=2, max_iter=max_iter).diagnostics
        assert d.block_iterations == min(max_iter, cap)
        assert d.block_iterations + d.polish_iterations <= max_iter
        assert d.best_iterations <= max_iter
    short = estimate_a0(rf, starts=2, max_iter=cap // 2).diagnostics
    assert (short.polish_iterations, short.hit_budget) == (0, 2)
    assert short.best_hit_budget
    # with no Newton budget a start that stops on its decrease just stops;
    # on this kernel frame every start stops at iteration 2
    kernel = RealifiedFrame.from_frame(trivial_non_retrievable(3, 8))
    flat = estimate_a0(kernel, starts=16, max_iter=cap).diagnostics
    assert (flat.polish_iterations, flat.hit_budget, flat.block_iterations) == (0, 0, 2)


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
        # on these frames some start does not join (on a one-vector frame every
        # start can); a start that used the whole budget did not join
        assert 0 <= d.joined < 16
        assert 0 <= d.hit_budget <= d.starts - d.joined
        assert d.block_iterations <= certify_module.BLOCK_ITERS
        assert d.best_iterations <= d.block_iterations + d.polish_iterations
        assert 1 <= d.best_basin_starts <= d.starts
        again = estimate_a0(RealifiedFrame.from_frame(fr), starts=16)
        assert again.diagnostics == d and again.a0 == estimate.a0
        copied = pickle.loads(pickle.dumps(estimate))
        assert copied.diagnostics == d and copied.a0 == estimate.a0
        np.testing.assert_array_equal(copied.witness, estimate.witness)
        a0, witness = copied
        assert a0 == estimate.a0 and witness is copied.witness
    # BH n=2 converges in the block descent, so the one start that does not
    # join takes no Newton step; BH n=5 needs the Newton phase
    d = estimate_a0(RealifiedFrame.from_frame(bh(2)), starts=16).diagnostics
    assert (d.joined, d.polish_iterations) == (15, 0)
    assert estimate_a0(RealifiedFrame.from_frame(bh(5)), starts=16).diagnostics.polish_iterations > 0
    # every start of BH n=2 ends at the one minimizing matrix x w* + w x*
    assert estimate_a0(RealifiedFrame.from_frame(bh(2)), starts=16).diagnostics.best_basin_starts == 16


def test_bh2_starts_join_the_leading_basin_in_the_block_descent():
    d = estimate_a0(RealifiedFrame.from_frame(bh(2)), starts=64).diagnostics
    assert (d.joined, d.polish_iterations) == (63, 0)
    assert d.best_basin_starts == 64


def test_kernel_starts_share_the_best_basin_to_rounding():
    # lambda_2 is +-1e-16 at these kernel points, so only the rounding
    # floor lets starts at the best start's matrix count as level with it
    d = estimate_a0(RealifiedFrame.from_frame(random_frame(3, 7, seed=1)), starts=64).diagnostics
    assert d.best_basin_starts > 1


def test_joined_starts_count_in_the_basin_of_the_start_they_joined():
    rng = np.random.default_rng(3)
    xa, wa, xb, wb = rng.standard_normal((4, 4))
    # row 0 is best; rows 0 and 2 end at one matrix, rows 1, 3, 4 and 5 at
    # another; 2 joined 1, 5 joined 2, 3 joined 0 and 4 joined 3
    X = np.array([xa, xb, xa, xb, xb, xb])
    W = np.array([wa, wb, wa, wb, wb, wb])
    joined_to = np.array([-1, -1, 1, 0, 3, 2])
    ones = np.ones(6)
    counts = certify_module._basin_counts(X, W, ones, ones, np.array([0]), joined_to, 6)
    assert counts.tolist() == [3]
    alone = certify_module._basin_counts(X, W, ones, ones, np.array([0]), np.full(6, -1), 6)
    assert alone.tolist() == [2]


def test_a_cycle_of_joins_counts_in_the_basin_of_the_best_row():
    # a leader converged to rounding can join a start that joined it, so
    # joins can close in a cycle, with no start left unjoined
    rng = np.random.default_rng(4)
    x, w = rng.standard_normal((2, 4))
    X, W, ones = np.tile(x, (3, 1)), np.tile(w, (3, 1)), np.ones(3)
    for best in range(3):
        counts = certify_module._basin_counts(X, W, ones, ones, np.array([best]),
                                              np.array([1, 2, 0]), 3)
        assert counts.tolist() == [3]
    # a frame in C^2 whose 64 starts all join, in a cycle through the best one
    rng = np.random.default_rng(6765)
    m = int(rng.integers(4, 10))
    V = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    V[:, 1] *= 10.0 ** rng.uniform(-3, 0)
    d = estimate_a0(RealifiedFrame.from_frame(ComplexFrame.from_vectors(V)), starts=64).diagnostics
    assert d.joined == d.best_basin_starts == 64


def _zero_to_rounding(fr, report):
    spectrum = np.linalg.eigvalsh(r_matrix(RealifiedFrame.from_frame(fr), report.witness_xi))
    return report.a0 <= 2 * fr.n * np.finfo(float).eps * spectrum[-1]


JOIN_FRAMES = {
    "bh2": lambda: bh(2),
    "bh3": lambda: bh(3),
    "bh4": lambda: bh(4),
    "bh3-verbatim": lambda: bh(3, "verbatim"),
    "random3-m10": lambda: random_frame(3, 10, seed=1),
    "random4-m14": lambda: random_frame(4, 14, seed=1),
    "random3-m7": lambda: random_frame(3, 7, seed=1),
}


def searched_report(fr, starts):
    """certify_complex's verdict on the margin of the search, also in C^2,
    where certify_complex takes the margin in closed form."""
    rf = RealifiedFrame.from_frame(fr)
    estimate = estimate_a0(rf, starts=starts)
    spectrum = np.linalg.eigvalsh(r_matrix(rf, estimate.witness))
    return certify_module._decide(fr.vectors[None], np.zeros(1, dtype=int), np.array([estimate.a0]),
                                  estimate.witness[None], spectrum[None], [42],
                                  [estimate.diagnostics])[0]


@pytest.mark.parametrize("starts", [16, 64])
@pytest.mark.parametrize("name", sorted(JOIN_FRAMES))
def test_joining_keeps_verdict_and_margin(monkeypatch, name, starts):
    fr = JOIN_FRAMES[name]()
    joining = searched_report(fr, starts)
    monkeypatch.setattr(certify_module, "_join_leaders",
                        lambda *args: (np.empty(0, dtype=int),) * 2)
    alone = searched_report(fr, starts)
    assert alone.diagnostics.joined == 0
    assert joining.verdict == alone.verdict
    assert (joining.a0 == pytest.approx(alone.a0, rel=1e-12)
            or (_zero_to_rounding(fr, joining) and _zero_to_rounding(fr, alone)))


@pytest.mark.parametrize("starts", [16, 64])
@pytest.mark.parametrize("name", sorted(JOIN_FRAMES))
def test_every_start_that_does_not_join_goes_to_the_newton_phase(name, starts):
    d = estimate_a0(RealifiedFrame.from_frame(JOIN_FRAMES[name]()), starts=starts).diagnostics
    assert 0 <= d.joined < starts
    assert d.hit_budget <= starts - d.joined


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


def test_margin_estimate_is_a_frozen_record_not_a_tuple():
    names = [f.name for f in fields(certify_module.MarginEstimate)]
    assert names == ["a0", "witness", "diagnostics"]
    estimate = estimate_a0(RealifiedFrame.from_frame(bh(2)), starts=4)
    assert not isinstance(estimate, tuple)
    with pytest.raises(AttributeError):
        estimate.a0 = 0.0


def test_estimate_a0_is_seed_stable_on_certified_frame():
    rf = RealifiedFrame.from_frame(bh(2))
    values = [estimate_a0(rf, starts=32, seed=s).a0 for s in (1, 7, 42)]
    assert max(values) - min(values) < 1e-8 * max(values)


def test_estimate_a0_vanishes_on_non_retrievable_frame():
    rf = RealifiedFrame.from_frame(trivial_non_retrievable(2, 4))
    a0, witness = estimate_a0(rf, starts=16)
    assert a0 < 1e-10
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


def _worst_pair_ratio(fr, seed):
    # the cross-check's pairs, drawn pair by pair as x = (g_re + i g_im) /
    # sqrt(2), then y the same way
    rng = np.random.default_rng(seed)
    V, n = fr.vectors, fr.n
    ratios = []
    for _ in range(certify_module.CROSS_CHECK_PAIRS):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        left = np.sum((np.abs(V.conj() @ x) ** 2 - np.abs(V.conj() @ y) ** 2) ** 2)
        inner = np.sum(x * y.conj())
        factor = (np.linalg.norm(x - y) ** 2 * np.linalg.norm(x + y) ** 2
                  - 4.0 * inner.imag ** 2)
        if factor > 1e-12:
            ratios.append(left / factor)
    return min(ratios)


def test_lifted_reports_draw_no_cross_check_pair(monkeypatch):
    # the closed form's a0 is the minimum of every pair's separation ratio,
    # so no C^2 certification draws cross-check pairs, and the seed leaves
    # its report alone, byte for byte
    def unreachable(*args):
        raise AssertionError("a lifted margin drew cross-check pairs")

    monkeypatch.setattr(certify_module, "_random_pairs", unreachable)
    for fr in (bh(2), bh(2, "verbatim"), random_frame(2, 9, seed=1)):
        reports = [certify_complex(fr, starts=16, seed=seed) for seed in (1, 5)]
        assert reports[0].method == "lifted"
        assert pickle.dumps(reports[0]) == pickle.dumps(reports[1])
    report = stability_experiment(bh(2), trials=100)
    assert len(report.trials) == 100


def test_cross_check_downgrades_an_optimistic_searched_margin(monkeypatch):
    # an estimate a hundred times the true margin must be caught by the
    # random pairs and replaced by their worst ratio; only a margin the
    # search finds is cross-checked, here in C^3, where no seed from 0 to
    # 299 gives a worst ratio below 19 times the true margin
    fr = bh(3)
    true_a0 = certify_complex(fr, starts=16).a0
    real_estimate = certify_module.estimate_a0

    def optimistic(*args, **kwargs):
        estimate = real_estimate(*args, **kwargs)
        return certify_module.MarginEstimate(100.0 * estimate.a0, estimate.witness,
                                             estimate.diagnostics)

    monkeypatch.setattr(certify_module, "estimate_a0", optimistic)
    seed = 5
    rep = certify_complex(fr, starts=16, seed=seed)
    worst = _worst_pair_ratio(fr, seed)
    assert true_a0 <= worst < 100.0 * true_a0
    assert rep.a0 == pytest.approx(worst, rel=1e-12)
    assert rep.verdict == (VERDICT_RETRIEVABLE if worst > TAU_PR else VERDICT_INCONCLUSIVE)


def test_certify_cardinality_precheck():
    fr = random_frame(3, 5, seed=2)
    rep = certify_complex(fr)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.method == "cardinality"
    assert rep.a0 is None
    assert rep.kernel_excess is None


def test_a_stack_below_the_cardinality_gate_is_decided_by_its_shape(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the margin of a stack below the gate was computed")

    monkeypatch.setattr(lifted_module, "_c2_margins", unreachable)
    V = np.stack([random_frame(2, 3, seed=s).vectors for s in range(3)])
    reports = certify_module._certify_frames(V, 8, [1, 2, 3])
    assert [(rep.verdict, rep.method, rep.a0) for rep in reports] == [
        (VERDICT_NOT_RETRIEVABLE, "cardinality", None)] * 3


@pytest.mark.parametrize("starts", [0, -3])
def test_starts_is_checked_before_the_prechecks(starts):
    # the cardinality precheck would otherwise answer before the search
    # ever looks at starts
    for fr in (trivial_non_retrievable(3, 5), bodmann_hammen(BodmannHammenParams(n=2))):
        with pytest.raises(ValueError, match=f"starts must be >= 1, got {starts}"):
            certify_complex(fr, starts=starts)


@pytest.mark.parametrize("n", [2, 3])
def test_a_negative_seed_is_refused_on_every_route(n):
    # in C^2 the closed form reads no seed, and in C^3 numpy's generator
    # would refuse it without naming the parameter
    for call in (lambda: certify_complex(bh(n), starts=2, seed=-1),
                 lambda: estimate_a0(RealifiedFrame.from_frame(bh(n)), starts=2, seed=-1),
                 lambda: stability_experiment(bh(n), trials=2, starts=2, seed=-3)):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -\d"):
            call()


@pytest.mark.parametrize("n", [3, 4])
def test_the_oracle_checks_its_arguments_on_every_frame(n):
    # BH n=3 is proved by the lifted certificate, which answers before any
    # search; BH n=4 is left to the search, whose parameter is starts
    for kwargs, message in (({"trials": 0}, "trials must be >= 1, got 0"),
                            ({"trials": -5, "seed": -1}, "trials must be >= 1, got -5"),
                            ({"trials": 4, "seed": -1}, "seed must be >= 0, got -1")):
        with pytest.raises(ValueError, match=message):
            injectivity_sampling_oracle(bh(n), **kwargs)


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
    rep = certify_complex(bh(3), starts=16)
    assert rep.verdict == VERDICT_RETRIEVABLE
    assert rep.method == "eigen"
    assert rep.a0 > TAU_PR
    assert abs(np.linalg.norm(rep.witness_xi) - 1.0) < 1e-12
    # a numpy integer budget reaches the diagnostics as a Python int
    rep = certify_complex(bh(3), starts=np.int64(8))
    doc = json.loads(json.dumps(rep, default=_json_default))
    assert doc["diagnostics"]["starts"] == 8
    # in C^2 the margin comes in closed form, with no search to diagnose
    rep = certify_complex(bh(2), starts=16)
    assert (rep.verdict, rep.method, rep.diagnostics) == (VERDICT_RETRIEVABLE, "lifted", None)
    assert rep.a0 > TAU_PR
    assert abs(np.linalg.norm(rep.witness_xi) - 1.0) < 1e-12


def test_lifted_margin_of_a_nearly_rank_one_frame():
    # with the second column scaled by 10^-8.5 the frame still passes the
    # rank precheck, and 1 - |t| is about 1e-17, below the rounding of t:
    # on these three frames the computed |t| comes out at 1 + eps
    for seed in (22, 25, 32):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 10))
        V = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        V[:, 1] *= 10.0 ** -8.5
        fr = ComplexFrame.from_vectors(V)
        rep = certify_complex(fr, starts=64)
        assert (rep.verdict, rep.method) == (VERDICT_NOT_RETRIEVABLE, "lifted")
        assert np.all(np.isfinite(rep.witness_xi))
        assert _zero_to_rounding(fr, rep)
        assert searched_report(fr, 64).verdict == VERDICT_NOT_RETRIEVABLE


def test_certify_not_retrievable_requires_kernel_witness():
    rep = certify_complex(trivial_non_retrievable(2, 4), starts=16)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    # kernel_excess is derived from the witness, not stored
    assert "kernel_excess" not in {f.name for f in fields(CertificationReport)}
    assert rep.kernel_excess is rep.witness_xi is not None
    rf = RealifiedFrame.from_frame(trivial_non_retrievable(2, 4))
    assert rank_kernel_check(rf, rep.kernel_excess).kernel_dim >= 2


def test_certify_inconclusive_band():
    # a frame whose margin sits between the two thresholds must stay
    # undecided; Bodmann-Hammen n=3 with the verbatim angles lands there
    rep = certify_complex(bh(3, "verbatim"), starts=32)
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_inconclusive_report_carries_no_kernel_excess():
    # only a NotRetrievable verdict asserts a kernel beyond J xi
    rep = certify_complex(bh(3, "verbatim"), starts=8)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.kernel_excess is None


@pytest.mark.parametrize("k", range(-12, 13, 2))
def test_a_witness_zero_to_rounding_is_not_retrievable_at_every_scale(k):
    # lambda_2 <= 2n eps lambda_max is tested before TAU_PR, so a large
    # scale cannot lift a kernel point's rounding noise above the threshold,
    # and every start that does not join, the leader included, is finished
    # in the Newton phase, whose stopping rules scale with the frame.  The two random frames have
    # fewer vectors than hmw_lower (10 and 18), so no scale of them is
    # retrievable.
    for fr in (trivial_non_retrievable(2, 4), trivial_non_retrievable(3, 10),
               ComplexFrame.from_vectors(r3_example().vectors, field="complex"),
               random_frame(4, 8, seed=105), random_frame(6, 13, seed=102)):
        scaled = ComplexFrame.from_vectors(fr.vectors * 2.0 ** k, field="complex")
        for starts in (2, 8):
            rep = certify_complex(scaled, starts=starts)
            assert rep.verdict == VERDICT_NOT_RETRIEVABLE
            assert rep.kernel_excess is not None


def test_rescaling_by_extreme_powers_of_two():
    # the search runs on the frame scaled exactly to entries in [1/2, 1):
    # at 2^-300, R(xi) of BH frames no longer underflows to a false kernel,
    # and at 2^300 a NotRetrievable frame is still certified, while a
    # margin that overflows a float is refused rather than breaking eigh
    for fr in (bh(2), bh(3)):
        tiny = ComplexFrame.from_vectors(fr.vectors * 2.0 ** -300, field="complex")
        rep = certify_complex(tiny, starts=8)
        assert rep.verdict != VERDICT_NOT_RETRIEVABLE
        assert rep.a0 == 0.0
    for k in (-300, 300):
        scaled = ComplexFrame.from_vectors(trivial_non_retrievable(3, 10).vectors * 2.0 ** k,
                                           field="complex")
        rep = certify_complex(scaled, starts=8)
        assert rep.verdict == VERDICT_NOT_RETRIEVABLE
        assert rep.kernel_excess is not None
    huge = ComplexFrame.from_vectors(bh(2).vectors * 2.0 ** 300, field="complex")
    with pytest.raises(FramecertError, match="overflows"):
        certify_complex(huge, starts=8)


def test_cross_check_keeps_every_pair_near_the_top_of_the_range():
    # the cross-check runs on the scaled frame, so no separation side
    # overflows (the suite turns RuntimeWarning into an error) and a0
    # scales as the fourth power of the factor
    for n in (2, 3):
        fr = bh(n)
        huge = ComplexFrame.from_vectors(fr.vectors * 1e77, field="complex")
        rep = certify_complex(huge, starts=2)
        assert rep.verdict == VERDICT_RETRIEVABLE
        assert rep.a0 == pytest.approx(certify_complex(fr, starts=2).a0 * 1e308, rel=1e-12)


def test_kernel_point_is_not_retrievable_where_its_margin_overflows():
    # at 2 starts the scaled margin is rounding noise (3.35e-17) rather
    # than 0, and scaled back by 2^1204 it overflows: the verdict stands,
    # without a0; at 8 starts the scaled margin is 0
    base = random_frame(3, 7, seed=0)
    fr = ComplexFrame.from_vectors(base.vectors * 2.0 ** 300, field="complex")
    rep = certify_complex(fr, starts=2)
    assert (rep.verdict, rep.a0) == (VERDICT_NOT_RETRIEVABLE, None)
    assert rank_kernel_check(RealifiedFrame.from_frame(base), rep.kernel_excess).kernel_dim >= 2
    rep = certify_complex(fr, starts=8)
    assert (rep.verdict, rep.a0) == (VERDICT_NOT_RETRIEVABLE, 0.0)


def test_certify_real_frame_treated_over_c_is_not_retrievable():
    # conjugation preserves all magnitudes against real vectors, so a real
    # frame can never separate complex rays
    fr = ComplexFrame.from_vectors(r3_example().vectors, field="complex")
    rep = certify_complex(fr, starts=16)
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.a0 < 1e-10


def test_bh5_is_inconclusive_with_an_explicit_separation_witness():
    # the margin search finds xi with lambda_2(R(xi)) below TAU_PR, and the
    # pair xi +- eps w, w the eigenvector of lambda_2, has separation ratio
    # lambda_2 for every eps: it violates the inequality at TAU_PR
    fr = bh(5)
    rep = certify_complex(fr, starts=64)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert 1e-10 < rep.a0 < TAU_PR
    rf = RealifiedFrame.from_frame(fr)
    xi = rep.witness_xi
    vals, vecs = np.linalg.eigh(r_matrix(rf, xi))
    w = vecs[:, 1]
    x, y = unrealify(xi + 0.1 * w), unrealify(xi - 0.1 * w)
    left, factor = certify_module.separation_sides(fr, x[None, :], y[None, :])
    assert left[0] / factor[0] == pytest.approx(vals[1], rel=1e-6)
    assert not magnitude_separation_check(fr, TAU_PR, x, y)


def test_an_unresolved_margin_is_not_declared_not_retrievable():
    # BH n=4 with the verbatim angles falls below 1e-10 at 64 starts with
    # a two-dimensional kernel at RANK_RTOL, but lambda_2 / lambda_max stays
    # far above 2n eps once the Newton phase has finished its leader
    fr = bh(4, "verbatim")
    rep = certify_complex(fr, starts=64)
    assert rep.a0 < 1e-10
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
    # scaled by 1000, its margin noise is above TAU_PR but still zero to rounding
    scaled = ComplexFrame.from_vectors(fr.vectors * 1000.0)
    assert certify_complex(scaled, starts=64).verdict == VERDICT_NOT_RETRIEVABLE


@pytest.mark.parametrize("n, c", [(2, 1e4), (2, 1e8), (3, 1e5), (3, 1e8)])
def test_one_long_vector_does_not_make_a_proved_frame_not_retrievable(n, c):
    # vector 0 times c sets lambda_max, so lambda_2 at the witness (of the
    # closed form in C^2, of the search in C^3) is zero to its rounding;
    # the lifted certificate, on the vectors each scaled to unit length,
    # proves the frame retrievable and vetoes NotRetrievable
    V = bh(n).vectors.copy()
    V[0] *= c
    fr = ComplexFrame.from_vectors(V)
    rep = certify_complex(fr, starts=8)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.kernel_excess is None
    if n == 2:
        # the closed form's margin is its own, not lambda_2 read again
        assert rep.a0 >= lifted_certificate(fr).a0_lower
        assert c2_margin_is_at_least(V, rep.a0 * (1.0 - 1e-12))
        assert not c2_margin_is_at_least(V, rep.a0 * (1.0 + 1e-12))


def test_the_certificate_runs_only_where_the_witness_is_zero_to_rounding(monkeypatch):
    calls = []

    def counting(fr):
        calls.append(fr.m)
        return lifted_certificate(fr)

    monkeypatch.setattr(lifted_module, "lifted_certificate", counting)
    for fr in (bh(2), bh(3), bh(3, "verbatim"), random_frame(4, 14, seed=0)):
        assert certify_complex(fr, starts=8).verdict != VERDICT_NOT_RETRIEVABLE
    assert calls == []
    assert certify_complex(trivial_non_retrievable(3, 10), starts=8).verdict == (
        VERDICT_NOT_RETRIEVABLE)
    assert calls == [10]


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


def test_complement_property_reference_family():
    assert complement_property(r3_example()).holds
    # holds is derived from the partition, not stored
    assert [f.name for f in fields(ComplementResult)] == ["failing_partition"]
    assert not ComplementResult(failing_partition=(1, 0)).holds


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


def test_complement_property_decides_a_frame_at_the_cap():
    # C(200, 2) = 19,900 candidates, the most of any m in R^3 under the cap
    V = np.random.default_rng(200).standard_normal((200, 3))
    assert math.comb(200, 2) <= certify_module.COMPLEMENT_MAX_CANDIDATES < math.comb(201, 2)
    assert complement_property(ComplexFrame.from_vectors(V, field="real")).holds


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
    assert rep.kernel_excess is None
    assert rep.failing_partition[0] == 1


def test_hmw_lower_bound_reference_values():
    expected = {1: 1, 2: 4, 3: 8, 4: 10, 5: 16, 8: 24, 11: 39}
    for n, value in expected.items():
        bounds = hmw_lower_bound(n)
        assert bounds.hmw_lower == value
        assert bounds.two_n == 2 * n
        assert bounds.conjectured_critical == (1 if n == 1 else 4 * n - 4)
        assert bounds.generic_upper == 4 * n - 2
    with pytest.raises(ValueError):
        hmw_lower_bound(0)


def test_single_vector_line_meets_hmw_lower():
    # one nonzero vector in C^1 is retrievable, so the bound must admit it
    one = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]), field="complex")
    assert one.m >= hmw_lower_bound(1).hmw_lower
    assert certify_complex(one, starts=8).verdict == VERDICT_RETRIEVABLE


def test_hmw_lower_bound_never_exceeds_generic_count():
    for n in range(1, 65):
        bounds = hmw_lower_bound(n)
        assert bounds.hmw_lower <= bounds.conjectured_critical <= bounds.generic_upper


def assert_counterexample(fr, pair):
    """The pair has equal magnitudes and distinct rays, checked in numpy."""
    assert pair is not None
    x, y = pair
    mx = np.abs(fr.vectors.conj() @ x) ** 2
    my = np.abs(fr.vectors.conj() @ y) ** 2
    assert np.linalg.norm(mx - my) <= certify_module.ORACLE_MATCH_TOL
    ray_gap = (np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2
               - 2.0 * abs(np.sum(x * y.conj())))
    assert np.sqrt(max(ray_gap, 0.0)) >= certify_module.ORACLE_RAY_TOL


def test_oracle_finds_counterexample_on_trivial_frame():
    non_spanning = ComplexFrame.from_vectors(np.array([[1.0, 0.0], [2.0, 0.0]]))
    for fr in (trivial_non_retrievable(2, 4), non_spanning):
        assert_counterexample(fr, injectivity_sampling_oracle(fr, trials=50, seed=1))


@pytest.mark.parametrize("n, m, seed", [(3, 7, 2), (3, 7, 3), (5, 15, 3), (4, 11, 0)])
def test_oracle_finds_counterexample_on_known_non_retrievable_frames(n, m, seed):
    # generic frames proven non-retrievable: the first three lie below
    # hmw_lower(n), and an interval Newton (Krawczyk) test encloses an
    # exact kernel point of the last
    fr = random_frame(n, m, seed=seed)
    assert_counterexample(fr, injectivity_sampling_oracle(fr, trials=16))


def test_oracle_finds_a_pair_exactly_on_not_retrievable_frames():
    # 60 random frames, n = 2..4, m = 2n..4n-3: the pair is the margin
    # search's witness, so it exists exactly when the verdict says so, and
    # on every frame below hmw_lower, which cannot be retrievable
    for n in (2, 3, 4):
        for m in range(2 * n, 4 * n - 2):
            for s in range(5):
                fr = random_frame(n, m, seed=s)
                verdict = certify_complex(fr, starts=16, seed=1).verdict
                pair = injectivity_sampling_oracle(fr, trials=16, seed=1)
                if m < hmw_lower_bound(n).hmw_lower:
                    assert verdict == VERDICT_NOT_RETRIEVABLE, (n, m, s)
                if verdict == VERDICT_NOT_RETRIEVABLE:
                    assert_counterexample(fr, pair)
                else:
                    assert pair is None, (n, m, s, verdict)


@pytest.mark.parametrize("fr, scale", [(bh(3), c) for c in (1e-4, 1e-2, 1.0, 1e3)]
                         + [(bh(4), c) for c in (1e-4, 1.0, 1e3)]
                         + [(trivial_non_retrievable(2, 4), c) for c in (1e-4, 1.0, 1e5)],
                         ids=lambda v: str(v) if isinstance(v, float) else f"n{v.n}-m{v.m}")
def test_oracle_answer_does_not_depend_on_the_frame_scale(fr, scale):
    # scaling a frame changes neither its retrievability nor its pairs; the
    # certificate settles BH n=3, and BH n=4 (d = 4) goes to the search
    scaled = ComplexFrame.from_vectors(scale * fr.vectors)
    pair = injectivity_sampling_oracle(scaled, trials=8 if fr.n > 2 else 16, seed=1)
    if fr.n > 2:
        assert pair is None
        return
    assert pair is not None
    x, y = pair
    # the match is checked on the frame scaled into [1/2, 1)
    mx, my = (np.abs(scaled.vectors.conj() @ v) ** 2 for v in (x, y))
    assert np.linalg.norm(mx - my) <= (certify_module.ORACLE_MATCH_TOL
                                       * (2.0 * np.abs(scaled.vectors).max()) ** 2)
    ray_gap = np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2 - 2.0 * abs(np.sum(x * y.conj()))
    assert np.sqrt(max(ray_gap, 0.0)) >= certify_module.ORACLE_RAY_TOL


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
    # d = 4: the certificate leaves BH n=4 to the search
    assert injectivity_sampling_oracle(bh(4), trials=64, seed=3) is None
    single = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    assert injectivity_sampling_oracle(single, trials=100, seed=4) is None


def test_oracle_returns_nothing_on_frames_the_certificate_proves():
    # the search used to return a pair on each: BH n=3 verbatim certifies
    # Inconclusive, and with vector 0 times 1e3 BH n=3 certifies Retrievable
    for seed in (1, 2, 3):
        assert injectivity_sampling_oracle(bh(3, "verbatim"), trials=16, seed=seed) is None
    for c in (1e3, 1e5, 1e8):
        V = bh(3).vectors.copy()
        V[0] *= c
        assert injectivity_sampling_oracle(ComplexFrame.from_vectors(V), trials=16, seed=1) is None


def test_oracle_searches_exactly_the_frames_the_certificate_leaves(monkeypatch):
    calls = []
    search = certify_module.estimate_a0

    def counting(rf, *args, **kwargs):
        calls.append(rf.phi.shape)
        return search(rf, *args, **kwargs)

    monkeypatch.setattr(certify_module, "estimate_a0", counting)
    proved = [bh(2), bh(3), bh(3, "verbatim"), random_frame(3, 9, seed=0),
              random_frame(4, 15, seed=0)]
    unproved = [bh(4), random_frame(3, 7, seed=2), trivial_non_retrievable(2, 4),
                trivial_non_retrievable(3, 8)]
    for fr in proved:
        assert lifted_certificate(fr).proved
        assert injectivity_sampling_oracle(fr, trials=4, seed=1) is None
    assert calls == []
    for k, fr in enumerate(unproved, 1):
        assert not lifted_certificate(fr).proved
        injectivity_sampling_oracle(fr, trials=4, seed=1)
        assert len(calls) == k


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
        out, _, used, stopped = certify_module._polish(rf, xi, 10)
        a0, witness = estimate_a0(rf, starts=8)
    np.testing.assert_array_equal(out, xi)
    assert used.tolist() == [0] and stopped.tolist() == [True]
    assert a0 == 0.0
    assert np.linalg.eigvalsh(r_matrix(rf, witness))[1] <= 1e-15


def test_newton_phase_on_the_rows_of_only_the_last_frame_of_a_stack():
    # every start of a frame may end joined, so the Newton phase can be
    # handed rows of fewer frames than the stack holds
    rfs = [RealifiedFrame.from_frame(random_frame(3, 10, seed=s)) for s in (0, 1)]
    stack = certify_module._Stack(np.stack([rf.phi for rf in rfs]),
                                  np.stack([rf.Jphi for rf in rfs]), rfs[0].J, np.array([1]))
    X = certify_module._start_direction(5, 6)[None, :]
    stacked = certify_module._polish(stack, X, 50)
    alone = certify_module._polish(rfs[1], X, 50)
    for a, b in zip(stacked, alone):
        np.testing.assert_array_equal(a, b)
    # both frames hold rows, and at budget 50 the runs stop at different
    # steps, so each leaves the batch while others go on
    stack = certify_module._Stack(stack.phi, stack.Jphi, stack.J, np.array([0, 0, 0, 1, 1]))
    X = np.stack([certify_module._start_direction(s, 6) for s in range(5, 10)])
    for budget in (3, 50):
        stacked = certify_module._polish(stack, X, budget)
        alone = [certify_module._polish(rfs[0], X[:3], budget),
                 certify_module._polish(rfs[1], X[3:], budget)]
        for a, b, c in zip(stacked, *alone):
            np.testing.assert_array_equal(a, np.concatenate((b, c)))
    assert len(set(stacked[2].tolist())) > 1


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
