"""Stability radius, perturbation sampling, and the bound audits."""

from __future__ import annotations

import numpy as np
import pytest

from framecert import certify as certify_module
from framecert import (
    VERDICT_RETRIEVABLE,
    BodmannHammenParams,
    ComplexFrame,
    NotRetrievableInput,
    RealifiedFrame,
    ShapeMismatch,
    bodmann_hammen,
    certify_complex,
    complement_property,
    estimate_a0,
    frame_bounds,
    l_matrix,
    l_matrix_gap_audit,
    max_displacement,
    perturb_frame,
    r3_example,
    spanning_safe_radius,
    stability_experiment,
    stability_radius,
    trivial_non_retrievable,
)


def bh2():
    return bodmann_hammen(BodmannHammenParams(n=2))


def test_stability_radius_closed_form_for_single_vector():
    fr = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    info = stability_radius(fr, 1.0)
    assert abs(info.rho - 1.0 / (4.0 * 5.0**1.5)) < 1e-12
    assert info.B == 1.0
    assert info.a1 == 1.0
    assert info.m == 1


def test_stability_radius_invariants():
    fr = bh2()
    rep = certify_complex(fr, starts=16)
    info = stability_radius(fr, rep.a0)
    assert 0.0 < info.rho <= 1.0 / np.sqrt(fr.m)
    assert info.a1 == min(1.0, rep.a0)
    expected = min(1.0 / np.sqrt(fr.m),
                   info.a1 / (4.0 * (3.0 * info.B + 2.0) ** 1.5))
    assert info.rho == expected


def test_stability_radius_needs_positive_margin():
    fr = bh2()
    for bad in (0.0, -1.0, None):
        with pytest.raises(NotRetrievableInput):
            stability_radius(fr, bad)


def test_spanning_safe_radius_keeps_the_frame_property():
    fr = r3_example()
    bounds = frame_bounds(fr)
    expected = (np.sqrt(6 * (bounds.A + bounds.B)) - np.sqrt(6 * bounds.B)) / 6
    radius = spanning_safe_radius(fr)
    assert abs(radius - expected) < 1e-12
    for seed in range(10):
        moved = perturb_frame(fr, 0.99 * radius, seed=seed)
        assert moved.is_frame


def test_perturb_frame_is_seeded_and_strictly_inside_radius():
    fr = bh2()
    first = perturb_frame(fr, 0.05, seed=11)
    again = perturb_frame(fr, 0.05, seed=11)
    np.testing.assert_array_equal(first.vectors, again.vectors)
    other = perturb_frame(fr, 0.05, seed=12)
    assert np.any(other.vectors != first.vectors)
    deltas = np.linalg.norm(first.vectors - fr.vectors, axis=1)
    assert np.all(deltas < 0.05)
    assert np.all(deltas > 0.0)
    assert max_displacement(fr, first) == deltas.max()


def test_perturb_frame_preserves_real_field():
    fr = r3_example()
    moved = perturb_frame(fr, 0.01, seed=13)
    assert moved.field == "real"
    np.testing.assert_array_equal(moved.vectors.imag, 0.0)
    with pytest.raises(ValueError):
        perturb_frame(fr, 0.0)


def test_max_displacement_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        max_displacement(bh2(), r3_example())


def test_stability_experiment_inside_the_radius_never_fails():
    report = stability_experiment(bh2(), trials=10, starts=16, seed=5)
    assert report.failures == 0
    assert len(report.trials) == 10
    assert report.radius_fraction == 0.99
    for i, row in enumerate(report.trials):
        assert row.trial == i
        assert row.seed == 5 + i
        assert row.verdict == VERDICT_RETRIEVABLE
        assert 0.0 < row.max_delta < 0.99 * report.rho
        assert row.a0_estimate > 0.0
    assert report.b_prime_max == max(r.b_prime for r in report.trials)


@pytest.mark.parametrize("n, starts, trials, stack_entries", [
    (2, 16, 10, certify_module.STACK_ENTRIES),
    (2, 16, 10, 2 * 16 * 16),
    (4, 4, 4, certify_module.STACK_ENTRIES),
], ids=["bh2", "bh2-chunks-of-two", "bh4-newton-phase"])
def test_stability_experiment_rows_match_separate_certifications(monkeypatch, n, starts, trials,
                                                                 stack_entries):
    # the trials are certified as one stack (in chunks of two trials when
    # the entries hold two frames of 16 starts with m 2n = 16; BH n=4 at 4
    # starts reaches the Newton phase); each row must still be what
    # certify_complex gives on that trial's frame alone
    monkeypatch.setattr(certify_module, "STACK_ENTRIES", stack_entries)
    fr = bodmann_hammen(BodmannHammenParams(n=n))
    report = stability_experiment(fr, trials=trials, starts=starts, seed=5)
    r = report.radius_fraction * report.rho
    for row in report.trials:
        alone = certify_complex(perturb_frame(fr, r, seed=5 + row.trial), starts=starts,
                                seed=5 + row.trial)
        assert (row.verdict, row.a0_estimate) == (alone.verdict, alone.a0)


def test_stability_experiment_perturbs_through_the_module_name_in_trial_order(monkeypatch):
    from framecert import stability as stability_module

    seeds = []
    real = stability_module.perturb_frame

    def spy(fr, radius, seed=42):
        seeds.append(seed)
        return real(fr, radius, seed=seed)

    monkeypatch.setattr(stability_module, "perturb_frame", spy)
    stability_experiment(bh2(), trials=4, starts=8, seed=9)
    assert seeds == [9, 10, 11, 12]


def test_stability_experiment_csv_shape():
    report = stability_experiment(bh2(), trials=3, starts=8, seed=6)
    text = report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "trial,seed,max_delta,B_prime,verdict,a0_estimate"
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "6"
    # %.17g fields round-trip to the exact doubles
    assert float(cells[2]) == report.trials[0].max_delta
    assert float(cells[3]) == report.trials[0].b_prime
    assert "." in cells[2]


def test_stability_experiment_report_dict_carries_disclaimer():
    import json

    report = stability_experiment(bh2(), trials=2, starts=8, seed=7)
    doc = report.to_dict()
    json.dumps(doc)
    assert "not prove" in doc["disclaimer"]
    assert doc["failures"] == 0
    assert len(doc["trials"]) == 2


def test_stability_experiment_refuses_non_retrievable_base():
    with pytest.raises(NotRetrievableInput):
        stability_experiment(trivial_non_retrievable(2, 4), trials=2, starts=8)


def test_stability_experiment_parameter_validation():
    with pytest.raises(ValueError):
        stability_experiment(bh2(), trials=0)
    with pytest.raises(ValueError):
        stability_experiment(bh2(), trials=1, radius_fraction=0.0)
    with pytest.raises(ValueError):
        stability_experiment(bh2(), trials=1, radius_fraction=-0.5)


def test_stability_experiment_beyond_guaranteed_radius_reports_only():
    # Exploratory fractions above 1 are allowed; failures are recorded in
    # the report, never raised.
    rep = stability_experiment(bh2(), trials=4, radius_fraction=10.0,
                               starts=16, seed=3)
    assert rep.radius_fraction == 10.0
    assert len(rep.trials) == 4
    assert 0 <= rep.failures <= 4
    for row in rep.trials:
        assert row.max_delta <= 10.0 * rep.rho + 1e-12


def test_gap_audit_bound_holds_and_reports():
    fr = bh2()
    rep = certify_complex(fr, starts=16)
    rho = stability_radius(fr, rep.a0).rho
    moved = perturb_frame(fr, 0.99 * rho, seed=8)
    audit = l_matrix_gap_audit(fr, moved, samples=100, seed=9)
    assert audit.max_gap <= audit.bound + 1e-9
    assert audit.bound == 2.0 * (audit.b + audit.b_prime) ** 1.5 * audit.max_delta
    assert audit.min_lambda_min_perturbed >= min(1.0, rep.a0) / 2.0 - 1e-8
    assert audit.samples == 100


def test_gap_audit_rejects_shape_mismatch_and_bad_samples():
    with pytest.raises(ShapeMismatch):
        l_matrix_gap_audit(bh2(), r3_example())
    moved = perturb_frame(bh2(), 0.01, seed=10)
    with pytest.raises(ValueError):
        l_matrix_gap_audit(bh2(), moved, samples=0)


def test_completed_form_lower_bound_on_retrievable_frame():
    # the completed quadratic form is bounded below by min(1, a0) ||xi||^2
    fr = bh2()
    rf = RealifiedFrame.from_frame(fr)
    a0, _ = estimate_a0(rf, starts=16)
    floor = min(1.0, a0)
    rng = np.random.default_rng(30)
    for _ in range(100):
        xi = rng.standard_normal(rf.two_n)
        xi /= np.linalg.norm(xi)
        lam = float(np.linalg.eigvalsh(l_matrix(rf, xi))[0])
        assert lam >= floor - 1e-8


def test_perturbed_upper_bound_growth_is_controlled():
    # B' <= 2 (B + m max_delta^2) for perturbations within 1/sqrt(m)
    fr = bh2()
    B = frame_bounds(fr).B
    for seed in range(5):
        moved = perturb_frame(fr, 1.0 / np.sqrt(fr.m), seed=seed)
        delta = max_displacement(fr, moved)
        b_prime = frame_bounds(moved).B
        assert b_prime <= 2.0 * (B + fr.m * delta**2) + 1e-9
        assert b_prime <= 2.0 * (B + 1.0) + 1e-9


def test_perturbed_upper_bound_growth_across_reference_frames():
    frames = [bh2(), r3_example(), trivial_non_retrievable(2, 4)]
    for fr in frames:
        B = frame_bounds(fr).B
        radius = 1.0 / np.sqrt(fr.m)
        for seed in range(1000):
            moved = perturb_frame(fr, radius, seed=seed)
            delta = max_displacement(fr, moved)
            assert delta <= radius + 1e-12
            b_prime = frame_bounds(moved).B
            assert b_prime <= 2.0 * (B + fr.m * delta**2) + 1e-9
            assert b_prime <= 2.0 * (B + 1.0) + 1e-9


def test_rho_monotone_in_margin_and_in_upper_bound():
    fr = bh2()
    margins = [1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 5.0]
    rhos = [stability_radius(fr, a).rho for a in margins]
    for lo, hi in zip(rhos, rhos[1:]):
        assert lo <= hi + 1e-18
    assert rhos[0] < 1e-10
    # scaling the frame up raises B at a fixed margin, so rho cannot grow
    scales = [1.0, 1.5, 2.0, 4.0]
    scaled = [
        stability_radius(ComplexFrame.from_vectors(c * fr.vectors), 0.1).rho
        for c in scales
    ]
    for hi, lo in zip(scaled, scaled[1:]):
        assert lo <= hi + 1e-18


def test_rho_formula_selects_both_branches():
    one = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    info = stability_radius(one, 1.0)
    assert info.rho == 1.0 / (4.0 * 5.0**1.5)
    assert info.rho < 1.0 / np.sqrt(info.m)
    # many low-norm vectors push 1/sqrt(m) below the margin term
    m = 420
    flat = ComplexFrame.from_vectors(
        np.full((m, 1), np.sqrt(0.3 / m), dtype=complex)
    )
    wide = stability_radius(flat, 1.0)
    assert wide.rho == 1.0 / np.sqrt(m)
    assert wide.rho < wide.a1 / (4.0 * (3.0 * wide.B + 2.0) ** 1.5)


def test_gap_audit_identity_and_scalar_cases():
    fr = bh2()
    audit = l_matrix_gap_audit(fr, fr, samples=50, seed=1)
    assert audit.max_gap == 0.0
    assert audit.max_delta == 0.0
    one = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    moved = ComplexFrame.from_vectors(np.array([[1.01 + 0j]]))
    audit = l_matrix_gap_audit(one, moved, samples=50, seed=2)
    assert abs(audit.max_delta - 0.01) < 1e-12
    assert abs(audit.b - 1.0) < 1e-12
    assert abs(audit.b_prime - 1.01**2) < 1e-12
    assert audit.max_gap <= audit.bound + 1e-9


def test_complement_survives_small_real_perturbations():
    fr = r3_example()
    for seed in range(100):
        moved = perturb_frame(fr, 0.01, seed=seed)
        assert moved.field == "real"
        assert complement_property(moved).holds


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", range(1, 9))
def test_perturb_frame_is_uniform_on_the_open_ball(field, n):
    # (|delta| / r)^d is uniform on [0, 1) for a uniform draw from the ball
    # in d real dimensions, so its mean over 2000 draws is 1/2 within about
    # 0.0065 (one standard deviation)
    rng = np.random.default_rng(n)
    vectors = rng.standard_normal((250, n)).astype(complex)
    if field == "complex":
        vectors += 1j * rng.standard_normal((250, n))
    fr = ComplexFrame.from_vectors(vectors, field=field)
    d = n if field == "real" else 2 * n
    radius = 0.3
    deltas = np.concatenate([perturb_frame(fr, radius, seed=s).vectors - fr.vectors
                             for s in range(8)])
    if field == "real":
        np.testing.assert_array_equal(deltas.imag, 0.0)
    lengths = np.linalg.norm(deltas, axis=1)
    assert np.all(lengths < radius)
    assert abs(np.mean((lengths / radius) ** d) - 0.5) < 0.03


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_settings_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        perturb_frame(bh2(), bad)
    with pytest.raises(ValueError, match="finite"):
        stability_experiment(bh2(), trials=1, radius_fraction=bad)


def test_gap_audit_matches_a_per_sample_loop():
    fr = bh2()
    moved = perturb_frame(fr, 0.05, seed=4)
    audit = l_matrix_gap_audit(fr, moved, samples=60, seed=21)
    rf, rf2 = RealifiedFrame.from_frame(fr), RealifiedFrame.from_frame(moved)
    rng = np.random.default_rng(21)
    gaps, lams = [], []
    for _ in range(60):
        xi = rng.standard_normal(rf.two_n)
        xi /= np.linalg.norm(xi)
        eta = rng.standard_normal(rf.two_n)
        eta /= np.linalg.norm(eta)
        L2 = l_matrix(rf2, xi)
        gaps.append(abs(float(eta @ (l_matrix(rf, xi) - L2) @ eta)))
        lams.append(float(np.linalg.eigvalsh(L2)[0]))
    assert audit.max_gap == pytest.approx(max(gaps), rel=1e-12)
    assert audit.min_lambda_min_perturbed == pytest.approx(min(lams), rel=1e-12)
