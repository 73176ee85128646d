"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass line per
criterion; a failed assertion in a criterion is its fail line.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from framecert import (
    VERDICT_NOT_RETRIEVABLE,
    VERDICT_RETRIEVABLE,
    BodmannHammenParams,
    ComplexFrame,
    RealifiedFrame,
    bodmann_hammen,
    certify_complex,
    complement_property,
    estimate_a0,
    frame_bounds,
    gram_squared,
    hmw_lower_bound,
    injectivity_sampling_oracle,
    l_matrix_gap_audit,
    magnitude_separation_check,
    max_displacement,
    perturb_frame,
    r3_example,
    r_matrix,
    random_frame,
    rank_kernel_check,
    connect_frames,
    path_eval,
    stability_experiment,
    stability_radius,
    trivial_non_retrievable,
)

G2_EXPECTED = np.array([
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1],
    [1, 1, 0, 4, 1, 1],
    [1, 0, 1, 1, 4, 1],
    [0, 1, 1, 1, 1, 4],
])


def exact_determinant(matrix) -> int:
    """Fraction-free determinant oracle, independent of any linear algebra
    library."""
    a = [[Fraction(int(v)) for v in row] for row in matrix]
    size = len(a)
    sign = 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        for r in range(col + 1, size):
            factor = a[r][col] / a[col][col]
            for c in range(col, size):
                a[r][c] -= factor * a[col][c]
    det = Fraction(sign)
    for i in range(size):
        det *= a[i][i]
    assert det.denominator == 1
    return int(det)


def best_of_three(fn) -> float:
    fn()
    return min(min(timed(fn) for _ in range(3)), float("inf"))


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bh(n, variant="two_pi"):
    return bodmann_hammen(BodmannHammenParams(n=n, a=1.0, angle_variant=variant))


def test_criterion_01_gram_squared_exactness():
    G2 = gram_squared(r3_example())
    np.testing.assert_array_equal(G2, G2_EXPECTED.astype(float))
    assert exact_determinant(G2_EXPECTED) == 8
    assert abs(np.linalg.det(G2) - 8.0) < 1e-9
    elapsed = best_of_three(lambda: gram_squared(r3_example()))
    assert elapsed < 1e-3
    print(f"criterion 1 PASS (det=8 exact, {elapsed*1e6:.0f} us)")


def test_criterion_02_real_case_verdicts():
    full = r3_example()

    def verdicts():
        assert complement_property(full).holds
        for drop in range(6):
            sub = ComplexFrame.from_vectors(
                np.delete(full.vectors, drop, axis=0), field="real")
            result = complement_property(sub)
            assert not result.holds
            flagged = sub.vectors.real[np.array(result.failing_partition, dtype=bool)]
            assert np.linalg.matrix_rank(flagged) < 3

    verdicts()
    elapsed = best_of_three(verdicts)
    assert elapsed < 1e-2
    print(f"criterion 2 PASS (6/6 subsets fail with witnesses, {elapsed*1e3:.2f} ms)")


def test_criterion_03_closed_form_dimension_one():
    t0 = time.perf_counter()
    fr = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]))
    a0, _ = estimate_a0(RealifiedFrame.from_frame(fr), starts=16)
    assert abs(a0 - 1.0) < 1e-8
    info = stability_radius(fr, a0)
    assert abs(info.rho - min(1.0, 1.0 / (4.0 * 5.0**1.5))) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 3 PASS (a0={a0:.12f}, rho={info.rho:.17g}, {elapsed:.2f} s)")


def test_criterion_04_four_n_minus_four_certification():
    t0 = time.perf_counter()
    record = {}
    for n in (2, 3, 4):
        per_variant = {}
        for variant in ("two_pi", "verbatim"):
            fr = bh(n, variant)
            assert fr.m == 4 * n - 4
            rep = certify_complex(fr, starts=64)
            per_variant[variant] = (rep.verdict, rep.a0)
        record[n] = per_variant
        assert any(v == VERDICT_RETRIEVABLE and a0 > 1e-6
                   for v, a0 in per_variant.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    summary = {n: {v: verdict for v, (verdict, _) in per.items()}
               for n, per in record.items()}
    print(f"criterion 4 PASS ({summary}, {elapsed:.1f} s)")


def test_criterion_05_stability_radius_validation():
    t0 = time.perf_counter()
    fr = bh(2)
    report = stability_experiment(fr, trials=100, radius_fraction=0.99,
                                  seed=42, starts=64)
    assert report.failures == 0
    cap = 2.0 * (report.base_B + 1.0) + 1e-9
    for row in report.trials:
        assert row.B_prime <= cap
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 5 PASS (100/100 retrievable, B' max "
          f"{max(r.B_prime for r in report.trials):.4f} <= {cap:.4f}, {elapsed:.1f} s)")


def test_criterion_06_perturbation_bound_audit():
    fr = bh(2)
    rep = certify_complex(fr, starts=64)
    info = stability_radius(fr, rep.a0)
    worst_gap_margin = np.inf
    worst_lambda = np.inf
    for seed in range(20):
        moved = perturb_frame(fr, 0.99 * info.rho, seed=100 + seed)
        audit = l_matrix_gap_audit(fr, moved, samples=200, seed=seed)
        assert audit.max_gap <= audit.bound + 1e-9
        assert audit.min_lambda_min_perturbed >= info.a1 / 2.0 - 1e-8
        worst_gap_margin = min(worst_gap_margin, audit.bound - audit.max_gap)
        worst_lambda = min(worst_lambda, audit.min_lambda_min_perturbed)
    print(f"criterion 6 PASS (20 audits x 200 samples, min bound slack "
          f"{worst_gap_margin:.3e}, min lambda {worst_lambda:.6f} >= "
          f"{info.a1/2:.6f})")


def test_criterion_07_spectral_property_suite():
    references = [bh(2), bh(2, "verbatim"), bh(3), bh(4)]
    checked = 0
    for fr in references:
        rep = certify_complex(fr, starts=64)
        if rep.verdict != VERDICT_RETRIEVABLE:
            continue
        checked += 1
        rf = RealifiedFrame.from_frame(fr)
        rng = np.random.default_rng(1000 + fr.n)
        two_n = rf.two_n

        # (a) the phase direction is annihilated
        for _ in range(1000):
            xi = rng.standard_normal(two_n)
            xi /= np.linalg.norm(xi)
            assert np.linalg.norm(r_matrix(rf, xi) @ (rf.J @ xi)) <= 1e-10

        # (b) magnitude separation at the estimated margin
        for _ in range(1000):
            x = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
            y = rng.standard_normal(fr.n) + 1j * rng.standard_normal(fr.n)
            assert magnitude_separation_check(fr, rep.a0, x, y)

        # (c) projection form: R(xi) dominates a0 ||xi||^2 off the phase line
        for _ in range(100):
            xi = rng.standard_normal(two_n)
            jxi = rf.J @ xi
            proj = np.outer(jxi, jxi) / (jxi @ jxi)
            gap = r_matrix(rf, xi) - rep.a0 * (xi @ xi) * (np.eye(two_n) - proj)
            assert np.linalg.eigvalsh(gap)[0] >= -1e-8

        # (d) full rank off the phase line
        for _ in range(100):
            xi = rng.standard_normal(two_n)
            result = rank_kernel_check(rf, xi)
            assert result.rank == two_n - 1
            assert result.kernel_is_span_jxi

    assert checked >= 3
    print(f"criterion 7 PASS ({checked} retrievable reference frames, "
          f"properties a-d hold)")


def test_criterion_08_non_retrievable_detection():
    t0 = time.perf_counter()
    for n in (2, 3):
        fr = trivial_non_retrievable(n, 4 * n - 4)
        rep = certify_complex(fr, starts=64)
        assert rep.verdict == VERDICT_NOT_RETRIEVABLE
        assert rep.kernel_excess is not None
        rf = RealifiedFrame.from_frame(fr)
        assert rank_kernel_check(rf, rep.kernel_excess).kernel_dim >= 2
        pair = injectivity_sampling_oracle(fr, trials=50, seed=1)
        assert pair is not None
        x, y = pair
        mx = np.abs(fr.vectors.conj() @ x) ** 2
        my = np.abs(fr.vectors.conj() @ y) ** 2
        assert np.linalg.norm(mx - my) <= 1e-8
        ray_gap = (np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2
                   - 2.0 * abs(np.sum(x * y.conj())))
        assert np.sqrt(max(ray_gap, 0.0)) >= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 8 PASS (witnesses and counterexamples at n=2,3, "
          f"{elapsed:.1f} s)")


def test_criterion_09_cardinality_formulas():
    expected = {2: 4, 3: 8, 4: 10}
    for n, value in expected.items():
        assert hmw_lower_bound(n).hmw_lower == value
    for n in range(1, 65):
        bounds = hmw_lower_bound(n)
        assert bounds.hmw_lower <= 4 * n - 2
    rep = certify_complex(random_frame(3, 5, seed=3))
    assert rep.verdict == VERDICT_NOT_RETRIEVABLE
    assert rep.method == "cardinality"
    print("criterion 9 PASS (reference values, 4n-2 cap to n=64, "
          "m<2n short-circuit)")


def test_criterion_10_frame_path():
    t0 = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 41)
    min_bound = np.inf
    pairs = [(2, 4, s) for s in range(10)] + [(3, 6, s) for s in range(10)]
    for n, m, s in pairs:
        f1 = random_frame(n, m, seed=2 * s + 1)
        f2 = random_frame(n, m, seed=2 * s + 2)
        path = connect_frames(f1, f2)
        assert np.array_equal(path_eval(path, -1.0).vectors, f1.vectors)
        assert np.array_equal(path_eval(path, 1.0).vectors, f2.vectors)
        lows = [frame_bounds(path_eval(path, t)).A for t in grid]
        assert min(lows) > 1e-8
        min_bound = min(min_bound, min(lows))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 10 PASS (20 paths, min lower bound on grids "
          f"{min_bound:.3e}, {elapsed:.1f} s)")
