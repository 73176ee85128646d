"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracer as tr  # noqa: E402
from framecert import certify, constructions, core, stability  # noqa: E402
from framecert.constructions import BodmannHammenParams  # noqa: E402
from workloads import importtime_self_s  # noqa: E402


def test_tail_is_maximum_below_twenty_samples():
    assert tr.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tr.tail_percentile(list(range(19))) == (100.0, 18)


@pytest.mark.parametrize("n, percentile, value", [(20, 50.0, 10), (100, 90.0, 90), (1000, 99.0, 990)])
def test_tail_leaves_exactly_ten_samples_beyond(n, percentile, value):
    values = list(range(n, 0, -1))
    p, v = tr.tail_percentile(values)
    assert (p, v) == (percentile, value)
    assert sum(1 for x in values if x > v) == 10


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.inner", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 9.0, 0, 0, None],
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(tr.self_times(spans)) == pytest.approx(10.0)
    metrics = tr.layer_metrics(spans)
    assert metrics["root.busy_s"] == pytest.approx(10.0)
    assert metrics["root.self_s"] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    # a child recorded by another process may start before the parent's
    # clock reading and overlap a sibling; only the covered part counts
    spans = [
        ["parent", 1.0, 5.0, -1, 0, None],
        ["c1", 0.5, 3.0, 0, 0, None],
        ["c2", 2.5, 4.0, 0, 0, None],
    ]
    assert tr.self_times(spans)[0] == pytest.approx(1.0)


def test_adopted_spans_nest_under_the_given_span():
    t = tr.Tracer()
    t.spans.append(["cli.process", 0.0, 4.0, -1, 0, None])
    t.adopt([["cli.import", 0.5, 1.0, -1, 0, None], ["cli.main", 1.0, 3.0, -1, 0, None],
             ["frameio.load_frame", 1.5, 2.0, 1, 0, None]], under=0)
    assert [s[3] for s in t.spans] == [-1, 0, 0, 2]
    assert tr.self_times(t.spans) == pytest.approx([1.5, 0.5, 1.5, 0.5])


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (certify.certify_complex, core.rank_by_svd, core.RealifiedFrame.__dict__["from_frame"],
                 np.linalg.eigh)
    undo = tr.install(tr.Tracer())
    try:
        assert stability.certify_complex is certify.certify_complex
        assert certify.certify_complex.__wrapped__ is originals[0]
        for module in (core, certify, constructions):
            assert module.rank_by_svd.__wrapped__ is originals[1]
        assert np.linalg.eigh.__wrapped__ is originals[3]
    finally:
        tr.uninstall(undo)
    assert (certify.certify_complex, core.rank_by_svd, core.RealifiedFrame.__dict__["from_frame"],
            np.linalg.eigh) == originals
    assert stability.certify_complex is originals[0]


def test_solver_counters_come_from_eigh_calls_directly_inside_estimate_a0():
    spans = [
        ["certify.certify_complex", 0.0, 9.0, -1, 0, None],
        ["certify.estimate_a0", 0.0, 5.0, 0, 0, 2],
        ["lapack.eigh", 0.0, 1.0, 1, 0, 64],
        ["lapack.eigh", 1.0, 2.0, 1, 0, 64],
        ["lapack.eigh", 2.0, 3.0, 1, 0, 30],
        ["lapack.eigh", 3.0, 4.0, 1, 0, 30],
        ["lapack.eigh", 6.0, 7.0, 0, 0, 1],
        ["certify.estimate_a0", 7.0, 8.0, 0, 0, 2000],
        ["lapack.eigh", 7.0, 7.5, 7, 0, 8],
        ["lapack.eigh", 7.5, 8.0, 7, 0, 8],
    ]
    m = tr.layer_metrics(spans)
    assert m["certify.estimate_a0.iterations"] == 3
    assert m["certify.estimate_a0.hit_max_iter"] == 1
    assert m["certify.estimate_a0.block_solves"] == 64 + 64 + 30 + 30 + 8 + 8
    assert m["lapack.eigh.calls"] == 7


def test_iterations_from_eigh_calls_on_bh4_at_defaults():
    fr = constructions.bodmann_hammen(BodmannHammenParams(n=4))
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        rep = certify.certify_complex(fr)
    finally:
        tr.uninstall(undo)
    m = tr.layer_metrics(t.spans)
    assert rep.verdict == "Retrievable"
    assert m["certify.estimate_a0.calls"] == 1
    assert m["certify.estimate_a0.iterations"] == 2000
    assert m["certify.estimate_a0.hit_max_iter"] == 1
    assert 2 * 2000 <= m["certify.estimate_a0.block_solves"] <= 2 * 2000 * 64
    # plus the eigh of the kernel check after the descent
    assert m["lapack.eigh.calls"] == 4001
    assert m["certify.magnitude_separation_check.calls"] == certify.CROSS_CHECK_PAIRS


def test_importtime_self_sums_only_the_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1500 |       9000 | numpy",
        "import time:       200 |        200 |   framecert._version",
        "import time:      3000 |       5000 | framecert.core",
        "import time:       700 |       9000 | framecert",
        "framecert: some error",
    ])
    assert importtime_self_s(stderr, "framecert") == pytest.approx(3900e-6)


def test_separation_check_accepts_the_margin_and_rejects_a_larger_one():
    fr = constructions.bodmann_hammen(BodmannHammenParams(n=2))
    a0 = certify.certify_complex(fr).a0
    X, Y = checks.complex_pairs((7,), 256, 2)
    assert checks.separation_violations(fr.vectors, a0, X, Y) == 0
    assert checks.separation_violations(fr.vectors, 1e3, X, Y) > 0


def test_kernel_dim_sees_the_trivial_frame_witness():
    fr = constructions.trivial_non_retrievable(3, 10)
    rep = certify.certify_complex(fr)
    assert rep.verdict == "NotRetrievable"
    assert checks.kernel_dim(fr.vectors, rep.kernel_excess) >= 2
    generic = np.random.default_rng(0).standard_normal(6)
    bh = constructions.bodmann_hammen(BodmannHammenParams(n=3))
    assert checks.kernel_dim(bh.vectors, generic) == 1
