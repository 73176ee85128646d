"""The package namespace: one list of public names, kept by the modules."""

from __future__ import annotations

import types

import framecert
from framecert import certify, constructions, core, errors, frameio, stability

MODULES = (core, certify, stability, constructions, frameio, errors)

# The public names of the 0.1.0 package; none may disappear.
RELEASED = {
    "__version__",
    "ComplexFrame", "RealifiedFrame", "FrameOperatorSummary", "j_matrix", "realify",
    "unrealify", "build_phi", "gradient_rows", "r_matrices", "r_matrix", "l_matrix",
    "frame_bounds", "gram_squared", "transform_frame", "canonical_dual",
    "parseval_version", "rank_by_svd",
    "TAU_PR", "TAU_NPR", "VERDICT_RETRIEVABLE", "VERDICT_NOT_RETRIEVABLE",
    "VERDICT_INCONCLUSIVE", "CertificationReport", "SearchDiagnostics", "MarginEstimate",
    "RankKernelResult", "ComplementResult", "CardinalityBounds", "certify_complex",
    "certify_real", "complement_property", "estimate_a0", "hmw_lower_bound",
    "injectivity_sampling_oracle", "magnitude_separation_check", "separation_sides",
    "rank_kernel_check",
    "StabilityRadius", "StabilityExperimentReport", "PerturbationTrial", "GapAuditResult",
    "stability_radius", "spanning_safe_radius", "perturb_frame", "stability_experiment",
    "l_matrix_gap_audit", "max_displacement",
    "BodmannHammenParams", "FramePath", "bodmann_hammen", "denied_angles", "r3_example",
    "trivial_non_retrievable", "random_frame", "connect_frames", "path_eval",
    "load_frame", "dump_frame", "frame_to_dict", "frame_from_dict",
    "FramecertError", "BadCardinality", "FrameFormatError", "NotAFrame",
    "NotRetrievableInput", "SelectionFailed", "ShapeMismatch",
}


def test_package_all_is_the_modules_all():
    assert framecert.__all__ == ["__version__"] + [
        name for module in MODULES for name in module.__all__]
    assert len(set(framecert.__all__)) == len(framecert.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(framecert, name) is getattr(module, name), name


def test_package_defines_no_public_name_of_its_own():
    own = {name for name, value in vars(framecert).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert own <= set(framecert.__all__)


def test_released_names_remain():
    assert len(RELEASED) == 68
    assert RELEASED <= set(framecert.__all__)
