"""The package namespace: one list of public names, kept by the modules,
loaded on first use; and the modules each CLI command loads."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import framecert
from framecert import bounds, certify, constructions, core, errors, frameio, lifted, stability
from framecert.constructions import random_frame
from framecert.frameio import dump_frame

MODULES = (errors, bounds, core, frameio, constructions, lifted, certify, stability)

# The public names of the 0.1.0 package, less the five error subclasses that
# no caller caught and that were folded into FramecertError; none may disappear.
RELEASED = {
    "__version__",
    "ComplexFrame", "RealifiedFrame", "FrameOperatorSummary", "j_matrix", "realify",
    "unrealify", "build_phi", "gradient_rows", "r_matrices", "r_matrix", "l_matrix",
    "frame_bounds", "gram_squared", "transform_frame", "canonical_dual",
    "parseval_version", "rank_by_svd",
    "TAU_PR", "VERDICT_RETRIEVABLE", "VERDICT_NOT_RETRIEVABLE",
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
    "FramecertError", "NotRetrievableInput",
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


def test_the_lifted_module_exports_its_certificate():
    assert lifted.__all__ == ["LiftedCertificate", "lifted_map", "lifted_certificate"]
    assert framecert.lifted_certificate is lifted.lifted_certificate
    assert framecert.__all__.index("lifted_certificate") < framecert.__all__.index("TAU_PR")


def test_released_names_remain():
    assert len(RELEASED) == 62
    assert RELEASED <= set(framecert.__all__)


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from framecert import *", namespace)
    for name in framecert.__all__:
        assert namespace[name] is getattr(framecert, name), name
    assert set(framecert.__all__) <= set(dir(framecert))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'framecert' has no attribute 'no_such_name'"):
        framecert.no_such_name  # noqa: B018


def test_a_name_is_resolved_once(monkeypatch):
    monkeypatch.delitem(vars(framecert), "hmw_lower_bound", raising=False)
    first = framecert.hmw_lower_bound
    assert vars(framecert)["hmw_lower_bound"] is first is bounds.hmw_lower_bound

    def no_second_lookup(name):
        raise AssertionError(f"{name} resolved again")

    monkeypatch.setattr(framecert, "__getattr__", no_second_lookup)
    assert framecert.hmw_lower_bound is first


def test_a_module_is_looked_up_on_the_package(monkeypatch):
    monkeypatch.delitem(vars(framecert), "stability")
    assert framecert.stability is sys.modules["framecert.stability"]


SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def loaded_after(code: str, *argv: str) -> set[str]:
    """The framecert modules, and numpy, loaded by a fresh interpreter
    after running ``code`` with ``argv`` as its arguments."""
    script = (f"import sys\n{code}\n"
              'print(*(m for m in sys.modules if m == "numpy" or m.startswith("framecert.")))')
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("lookup,loaded", [
    ("", set()),
    ("framecert.hmw_lower_bound", {"framecert.errors", "framecert.bounds"}),
], ids=["import", "bounds-name"])
def test_importing_the_package_loads_no_module(lookup, loaded):
    assert loaded_after(f"import framecert\n{lookup}") == {"framecert._version"} | loaded


@pytest.fixture(scope="module")
def frame_files(tmp_path_factory):
    paths = []
    for seed in (1, 2):
        path = str(tmp_path_factory.mktemp("frames") / f"random{seed}.json")
        dump_frame(random_frame(3, 8, seed=seed), path)
        paths.append(path)
    return paths


@pytest.mark.parametrize("argv,absent", [
    (["bounds", "--n", "4"], {"numpy", "framecert.core", "framecert.lifted", "framecert.certify"}),
    (["construct", "--family", "random", "--n", "3", "--m", "8"],
     {"framecert.lifted", "framecert.certify", "framecert.stability"}),
    (["experiment", "path", "--frame", "{0}", "--frame2", "{1}"],
     {"framecert.lifted", "framecert.certify", "framecert.stability"}),
    # the lifted certificate loads only where a witness is zero to rounding
    (["certify", "--frame", "{0}"],
     {"framecert.stability", "framecert.constructions", "framecert.lifted"}),
], ids=["bounds", "construct", "path", "certify"])
def test_each_command_loads_only_what_it_runs(frame_files, argv, absent):
    loaded = loaded_after("from framecert import cli\nassert cli.main(sys.argv[1:]) == 0",
                          *(arg.format(*frame_files) for arg in argv))
    assert "framecert.cli" in loaded
    assert not loaded & absent, loaded & absent
