"""Command line interface: exit codes, report envelopes, label routing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from framecert import (
    BodmannHammenParams,
    CardinalityBounds,
    CertificationReport,
    ComplexFrame,
    PerturbationTrial,
    SearchDiagnostics,
    StabilityExperimentReport,
    StabilityRadius,
    bodmann_hammen,
    certify_complex,
    dump_frame,
    load_frame,
    r3_example,
    trivial_non_retrievable,
)
from framecert.cli import _json_default, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def frames(tmp_path):
    paths = {}
    for name, fr in (("r3", r3_example()),
                     ("bh2", bodmann_hammen(BodmannHammenParams(n=2))),
                     ("bh3", bodmann_hammen(BodmannHammenParams(n=3))),
                     ("triv", trivial_non_retrievable(2, 4))):
        p = tmp_path / f"{name}.json"
        dump_frame(fr, str(p))
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def field_names(cls):
    return [f.name for f in fields(cls)]


def assert_certification_keys(report):
    """A certification JSON report is its dataclass's fields, in order, and
    so are its diagnostics when the margin search ran."""
    assert list(report) == field_names(CertificationReport)
    if report["diagnostics"] is not None:
        assert list(report["diagnostics"]) == field_names(SearchDiagnostics)


def test_certify_real_frame_routes_to_complement(frames, capsys):
    code, doc = run_json(capsys, ["certify", "--frame", frames["r3"]])
    assert code == 0
    assert doc["report"]["verdict"] == "Retrievable"
    assert doc["report"]["method"] == "complement"
    assert doc["version"]
    assert doc["config"]["seed"] == 42


def test_certify_complex_frame_routes_to_eigen(frames, capsys):
    code, doc = run_json(capsys, ["certify", "--frame", frames["bh3"], "--starts", "16"])
    assert code == 0
    assert doc["report"]["method"] == "eigen"
    assert doc["report"]["a0"] > 1e-6
    # a frame in C^2 gets its margin in closed form
    code, doc = run_json(capsys, ["certify", "--frame", frames["bh2"], "--starts", "16"])
    assert code == 0
    assert (doc["report"]["method"], doc["report"]["diagnostics"]) == ("lifted", None)
    assert doc["report"]["a0"] > 1e-6


def test_certify_json_carries_the_search_diagnostics(frames, capsys, tmp_path):
    _, doc = run_json(capsys, ["certify", "--frame", frames["bh3"], "--starts", "16"])
    assert_certification_keys(doc["report"])
    assert doc["report"]["failing_partition"] is None
    diag = doc["report"]["diagnostics"]
    assert set(diag) == {"starts", "joined", "hit_budget",
                         "block_iterations", "polish_iterations", "best_iterations",
                         "best_hit_budget", "best_basin_starts"}
    assert diag["starts"] == 16
    assert 0 < diag["joined"] < 16
    assert diag["hit_budget"] <= diag["starts"] - diag["joined"]
    _, again = run_json(capsys, ["certify", "--frame", frames["bh3"], "--starts", "16"])
    assert again == doc
    _, real = run_json(capsys, ["certify", "--frame", frames["r3"]])
    assert_certification_keys(real["report"])
    assert real["report"]["diagnostics"] is None
    # three vectors in C^2: the cardinality precheck decides, with no search
    p = tmp_path / "three.json"
    dump_frame(ComplexFrame.from_vectors(np.eye(3, 2), field="complex"), str(p))
    code, few = run_json(capsys, ["certify", "--frame", str(p)])
    assert (code, few["report"]["method"]) == (1, "cardinality")
    assert_certification_keys(few["report"])
    assert few["report"]["diagnostics"] is None


def test_certify_exit_codes_by_verdict(frames, capsys, tmp_path):
    code, _ = run_json(capsys, ["certify", "--frame", frames["triv"], "--starts", "8"])
    assert code == 1
    inconclusive = bodmann_hammen(BodmannHammenParams(n=3, angle_variant="verbatim"))
    p = tmp_path / "inc.json"
    dump_frame(inconclusive, str(p))
    code, doc = run_json(capsys, ["certify", "--frame", str(p), "--starts", "16"])
    assert code == 2
    assert doc["report"]["verdict"] == "Inconclusive"


def test_certify_forced_method_overrides_routing(tmp_path, capsys):
    # the file's field label is the only thing that picks the route; a real
    # frame treated over C is not retrievable
    vectors = r3_example().vectors
    for field, method, expected in (("complex", "eigen", 1), ("real", "complement", 0)):
        p = tmp_path / f"r3-{field}.json"
        dump_frame(ComplexFrame.from_vectors(vectors, field=field), str(p))
        code, doc = run_json(capsys, ["certify", "--frame", str(p), "--starts", "8"])
        assert doc["report"]["method"] == method
        assert code == expected


def test_certify_complement_on_complex_frame_is_usage_error(frames, capsys):
    # there is no --method option; the library still refuses complex frames
    # (test_certify.py::test_complement_property_rejects_complex_and_oversized_frames)
    code = main(["certify", "--frame", frames["bh2"], "--method", "complement"])
    assert code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_certify_complement_decides_thirty_vectors_in_r3(tmp_path, capsys):
    rng = np.random.default_rng(30)
    holds = ComplexFrame.from_vectors(rng.standard_normal((30, 3)), field="real")
    # vector 0 and every third one on one random plane, the rest on another
    planes = [np.linalg.qr(rng.standard_normal((3, 2)))[0] for _ in range(2)]
    on_first = np.arange(30) % 3 == 0
    fails = ComplexFrame.from_vectors(
        [planes[0 if first else 1] @ rng.standard_normal(2) for first in on_first], field="real")
    for name, fr, expected in (("holds", holds, 0), ("fails", fails, 1)):
        p = tmp_path / f"{name}.json"
        dump_frame(fr, str(p))
        code, doc = run_json(capsys, ["certify", "--frame", str(p)])
        assert code == expected
        assert doc["report"]["method"] == "complement"
    assert doc["report"]["failing_partition"] == [int(b) for b in on_first]


def test_rho_reports_radius(frames, capsys):
    code, doc = run_json(capsys, ["rho", "--frame", frames["bh2"], "--starts", "16"])
    assert code == 0
    assert list(doc["report"]) == ["certification", "stability_radius"]
    assert_certification_keys(doc["report"]["certification"])
    radius = doc["report"]["stability_radius"]
    assert list(radius) == field_names(StabilityRadius)
    assert radius["rho"] > 0.0
    assert radius["rho"] <= 1.0 / np.sqrt(4)
    assert doc["report"]["certification"]["verdict"] == "Retrievable"


def test_rho_on_non_retrievable_frame(frames, capsys):
    code, doc = run_json(capsys, ["rho", "--frame", frames["triv"], "--starts", "8"])
    assert code == 1
    assert doc["report"]["stability_radius"] is None


@pytest.mark.parametrize("argv", [["rho"], ["experiment", "perturb", "--trials", "2"]],
                         ids=["rho", "experiment-perturb"])
def test_over_c_commands_refuse_a_real_labelled_frame(frames, capsys, argv):
    # certify decides the real-labelled r3 frame by the complement property
    # (Retrievable); over C it is not retrievable, so these commands refuse
    # it rather than answer a different question
    code = main([*argv, "--frame", frames["r3"], "--starts", "8"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "label it complex" in captured.err


def test_construct_families_roundtrip(tmp_path, capsys):
    for family, extra in (("bodmann-hammen", ["--n", "3"]),
                          ("r3-example", []),
                          ("trivial", ["--n", "2", "--m", "4"]),
                          ("random", ["--n", "2", "--m", "6", "--seed", "3"])):
        out = tmp_path / f"{family}.json"
        code = main(["construct", "--family", family, *extra, "--output", str(out)])
        assert code == 0
        fr = load_frame(str(out))
        assert fr.m >= 2


def test_construct_strict_denied_angle(capsys):
    code = main(["construct", "--family", "bodmann-hammen", "--n", "2",
                 "--a", str(np.pi / 2), "--strict-angles"])
    assert code == 64
    assert "denied" in capsys.readouterr().err


def test_construct_random_is_seed_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["construct", "--family", "random", "--n", "2", "--m", "5",
                 "--seed", "21", "--output", str(a)]) == 0
    assert main(["construct", "--family", "random", "--n", "2", "--m", "5",
                 "--seed", "21", "--output", str(b)]) == 0
    np.testing.assert_array_equal(load_frame(str(a)).vectors,
                                  load_frame(str(b)).vectors)


def test_experiment_perturb_csv(frames, capsys):
    code = main(["experiment", "perturb", "--frame", frames["bh2"],
                 "--trials", "3", "--starts", "8", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "trial,seed,max_delta,B_prime,verdict,a0_estimate"
    assert lines[0].split(",") == field_names(PerturbationTrial)
    assert len(lines) == 4
    assert all(line.split(",")[4] == "Retrievable" for line in lines[1:])


def test_experiment_perturb_json(frames, capsys):
    code, doc = run_json(capsys, ["experiment", "perturb", "--frame", frames["bh2"],
                                  "--trials", "2", "--starts", "8"])
    assert code == 0
    assert doc["report"]["failures"] == 0
    assert len(doc["report"]["trials"]) == 2
    assert list(doc["report"]) == field_names(StabilityExperimentReport)
    for trial in doc["report"]["trials"]:
        assert list(trial) == field_names(PerturbationTrial)


def test_experiment_perturb_non_retrievable_base(frames, capsys):
    code = main(["experiment", "perturb", "--frame", frames["triv"],
                 "--trials", "2", "--starts", "8"])
    assert code == 1


def test_experiment_path(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["construct", "--family", "random", "--n", "2", "--m", "4",
          "--seed", "1", "--output", str(a)])
    main(["construct", "--family", "random", "--n", "2", "--m", "4",
          "--seed", "2", "--output", str(b)])
    code, doc = run_json(capsys, ["experiment", "path", "--frame", str(a),
                                  "--frame2", str(b), "--grid", "9"])
    assert code == 0
    report = doc["report"]
    assert report["endpoints_exact"] == {"start": True, "end": True}
    assert report["min_lower_bound"] > 1e-8
    assert len(report["t_values"]) == 9
    assert main(["experiment", "path", "--frame", str(a), "--frame2", str(b),
                 "--grid", "1"]) == 64
    assert "grid must be >= 2, got 1" in capsys.readouterr().err


def test_experiment_path_requires_second_frame(frames, capsys):
    code = main(["experiment", "path", "--frame", frames["bh2"]])
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["path", "--frame", "{bh2}", "--frame2", "{triv}", "--trials", "3"],
    ["perturb", "--frame", "{bh2}", "--grid", "3"],
], ids=["path-trials", "perturb-grid"])
def test_each_experiment_kind_refuses_the_options_of_the_other(frames, capsys, argv):
    assert main(["experiment", *(a.format(**frames) for a in argv)]) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bounds_command(capsys):
    code, doc = run_json(capsys, ["bounds", "--n", "4"])
    assert code == 0
    assert doc["report"]["hmw_lower"] == 10
    assert doc["report"]["generic_upper"] == 14
    assert list(doc["report"]) == field_names(CardinalityBounds)
    assert main(["bounds", "--n", "0"]) == 64


def test_missing_and_malformed_inputs(tmp_path, capsys):
    assert main(["certify", "--frame", str(tmp_path / "absent.json")]) == 64
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["certify", "--frame", str(bad)]) == 64


def test_usage_errors(capsys):
    assert main([]) == 64
    assert main(["nonsense"]) == 64
    assert main(["certify"]) == 64
    assert main(["certify", "--frame", "x", "--method", "psychic"]) == 64


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "framecert" in capsys.readouterr().out


def test_seed_env_override(frames, capsys, monkeypatch):
    # --seed is the only way to set the seed; the environment is not read
    monkeypatch.setenv("FRAME_CERTIFY_SEED", "99")
    code, doc = run_json(capsys, ["certify", "--frame", frames["triv"], "--starts", "4"])
    assert (code, doc["config"]["seed"]) == (1, 42)
    _, doc = run_json(capsys, ["certify", "--frame", frames["triv"],
                               "--starts", "4", "--seed", "5"])
    assert doc["config"]["seed"] == 5


def test_seed_env_invalid(frames, capsys, monkeypatch):
    monkeypatch.setenv("FRAME_CERTIFY_SEED", "not-a-number")
    code, doc = run_json(capsys, ["certify", "--frame", frames["triv"], "--starts", "4"])
    assert (code, doc["config"]["seed"]) == (1, 42)


@pytest.mark.parametrize("argv", [
    ["certify", "--frame", "{bh3}", "--starts", "2"],
    ["rho", "--frame", "{bh3}", "--starts", "2"],
    ["experiment", "perturb", "--frame", "{bh3}", "--trials", "1", "--starts", "2"],
    ["construct", "--family", "random", "--n", "2", "--m", "6"],
    ["construct", "--family", "bodmann-hammen", "--n", "2"],
], ids=["certify", "rho", "experiment-perturb", "construct-random", "construct-bh"])
def test_a_negative_seed_is_a_usage_error_naming_the_flag(frames, capsys, argv):
    assert main([a.format(**frames) for a in argv] + ["--seed", "-1"]) == 64
    captured = capsys.readouterr()
    assert "argument --seed: must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_output_file_writing(frames, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["certify", "--frame", frames["r3"], "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["report"]["verdict"] == "Retrievable"


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rho_on_single_vector_line(tmp_path, capsys, field):
    # rho refuses real-labelled frames only for n >= 2
    one = ComplexFrame.from_vectors(np.array([[1.0 + 0j]]), field=field)
    p = tmp_path / "one.json"
    dump_frame(one, str(p))
    code, doc = run_json(capsys, ["rho", "--frame", str(p), "--starts", "8"])
    assert code == 0
    assert doc["report"]["certification"]["verdict"] == "Retrievable"
    rho = doc["report"]["stability_radius"]["rho"]
    assert abs(rho - 1.0 / (4.0 * 5.0**1.5)) < 1e-7
    assert abs(rho - 0.0223607) < 1e-6


def test_empty_vector_list_is_usage_error(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"n": 2, "m": 0, "field": "complex", "vectors": []}))
    assert main(["certify", "--frame", str(p)]) == 64


def test_huge_dimension_with_a_short_row_is_usage_error(tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"n": 10**12, "m": 1, "field": "complex",
                             "vectors": [[[1.0, 0.0]]]}))
    assert main(["certify", "--frame", str(p)]) == 64
    assert "vectors[0]" in capsys.readouterr().err


def test_an_integer_beyond_double_range_is_usage_error(tmp_path):
    # a fresh process, so that an uncaught exception would show as a traceback
    p = tmp_path / "huge-entry.json"
    p.write_text('{"n": 1, "m": 1, "field": "complex", "vectors": [[[1' + "0" * 400 + ', 0]]]}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        q for q in (SRC, os.environ.get("PYTHONPATH")) if q))
    proc = subprocess.run([sys.executable, "-m", "framecert.cli", "certify", "--frame", str(p)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 64
    assert "vectors[0][0]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content", [b'\xff\xfe{"n": 1}', b"[" * 100_000],
                         ids=["not-utf8", "deep-nesting"])
def test_undecodable_frame_file_is_usage_error(tmp_path, capsys, content):
    p = tmp_path / "frame.json"
    p.write_bytes(content)
    assert main(["certify", "--frame", str(p)]) == 64
    assert capsys.readouterr().err.startswith("framecert: frame file ")


def test_report_survives_serialization_round_trip(tmp_path, capsys):
    out = tmp_path / "frame.json"
    code = main(["construct", "--family", "bodmann-hammen", "--n", "2",
                 "--output", str(out)])
    assert code == 0
    reloaded = load_frame(str(out))
    direct = certify_complex(bodmann_hammen(BodmannHammenParams(n=2)),
                             starts=16, seed=11)
    roundtrip = certify_complex(reloaded, starts=16, seed=11)
    assert roundtrip.a0 == direct.a0
    assert roundtrip.verdict == direct.verdict
    np.testing.assert_array_equal(np.asarray(roundtrip.witness_xi),
                                  np.asarray(direct.witness_xi))


def test_config_envelope_records_the_solver_settings(frames, capsys):
    argv_tail = ["--starts", "8", "--seed", "3"]
    for argv in (["certify", "--frame", frames["bh2"]],
                 ["certify", "--frame", frames["r3"]],
                 ["rho", "--frame", frames["bh2"]]):
        _, doc = run_json(capsys, argv + argv_tail)
        assert (doc["config"]["seed"], doc["config"]["starts"]) == (3, 8)
        assert "tol" not in doc["config"]
        report = doc["report"].get("certification", doc["report"])
        assert not {"seed", "starts", "tol"} & set(report)
    # the margin search stops relative to trace R(xi); there is no tolerance to set
    assert main(["certify", "--frame", frames["bh2"], "--tol", "1e-9"]) == 64
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    # the envelope is the parsed command line without --output
    _, doc = run_json(capsys, ["bounds", "--n", "4"])
    assert doc["config"] == {"command": "bounds", "n": 4}
    _, doc = run_json(capsys, ["certify", "--frame", frames["bh2"], *argv_tail])
    assert doc["config"] == {"command": "certify", "frame": frames["bh2"],
                             "starts": 8, "seed": 3}
    _, doc = run_json(capsys, ["experiment", "path", "--frame", frames["bh2"],
                               "--frame2", frames["triv"], "--grid", "3"])
    assert doc["config"] == {"command": "experiment", "kind": "path", "frame": frames["bh2"],
                             "frame2": frames["triv"], "grid": 3}


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_settings_are_usage_errors(frames, capsys, bad):
    assert main(["experiment", "perturb", "--frame", frames["bh2"], "--trials", "1",
                 "--starts", "8", "--radius-fraction", bad]) == 64
    assert "radius_fraction must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "--frame", "{bh2}", "--starts", "8"],
    ["bounds", "--n", "4"],
    ["construct", "--family", "bodmann-hammen", "--n", "2"],
], ids=["certify", "bounds", "construct"])
def test_output_file_gets_the_bytes_stdout_gets(frames, tmp_path, capsys, argv):
    argv = [arg.format(**frames) for arg in argv]
    main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    main([*argv, "--output", str(out)])
    assert out.read_bytes() == printed.encode("utf-8")
    if argv[0] == "construct":
        dumped = tmp_path / "dumped.json"
        dump_frame(bodmann_hammen(BodmannHammenParams(n=2)), str(dumped))
        assert out.read_bytes() == dumped.read_bytes()


def test_json_default_writes_reports_as_their_fields():
    rep = certify_complex(bodmann_hammen(BodmannHammenParams(n=3)), starts=8)
    doc = json.loads(json.dumps(rep, default=_json_default))
    assert doc["verdict"] == "Retrievable"
    assert len(doc["witness_xi"]) == 6
    assert doc["witness_xi"] == rep.witness_xi.tolist()
    assert doc["diagnostics"] == asdict(rep.diagnostics)
    assert doc["diagnostics"]["starts"] == 8
    assert json.dumps([np.int64(3), np.float32(0.5), np.bool_(True)],
                      default=_json_default) == "[3, 0.5, true]"
    for unknown in (object(), {1, 2}, CertificationReport):
        with pytest.raises(TypeError):
            json.dumps(unknown, default=_json_default)
