"""JSON wire format for frames."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from framecert import (
    ComplexFrame,
    FramecertError,
    bodmann_hammen,
    BodmannHammenParams,
    dump_frame,
    frame_from_dict,
    frame_to_dict,
    load_frame,
    r3_example,
)


def test_roundtrip_preserves_everything(tmp_path):
    fr = bodmann_hammen(BodmannHammenParams(n=3))
    path = tmp_path / "bh3.json"
    dump_frame(fr, str(path))
    back = load_frame(str(path))
    assert back.n == fr.n and back.m == fr.m and back.field == fr.field
    np.testing.assert_array_equal(back.vectors, fr.vectors)


def test_real_field_survives_roundtrip(tmp_path):
    path = tmp_path / "r3.json"
    dump_frame(r3_example(), str(path))
    assert load_frame(str(path)).field == "real"


def test_dict_roundtrip_without_files():
    fr = ComplexFrame.from_vectors(np.array([[1.0, 2j], [3.0, -1j]]))
    back = frame_from_dict(frame_to_dict(fr))
    np.testing.assert_array_equal(back.vectors, fr.vectors)


def good_doc():
    return frame_to_dict(ComplexFrame.from_vectors(np.eye(2)))


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("n"), "'n'"),
    (lambda d: d.update(n=True), "'n'"),
    (lambda d: d.update(n=0), "'n'"),
    (lambda d: d.update(m=2.0), "'m'"),
    (lambda d: d.update(field="rational"), "'field'"),
    (lambda d: d.update(vectors=d["vectors"][:1]), "rows"),
    (lambda d: d.update(vectors={"0": d["vectors"][0]}), "'vectors' must be a list of rows"),
    (lambda d: d["vectors"][0].pop(), "vectors[0]"),
    (lambda d: d["vectors"][1].__setitem__(0, [1.0]), "vectors[1][0]"),
    (lambda d: d["vectors"][0].__setitem__(1, [0.0, "x"]), "vectors[0][1]"),
    (lambda d: d["vectors"][0].__setitem__(0, [float("nan"), 0.0]), "vectors[0][0]"),
    (lambda d: d["vectors"][0].__setitem__(0, [10 ** 400, 0.0]), "'vectors[0][0]' has a re part"),
    (lambda d: d["vectors"][1].__setitem__(1, [0.0, -10 ** 400]), "vectors[1][1]"),
])
def test_malformed_documents_name_the_offending_field(mutate, fragment):
    doc = good_doc()
    mutate(doc)
    with pytest.raises(FramecertError, match=re.escape(fragment)):
        frame_from_dict(doc)


def test_real_label_with_imaginary_entry_is_rejected():
    doc = good_doc()
    doc["field"] = "real"
    doc["vectors"][0][1] = [0.0, 0.5]
    with pytest.raises(FramecertError, match=r"'vectors\[0\]\[1\]' has a nonzero imaginary part "
                                             "in a frame declared real"):
        frame_from_dict(doc)


def test_non_object_root_is_rejected():
    with pytest.raises(FramecertError, match="frame document root must be an object"):
        frame_from_dict([1, 2, 3])


def test_load_missing_file():
    with pytest.raises(FramecertError, match="cannot read frame file"):
        load_frame("/nonexistent/frame.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FramecertError, match="frame file is not valid JSON"):
        load_frame(str(path))


def test_load_valid_json_wrong_shape(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"n": 2, "m": 1, "field": "complex",
                                "vectors": [[[1.0, 0.0]]]}))
    with pytest.raises(FramecertError, match=r"'vectors\[0\]' must be a list of n=2 pairs"):
        load_frame(str(path))


def test_rows_are_checked_before_the_array_is_allocated():
    # n = 1e12 would need terabytes; the short row is reported instead
    doc = {"n": 10**12, "m": 1, "field": "complex", "vectors": [[[1.0, 0.0]]]}
    with pytest.raises(FramecertError, match=r"vectors\[0\]"):
        frame_from_dict(doc)


@pytest.mark.parametrize("content,fragment", [
    (b'\xff\xfe{"n": 1}', "not UTF-8"),
    (b"[" * 100_000, "too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_undecodable_files_are_format_errors(tmp_path, content, fragment):
    path = tmp_path / "frame.json"
    path.write_bytes(content)
    with pytest.raises(FramecertError, match=fragment):
        load_frame(str(path))
