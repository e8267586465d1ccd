from __future__ import annotations

import pytest

from loopspec import (FormatError, dumps_json, from_json_dict, from_text,
                      loads, new_digraph, to_json_dict, to_text)


@pytest.fixture
def sample():
    return new_digraph(3, [(2, 1), (0, 2)], [2, 0])


def test_json_round_trip(sample):
    assert from_json_dict(to_json_dict(sample)) == sample


def test_json_canonical_ordering(sample):
    obj = to_json_dict(sample)
    assert obj["arcs"] == [[0, 2], [2, 1]]
    assert obj["loops"] == [0, 2]


def test_serialize_is_fixed_point(sample):
    text = dumps_json(sample)
    assert dumps_json(loads(text)) == text


def test_text_round_trip(sample):
    assert from_text(to_text(sample)) == sample


def test_text_comments_and_blanks():
    text = """
    # a digon with a loop
    n 2
    a 0 1   # forward
    a 1 0
    l 0
    """
    d = from_text(text)
    assert (d.n, d.m, d.sigma) == (2, 2, 1)


def test_autodetect(sample):
    assert loads(to_text(sample)) == sample
    assert loads(dumps_json(sample)) == sample


@pytest.mark.parametrize("obj", [{"n": 2, "arcs": 5, "loops": []},
                                 {"n": 2, "arcs": [], "loops": None},
                                 {"n": 2, "arcs": {"0": 1}, "loops": []},
                                 {"n": 2, "arcs": [], "loops": "01"}])
def test_arcs_and_loops_must_be_lists(obj):
    with pytest.raises(FormatError, match="must be lists"):
        from_json_dict(obj)


def test_duplicate_arcs_rejected():
    with pytest.raises(FormatError):
        from_text("n 2\na 0 1\na 0 1\n")
    with pytest.raises(FormatError):
        from_json_dict({"n": 2, "arcs": [[0, 1], [0, 1]], "loops": []})


def test_duplicate_loops_rejected():
    with pytest.raises(FormatError):
        from_text("n 2\nl 0\nl 0\n")
    with pytest.raises(FormatError):
        from_json_dict({"n": 2, "arcs": [], "loops": [0, 0]})


def test_self_pair_rejected():
    with pytest.raises(FormatError):
        from_json_dict({"n": 2, "arcs": [[1, 1]], "loops": []})


def test_missing_key():
    with pytest.raises(FormatError):
        from_json_dict({"n": 2, "arcs": []})


def test_bad_text_line():
    with pytest.raises(FormatError):
        from_text("n 2\nq 0 1\n")


def test_missing_n():
    with pytest.raises(FormatError):
        from_text("a 0 1\n")


def test_empty_input():
    with pytest.raises(FormatError):
        loads("   ")


def test_invalid_json():
    with pytest.raises(FormatError):
        loads("{not json")


def test_bool_is_not_int():
    with pytest.raises(FormatError):
        from_json_dict({"n": True, "arcs": [], "loops": []})
