import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanner1d as sp
from spanner1d.core import check_vertex


def test_make_point_set_sorts():
    ps = sp.make_point_set([3.0, 1.0, 2.0])
    assert ps.n == 3
    assert ps.coords.tolist() == [1.0, 2.0, 3.0]


def test_single_point_is_fine():
    assert sp.make_point_set([7.5]).n == 1


def test_duplicates_rejected():
    with pytest.raises(sp.DuplicateCoordinate):
        sp.make_point_set([1.0, 2.0, 1.0])


def test_empty_rejected():
    with pytest.raises(sp.EmptyInput, match="at least one coordinate"):
        sp.make_point_set([])


def test_unknown_point_model_rejected():
    with pytest.raises(ValueError, match="unknown point model 'bogus'"):
        sp.generate_points(8, "bogus", 0)


def test_unsorted_constructor_input_rejected():
    with pytest.raises(ValueError):
        sp.PointSet(np.array([2.0, 1.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        sp.make_point_set([0.0, bad, 2.0])
    with pytest.raises(ValueError, match="finite"):
        sp.PointSet(np.array([0.0, 1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        sp.parse_points(f"0.0\n{bad}\n2.0\n")


def test_coordinates_whose_span_overflows_rejected():
    # each coordinate and each gap is finite, but the span is past the largest double
    with pytest.raises(ValueError, match="span a finite range"):
        sp.make_point_set([-1e308, 0.0, 1e308])
    with pytest.raises(ValueError, match="span a finite range"):
        sp.PointSet(np.array([-1e308, 1e308]))
    assert sp.make_point_set([-1e308, 0.0, 7e307]).n == 3


def test_coords_are_frozen():
    ps = sp.make_point_set([1.0, 2.0])
    with pytest.raises(ValueError):
        ps.coords[0] = 0.0


def test_equality_and_hash():
    a = sp.make_point_set([1.0, 2.0])
    b = sp.make_point_set([2.0, 1.0])
    c = sp.make_point_set([1.0, 3.0])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_public_names_resolve():
    assert len(set(sp.__all__)) == len(sp.__all__)
    for name in sp.__all__:
        assert getattr(sp, name) is not None, name


def test_check_vertex_bounds():
    assert check_vertex(4, 3) == 3
    with pytest.raises(sp.IndexOutOfRange):
        check_vertex(4, -1)


def test_check_failures():
    assert sp.check_failures([2, 0, 2], 3) == frozenset({0, 2})
    assert sp.check_failures(np.array([2, 0, 2], dtype=np.int64), 3) == frozenset({0, 2})
    assert sp.check_failures([], 3) == frozenset()
    for bad in (-1, 3, 2**70, -(2**70), -(2**63)):
        # past int64 too: a ValueError naming the member, not an OverflowError
        for members in ([0, bad], np.array([0, bad], dtype=object)):
            with pytest.raises(sp.IndexOutOfRange, match=f"vertex {bad} outside"):
                sp.check_failures(members, 3)
        # a one-shot iterator cannot be read again to name the member
        with pytest.raises(sp.IndexOutOfRange, match=r"outside \[0, 3\)"):
            sp.check_failures((v for v in [0, bad]), 3)
        if -(2**63) <= bad < 2**63:
            with pytest.raises(sp.IndexOutOfRange, match=f"vertex {bad} outside"):
                sp.check_failures(np.array([0, bad], dtype=np.int64), 3)


def test_check_failures_rejects_non_integer_members():
    # each would otherwise verify another failure set than the one given
    for members, name in (
        ([1.9, 2.2], "1.9"),
        (np.array([0.5, 3.7]), "0.5"),
        (["3"], "'3'"),
        ([1, 2.0], "2.0"),
    ):
        with pytest.raises(ValueError, match=f"{name}.* is not an integer") as err:
            sp.check_failures(members, 5)
        assert not isinstance(err.value, sp.IndexOutOfRange)
    with pytest.raises(ValueError, match="not an integer"):
        sp.check_failures((v for v in [0, 1.5]), 5)
    # integers of any width and numpy integer scalars still pass
    assert sp.check_failures(np.array([4, 0], dtype=np.int32), 5) == frozenset({0, 4})
    assert sp.check_failures([np.int64(2), np.uint8(3)], 5) == frozenset({2, 3})


def test_parse_points_comments_and_blanks():
    ps = sp.parse_points("# header\n1.0\n\n 2.5 # trailing\n-3\n")
    assert ps.coords.tolist() == [-3.0, 1.0, 2.5]


def test_points_file_round_trip(tmp_path):
    ps = sp.make_point_set([0.1, 1.0 / 3.0, 7e-11, 123456.789])
    path = tmp_path / "pts.txt"
    sp.write_points(ps, path)
    assert sp.load_points(path) == ps


def test_parse_failures():
    assert sp.parse_failures("1, 3,2", 5) == frozenset({1, 2, 3})
    assert sp.parse_failures("  # nothing\n", 5) == frozenset()
    assert sp.parse_failures("", 5) == frozenset()
    for bad in ("5", "-1", "0,-1180591620717411303424", "99999999999999999999"):
        with pytest.raises(sp.IndexOutOfRange, match=f"vertex {int(bad.split(',')[-1])} "):
            sp.parse_failures(bad, 5)


def test_failures_file_round_trip(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("0,4  # wiped\n")
    assert sp.load_failures(path, 5) == frozenset({0, 4})


coords_lists = st.lists(
    st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    ).map(lambda x: round(x, 6)),
    min_size=1,
    max_size=40,
    unique=True,
)


@given(coords_lists)
def test_point_set_sorted_property(values):
    ps = sp.make_point_set(values)
    assert ps.n == len(values)
    assert np.all(np.diff(ps.coords) > 0)
    assert set(ps.coords.tolist()) == set(values)


@given(coords_lists)
def test_points_text_round_trip_property(values):
    ps = sp.make_point_set(values)
    text = "\n".join(format(float(c), ".17g") for c in ps.coords)
    assert sp.parse_points(text) == ps


# text skewed toward what the parsers read: numbers, separators, comments
_parser_text = st.text() | st.text(alphabet="0123456789 .,-+eE#\n\tnaifNIF", max_size=40)
_scheme_keys = st.sampled_from(["n", "ell", "m", "mode", "layers", "clusters", "ordinal", "lo", "hi"])
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.integers() | st.floats()
    | st.sampled_from(["complete", "layered"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_scheme_keys | st.text(max_size=3), inner, max_size=6),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(text=_parser_text, tree=_json_trees)
def test_input_parsers_raise_only_value_error_property(text, tree):
    """Malformed input of every file format is a ValueError, never another exception.

    The edge list is read with ``n`` given, as the CLI reads a stored graph.
    """
    def parse(read, *args):
        try:
            read(*args)
        except ValueError:
            pass

    parse(sp.parse_points, text)
    parse(sp.parse_failures, text, 64)
    parse(sp.scheme_from_json, text)
    parse(sp.scheme_from_json, json.dumps(tree))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.edges")
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        parse(sp.read_edge_list, path, 64)
