import json
import sys
from fractions import Fraction

import pytest

from holant3.errors import FormatError, GridStructureError, ParseError
from holant3.exact import QuadExt, sqrt_exact
from holant3.formats import (
    format_embedded_grid,
    format_grid,
    format_planar_graph,
    format_rational,
    format_scalar,
    format_signature,
    parse_embedded_grid,
    parse_grid,
    parse_hypergraph,
    parse_planar_graph,
    parse_rational,
    parse_scalar,
    parse_signature,
)
from holant3.grid import SignatureGrid, bipartite_grid, contract, holant
from holant3.planar import count_pm
from holant3.signatures import EQ3, SymSig, Tensor
from conftest import left_specs_grid_obj, random_planar_graph, theta_chain_grid
from holant3.matchgates import ONE_OR_TWO


def test_rational_round_trip():
    for q in (Fraction(3, 4), Fraction(-7), Fraction(0), Fraction(22, 7)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    with pytest.raises(ParseError):
        parse_rational("3.5x")


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-3/4", Fraction(-3, 4)), ("+2/6", Fraction(1, 3)), (" 7 ", 7), ("0/5", 0),
    (12, 12), (-1, -1),
])
def test_rational_accepts_ints_and_p_over_q(text, value):
    q = parse_rational(text)
    assert q == value and type(q) is Fraction


@pytest.mark.parametrize("text", [
    "1e5", "1e200000", "0.5", ".5", "5.", "1_000", "0x10", "inf", "nan", "1/2/3", "1/-2",
    "1/0", "", " ", "\u0661", True, False, 0.5, 1e5, None, [1],
])
def test_rational_refuses_decimals_exponents_and_bools(text):
    with pytest.raises(ParseError, match="bad rational"):
        parse_rational(text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_values_past_the_digit_limit_round_trip_and_leave_it_in_place():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for q in (Fraction(10**5000), Fraction(-(10**4999) - 7, 3**9000)):
            assert parse_scalar(format_scalar(q)) == q
        assert parse_rational("1" * 5000) == (10**5000 - 1) // 9
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("parse", [parse_grid, parse_planar_graph, parse_embedded_grid,
                                   parse_hypergraph])
def test_json_text_is_not_a_document(parse):
    with pytest.raises(ParseError):
        parse('{"vertices": [], "edges": [], "rotations": [], "sets": []}')


def test_scalar_round_trip_quadext():
    v = QuadExt(Fraction(5, 2), Fraction(-1, 3), Fraction(33))
    enc = format_scalar(v)
    assert enc == {"base": "5/2", "coeff": "-1/3", "radicand": "33"}
    assert parse_scalar(enc) == v
    assert parse_scalar(format_scalar(Fraction(7, 3))) == Fraction(7, 3)


def test_signature_parsing_forms():
    for form in ("[0,1,1,0]", "0,1,1,0", {"arity": 3, "weights": ["0", "1", "1", "0"]},
                 [0, 1, 1, 0]):
        assert parse_signature(form) == SymSig([0, 1, 1, 0])
    assert parse_signature("[1/2, 3]") == SymSig([Fraction(1, 2), 3])
    with pytest.raises(FormatError):
        parse_signature({"arity": 2, "weights": ["1", "2"]})
    sig = SymSig([Fraction(1, 2), 0, 1, Fraction(9, 7)])
    assert parse_signature(format_signature(sig)) == sig


def test_grid_round_trip_preserves_value():
    g = bipartite_grid(SymSig([1, 2, 3, 4]), [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)])
    obj = format_grid(g)
    text = json.dumps(obj)
    back = parse_grid(json.loads(text))
    assert holant(back) == holant(g)
    # ids after a JSON round trip become lists; structure must still validate
    assert len(back.edges) == len(g.edges)


def test_gadget_round_trip_with_dangling():
    from holant3.gadgets import build_transfer_gadget

    g = build_transfer_gadget(SymSig([1, 5, 7, 9]))
    back = parse_grid(json.loads(json.dumps(format_grid(g))))
    t1, p1 = contract(g)
    t2, p2 = contract(back)
    assert t1.entries == t2.entries and p1 == p2


def test_planar_graph_round_trip():
    import random

    g = random_planar_graph(random.Random(5))
    back = parse_planar_graph(json.loads(json.dumps(format_planar_graph(g))))
    assert count_pm(back) == count_pm(g)


def test_embedded_grid_round_trip():
    inst = theta_chain_grid(2, ONE_OR_TWO)
    back = parse_embedded_grid(json.loads(json.dumps(format_embedded_grid(inst))))
    from holant3.matchgates import solve_planar_moderate_cover

    assert solve_planar_moderate_cover(back) == solve_planar_moderate_cover(inst) == 2


def test_mixed_polarity_tensor_grid_round_trip():
    """Grids holding straddled tensor vertices (as split reduction
    emits them) survive serialization."""
    from holant3.grid import SignatureGrid
    from holant3.signatures import Tensor

    x, y = Fraction(2), Fraction(3)
    g = SignatureGrid()
    g.add_vertex("f0", SymSig([1, 2, 0, 1]), "L")
    g.add_vertex("q0", EQ3, "R")
    g.add_edge(("f0", 0), ("q0", 0))
    g.add_edge(("f0", 1), ("q0", 1))
    g.add_vertex("B", Tensor(2, (1, x, y, x * y)), ("R", "L"))
    g.add_edge(("f0", 2), ("B", 0))
    g.add_edge(("B", 1), ("q0", 2))
    g.validate()
    back = parse_grid(json.loads(json.dumps(format_grid(g))))
    assert back.vertices["B"].polarities == ("R", "L")
    assert holant(back) == holant(g)


def test_hypergraph_parsing():
    sets = parse_hypergraph({"ground": [1, 2, 3], "sets": [[1, 2, 3], [1, 2, 3], [1, 2, 3]]})
    assert sets == [[1, 2, 3]] * 3
    with pytest.raises(FormatError):
        parse_hypergraph({"ground": [1, 2], "sets": [[1, 2, 3]]})
    with pytest.raises(ParseError):
        parse_hypergraph({"nope": []})


def test_eq3_alias():
    g = parse_grid({
        "vertices": [{"id": "a", "side": "L", "sig": "[1,0,0,1]"},
                     {"id": "b", "side": "R", "sig": "EQ3"}],
        "edges": [["a", 0, "b", 0], ["a", 1, "b", 1], ["a", 2, "b", 2]],
    })
    assert g.vertices["b"].sig == EQ3
    assert holant(g) == 2


def test_vertices_with_one_spec_share_one_signature():
    g = parse_grid(left_specs_grid_obj(["[2,0,2,0]", "[2,0,2,0]", "[4/2,0,2,0]"]))
    sigs = [g.vertices[("f", i)].sig for i in range(3)]
    assert sigs[0] is sigs[1] and sigs[2] is not sigs[0] and sigs[2] == sigs[0]
    assert all(g.vertices[("eq", j)].sig is EQ3 for j in range(3))
    # dict and list specs parse, and a list never reuses a text spec's entry
    specs = [{"arity": 3, "weights": ["2", "0", "2", "0"]}, [2, 0, 2, 0], "[2, 0, 2, 0]"]
    g = parse_grid(left_specs_grid_obj(specs))
    assert all(g.vertices[("f", i)].sig == SymSig([2, 0, 2, 0]) for i in range(3))
    g = parse_grid(left_specs_grid_obj(["[1, 2, 3, 4]", [1, 2, 3, 4], [1, 2, 3, 4]]))
    assert g.vertices[("f", 1)].sig is g.vertices[("f", 2)].sig == SymSig([1, 2, 3, 4])
    with pytest.raises(ParseError):
        parse_grid(left_specs_grid_obj(["[2,0,2,0]", "[2,zebra,2,0]", "[2,0,2,0]"]))
    with pytest.raises(ParseError):
        parse_grid(left_specs_grid_obj([["1", "2"], "['1', '2']", "[2,0,2,0]"]))


def test_quadext_weights_round_trip_through_a_grid():
    r = sqrt_exact(2)
    g = bipartite_grid(SymSig([1, r, 3, 1 + r]), [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)])
    back = parse_grid(json.loads(json.dumps(format_grid(g))))
    assert back.vertices[("f", 0)].sig == g.vertices[("f", 0)].sig
    assert holant(back) == holant(g)


@pytest.mark.parametrize("weight", ["1.5", "1e3", True, 0.5, "1_0"])
def test_signatures_still_refuse_decimals_exponents_and_bools(weight):
    for spec in ([1, weight, 1], f"[1,{weight},1]", {"arity": 2, "weights": ["1", weight, "1"]}):
        with pytest.raises(ParseError, match="bad rational"):
            parse_signature(spec)


def _grid_doc(vertices, edges):
    return {"vertices": [{"id": vid, "side": side, "sig": sig} for vid, side, sig in vertices],
            "edges": edges}


def test_one_spec_on_both_sides_gets_each_sides_polarities():
    spec = "[1,0,0,1]"
    g = parse_grid(_grid_doc(
        [("a", "L", spec), ("b", "R", spec), ("c", "L", spec), ("d", "R", spec)],
        [["a", s, "b", s] for s in range(3)] + [["d", s, "c", s] for s in range(3)]))
    assert [g.vertices[v].polarities for v in "abcd"] == [("L",) * 3, ("R",) * 3] * 2
    assert len({id(g.vertices[v].sig) for v in "abcd"}) == 1
    assert holant(g) == 4


def test_mixed_vertices_keep_their_own_polarities():
    tensor = {"arity": 2, "entries": ["1", "2", "3", "6"]}
    obj = {
        "vertices": [{"id": "f0", "side": "L", "sig": "[1,2,0,1]"},
                     {"id": "q0", "side": "R", "sig": "EQ3"},
                     {"id": "B1", "side": "mixed", "sig": tensor, "polarities": ["R", "L"]},
                     {"id": "B2", "side": "mixed", "sig": tensor, "polarities": ["L", "R"]}],
        "edges": [["f0", 0, "q0", 0], ["f0", 1, "q0", 1], ["f0", 2, "B1", 0],
                  ["B1", 1, "B2", 1], ["B2", 0, "q0", 2]],
    }
    g = parse_grid(obj)
    assert g.vertices["B1"].polarities == ("R", "L")
    assert g.vertices["B2"].polarities == ("L", "R")
    direct = SignatureGrid()
    direct.add_vertex("f0", SymSig([1, 2, 0, 1]), "L")
    direct.add_vertex("q0", EQ3, "R")
    direct.add_vertex("B1", Tensor(2, (1, 2, 3, 6)), ("R", "L"))
    direct.add_vertex("B2", Tensor(2, (1, 2, 3, 6)), ("L", "R"))
    for va, sa, vb, sb in obj["edges"]:
        direct.add_edge((va, sa), (vb, sb))
    assert holant(g) == holant(direct)


@pytest.mark.parametrize("ids", [["a", "a"], ["a", "b", "a"], ["a", "b", "c", "b"]])
def test_duplicate_id_after_a_shared_vertex_is_refused(ids):
    obj = _grid_doc([(vid, "L", "[1,0,0,1]") for vid in ids], [])
    with pytest.raises(GridStructureError, match="duplicate vertex id"):
        parse_grid(obj)


def test_list_ids_fold_to_tuples_in_edges_and_dangling():
    obj = {
        "vertices": [{"id": ["f", 0], "side": "L", "sig": "[1,1,1]"},
                     {"id": [["e", 1], 2], "side": "R", "sig": "[1,1,1]"}],
        "edges": [[["f", 0], 0, [["e", 1], 2], 0]],
        "dangling": [[["f", 0], 1], [[["e", 1], 2], 1]],
    }
    g = parse_grid(obj)
    assert g.edges == [((("f", 0), 0), ((("e", 1), 2), 0))]
    assert g.dangling == [(("f", 0), 1), ((("e", 1), 2), 1)]


@pytest.mark.parametrize("edit", [
    lambda o: o["edges"][0].__setitem__(1, True),
    lambda o: o["edges"][1].__setitem__(3, False),
    lambda o: o["edges"][1].__setitem__(0, {"id": "a"}),
    lambda o: o["vertices"][2].__setitem__("id", {"id": "c"}),
    lambda o: o["vertices"][0].__setitem__("id", {"id": "a"}),
])
def test_bool_slots_and_unhashable_ids_are_parse_errors(edit):
    obj = _grid_doc(
        [("a", "L", "[1,0,0,1]"), ("b", "R", "[1,0,0,1]"), ("c", "L", "[1,0,0,1]")],
        [["a", 0, "b", 0], ["a", 1, "b", 1], ["a", 2, "b", 2]])
    edit(obj)
    with pytest.raises(ParseError, match="bad grid structure|not an integer"):
        parse_grid(obj)
