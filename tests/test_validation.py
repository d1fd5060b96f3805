"""Each grid is validated once, by the layer that consumes it.

parse_grid checks syntax only; holant and contract (through the
evaluator), TractableInstance and the planar path each run
SignatureGrid.validate before they read the wiring. These tests pin the
exit code and message of each structural fault on every command that
reads a grid, and that no command validates its grid twice.
"""

import json

import pytest

from holant3.cli import main
from holant3.errors import GridStructureError
from holant3.formats import format_embedded_grid, format_grid
from holant3.gadgets import build_transfer_gadget
from holant3.grid import SignatureGrid, contract
from holant3.matchgates import ONE_OR_TWO
from holant3.signatures import SymSig
from conftest import left_specs_grid_obj, theta_chain_grid

GRID = left_specs_grid_obj(["[2,0,2,0]"] * 3)
DOCS = {
    "eval": GRID,
    "solve": GRID,
    "contract": format_grid(build_transfer_gadget(SymSig([1, 2, 3, 5]))),
    "solve-planar-cover": format_embedded_grid(theta_chain_grid(2, ONE_OR_TWO)),
}


def _unknown_vertex(edges):
    edges[0][0] = "z"


def _slot_out_of_range(edges):
    edges[0][1] = 7


def _port_used_twice(edges):
    edges[1][:2] = edges[0][:2]


def _same_side_edge(edges):
    # the L ends of the first two edges meet, and so do their R ends
    e0, e1 = edges[0], edges[1]
    edges[0], edges[1] = [*e0[:2], *e1[:2]], [*e0[2:], *e1[2:]]


def _unwired_port(edges):
    del edges[-1]


FAULTS = {
    "unknown vertex": _unknown_vertex,
    "slot out of range": _slot_out_of_range,
    "port used twice": _port_used_twice,
    "same-side edge": _same_side_edge,
    "unwired port": _unwired_port,
}

# (command, fault) -> stderr; every one exits 4
EXPECTED = {
    ("eval", "unknown vertex"): "GridStructureError: edge: unknown vertex 'z'",
    ("eval", "slot out of range"): "GridStructureError: edge: slot 7 out of range for ('f', 0)",
    ("eval", "port used twice"): "GridStructureError: edge: port (('f', 0), 0) used twice",
    ("eval", "same-side edge"): "PolarityError: edge (('f', 0), 0)-(('f', 0), 1) joins L to L",
    ("eval", "unwired port"): "GridStructureError: port (('f', 2),2) neither wired nor dangling",
    ("contract", "unknown vertex"): "GridStructureError: edge: unknown vertex 'z'",
    ("contract", "slot out of range"): "GridStructureError: edge: slot 7 out of range for 'f0'",
    ("contract", "port used twice"): "GridStructureError: edge: port ('f0', 1) used twice",
    ("contract", "same-side edge"): "PolarityError: edge ('f0', 1)-('f0', 2) joins L to L",
    ("contract", "unwired port"): "GridStructureError: port ('f0',2) neither wired nor dangling",
    ("solve-planar-cover", "unknown vertex"): "GridStructureError: edge: unknown vertex 'z'",
    ("solve-planar-cover", "slot out of range"):
        "GridStructureError: edge: slot 7 out of range for ('L', 0)",
    ("solve-planar-cover", "port used twice"):
        "GridStructureError: edge: port (('L', 0), 0) used twice",
    ("solve-planar-cover", "same-side edge"):
        "PolarityError: edge (('L', 0), 0)-(('L', 0), 1) joins L to L",
    ("solve-planar-cover", "unwired port"):
        "GridStructureError: port (('R', 0),2) neither wired nor dangling",
}
# solve reads the same grid as eval and reports the same fault
EXPECTED.update({("solve", fault): EXPECTED["eval", fault] for fault in FAULTS})


def _write(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("command", sorted(DOCS))
def test_structural_faults_exit_4_with_the_fault_named(command, fault, tmp_path, capsys):
    doc = json.loads(json.dumps(DOCS[command]))
    FAULTS[fault](doc["edges"])
    assert main([command, "--input", _write(tmp_path, doc)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == EXPECTED[command, fault] + "\n"


@pytest.mark.parametrize("command", sorted(DOCS))
def test_each_command_validates_its_grid_once(command, tmp_path, capsys, monkeypatch):
    calls = []
    validate = SignatureGrid.validate
    monkeypatch.setattr(SignatureGrid, "validate", lambda g: calls.append(g) or validate(g))
    assert main([command, "--input", _write(tmp_path, DOCS[command])]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("port, message", [
    (("z", 0), "dangling: unknown vertex 'z'"),
    (("q0", 5), "dangling: slot 5 out of range for 'q0'"),
])
def test_contract_refuses_a_bad_dangling_port(port, message):
    """contract reads the dangling ports' polarities only after the
    evaluator has validated them."""
    g = build_transfer_gadget(SymSig([1, 2, 3, 5]))
    g.dangling[1] = port
    with pytest.raises(GridStructureError, match=message):
        contract(g)
