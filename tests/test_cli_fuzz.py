"""Malformed and edge-case JSON for every command that reads --input.

Each input starts from a valid document for its command; a few random
edits replace, delete or append values anywhere in it. Whatever the
result, main must return 0, 2, 3 or 4 and raise nothing.
"""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from holant3.cli import main
from holant3.formats import format_embedded_grid, format_grid, format_planar_graph
from holant3.gadgets import build_transfer_gadget
from holant3.signatures import SymSig
from conftest import (
    bead_ladder_instance,
    left_specs_grid_obj,
    rand_3reg_system,
    random_planar_graph,
)

MAX_EDITS = 3                  # random edits per input

GRID = left_specs_grid_obj(["[1,2,3,5]"] * 3)
GADGET = format_grid(build_transfer_gadget(SymSig([1, 2, 3, 5])))
EMBEDDED = format_embedded_grid(bead_ladder_instance(0, 8))
PLANAR = format_planar_graph(random_planar_graph(random.Random(0), max_extra=3))
SETS = {"ground": list(range(6)), "sets": rand_3reg_system(random.Random(0), 6)}

# (argv after the command, the valid document it reads)
COMMANDS = {
    "eval": ([], GRID),
    "solve": (["--oracle", "--brute-force"], GRID),
    "contract": ([], GADGET),
    "pm-count": (["--oracle"], PLANAR),
    "solve-planar-cover": (["--oracle"], EMBEDDED),
    "x3c-count": (["--oracle"], SETS),
}

KEYS = ["vertices", "edges", "dangling", "id", "sig", "side", "polarities", "rotations",
        "rotation", "arity", "weights", "entries", "base", "coeff", "radicand", "sets",
        "ground"]
leaves = (st.none() | st.booleans() | st.integers(-3, 5) | st.integers()
          | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
          | st.sampled_from(["EQ3", "[1,0,0,1]", "[0,1,1,0]", "1/2", "-1", "L", "R",
                             "mixed", "0", "1/0"]))
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=8)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


def _mutate(doc, data):
    for _ in range(data.draw(st.integers(1, MAX_EDITS))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(values)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        op = data.draw(st.sampled_from(["replace", "delete", "append"]))
        if op == "replace":
            parent[path[-1]] = data.draw(values)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(data.draw(values))
    return doc


def _run(command, doc) -> int:
    flags, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main([command, "--input", path, *flags])


def test_valid_documents_exit_0():
    for command, (_, doc) in COMMANDS.items():
        assert _run(command, doc) == 0, command


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_every_input_command_exits_cleanly(command, data):
    doc = _mutate(json.loads(json.dumps(COMMANDS[command][1])), data)
    assert _run(command, doc) in (0, 2, 3, 4)


BAD_INPUTS = [
    ("eval", {**GRID, "edges": [["a", "0", "b", 0]]}),
    ("eval", {**GRID, "edges": [[["f", 0], 0.0, ["eq", 0], 0]]}),
    ("eval", {**GRID, "edges": [[["f", 0], True, ["eq", 0], 0]]}),
    ("contract", {**GADGET, "dangling": [["f0", "0"], ["q0", 2]]}),
    ("x3c-count", {"sets": [[1, 2, [3]]]}),
    ("x3c-count", {"ground": [[1]], "sets": [[1, 2, 3]]}),
    ("eval", []), ("eval", "text"), ("eval", 7), ("eval", None),
    ("pm-count", {"vertices": [{"id": {"a": 1}, "rotation": []}], "edges": []}),
    ("pm-count", {"vertices": [{"id": 0, "rotation": [[0, 1, []]]}], "edges": []}),
    ("solve-planar-cover", {**EMBEDDED, "rotations": 5}),
    ("contract", {**GADGET, "vertices": [{"id": "f0", "sig": {"arity": 2 ** 40, "entries": [1, 2]},
                                          "side": "L"}]}),
    ("contract", {**GADGET, "vertices": [{"id": "f0", "sig": {"entries": [1, 2, 3]},
                                          "side": "L"}]}),
]


def test_named_bad_inputs_are_input_errors():
    for command, doc in BAD_INPUTS:
        assert _run(command, doc) == 2, (command, doc)
