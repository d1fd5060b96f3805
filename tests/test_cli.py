import json
import sys

import pytest

import holant3.cli as cli
from holant3.cli import build_parser, main
from holant3.exact import sqrt_exact
from holant3.formats import format_embedded_grid, format_grid, format_planar_graph, parse_scalar
from holant3.grid import bipartite_grid, holant
from holant3.matchgates import ONE_OR_TWO
from holant3.signatures import SymSig
from conftest import (
    bead_ladder_instance,
    left_specs_grid_obj,
    rand_pure_grid,
    random_planar_graph,
    run_cli,
    theta_chain_grid,
)

PAIRS_2x2 = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]


def test_classify_hard(capsys):
    code = main(["classify", "--signature", "[0,1,1,0]"])
    out = capsys.readouterr().out
    assert code == 0 and "#P-hard" in out


def test_classify_affine(capsys):
    code = main(["classify", "--signature", "[1,0,1,0]"])
    out = capsys.readouterr().out
    assert code == 0 and "FP" in out and "affine" in out and "3" in out


def test_classify_parse_error():
    code = main(["classify", "--signature", "[1,zebra,0]"])
    assert code == 2


def test_eval_and_solve_agree(tmp_path, capsys):
    grid = bipartite_grid(SymSig([1, 2, 4, 8]), PAIRS_2x2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    assert main(["eval", "--input", str(path), "--format", "json"]) == 0
    eval_out = json.loads(capsys.readouterr().out)
    assert main(["solve", "--input", str(path), "--format", "json", "--oracle"]) == 0
    solve_out = json.loads(capsys.readouterr().out)
    assert eval_out["holant"] == solve_out["value"] == "81"
    assert solve_out["oracle"] == "match"


def test_solve_refusal_exit_code(tmp_path):
    grid = bipartite_grid(SymSig([0, 1, 1, 0]), PAIRS_2x2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    code, out, err = run_cli(["solve", "--input", str(path)])
    assert code == 3 and "#P-hard" in err
    code, out, err = run_cli(["solve", "--input", str(path), "--brute-force"])
    assert code == 0 and "2" in out


def test_solve_brute_force_oracle_evaluates_once(tmp_path, capsys, monkeypatch):
    """On a #P-hard signature the value is the evaluator's, so the oracle
    says it is skipped rather than comparing the evaluator with itself."""
    import holant3.grid as grid_module

    grid = bipartite_grid(SymSig([1, 2, 3, 5]), PAIRS_2x2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    value = holant(grid)
    calls = {"validate": 0, "eliminate": 0}
    validate, eliminate = grid_module.SignatureGrid.validate, grid_module._eliminate

    def counted_validate(self):
        calls["validate"] += 1
        return validate(self)

    def counted_eliminate(g):
        calls["eliminate"] += 1
        return eliminate(g)

    monkeypatch.setattr(grid_module.SignatureGrid, "validate", counted_validate)
    monkeypatch.setattr(grid_module, "_eliminate", counted_eliminate)
    assert main(["solve", "--input", str(path), "--brute-force", "--oracle",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"] == "skipped (value from the evaluator)"
    assert out["value"] == str(value) and out["verdict"] == "#P-hard"
    assert calls == {"validate": 2, "eliminate": 1}


def test_missing_file_is_input_error():
    code, _, err = run_cli(["eval", "--input", "/does/not/exist.json"])
    assert code == 2


def test_x3c_count_with_oracle(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"sets": [[1, 2, 3], [1, 2, 3], [1, 2, 3]]}))
    assert main(["x3c-count", "--input", str(path), "--oracle", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"exact_covers": "3", "oracle": "match"}


def test_x3c_not_regular_is_domain_error(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"sets": [[1, 2, 3]]}))
    code, _, err = run_cli(["x3c-count", "--input", str(path)])
    assert code == 4 and "NotThreeRegular" in err


def test_pm_count_with_oracle(tmp_path, capsys):
    import random

    g = random_planar_graph(random.Random(9))
    path = tmp_path / "planar.json"
    path.write_text(json.dumps(format_planar_graph(g)))
    assert main(["pm-count", "--input", str(path), "--oracle"]) == 0
    assert "oracle: match" in capsys.readouterr().out


THETA = {"vertices": [{"id": 0, "sig": "[0,1,1,0]", "side": "L"},
                     {"id": 1, "sig": "EQ3", "side": "R"}],
         "edges": [[0, 0, 1, 0], [0, 1, 1, 1], [0, 2, 1, 2]]}


def test_theta_rotations_are_read(tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({**THETA, "rotations": [[0, [0, 1, 2]], [1, [2, 1, 0]]]}))
    code, out, _ = run_cli(["solve-planar-cover", "--input", str(path), "--oracle"])
    assert code == 0 and "oracle: match" in out


@pytest.mark.parametrize("rotations, message", [
    ([["0", [0, 1, 2]], [1, [2, 1, 0]]], "names no grid vertex"),
    ([[0, [0, 1, 2]], [1, [2, 1, 0]], ["x", [0]]], "names no grid vertex"),
    ([[0, [0, 1, 2]], [1, [2, 1, 0]], [0, [0, 2, 1]]], "more than one rotation entry"),
    ([[0, [0, "a", 1]], [1, [2, 1, 0]]], "not an integer"),
])
def test_bad_rotation_entries_are_input_errors(rotations, message, tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({**THETA, "rotations": rotations}))
    code, out, err = run_cli(["solve-planar-cover", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and message in err
    assert "Traceback" not in err


def test_bool_rotation_slot_is_an_input_error(tmp_path):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps({**THETA, "rotations": [[0, [0, True, 2]], [1, [2, 1, 0]]]}))
    code, out, err = run_cli(["solve-planar-cover", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "not an integer" in err


def test_json_text_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(json.dumps({**THETA, "rotations": [[0, [0, 1, 2]], [1, [2, 1, 0]]]})))
    assert main(["solve-planar-cover", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")


def test_solve_planar_cover(tmp_path, capsys):
    inst = theta_chain_grid(2, ONE_OR_TWO)
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(format_embedded_grid(inst)))
    assert main(["solve-planar-cover", "--input", str(path), "--oracle",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"cover_count": "2", "oracle": "match"}


def test_contract_round_trip(tmp_path, capsys):
    from holant3.gadgets import build_transfer_gadget
    from holant3.formats import parse_scalar

    g = build_transfer_gadget(SymSig([1, 5, 7, 9]))
    path = tmp_path / "gadget.json"
    path.write_text(json.dumps(format_grid(g)))
    assert main(["contract", "--input", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    tensor = json.loads(out["tensor"])
    assert [parse_scalar(e) for e in tensor["entries"]] == [1, 5, 7, 9]
    assert out["polarities"] == "LR"


def test_search_gadget_found(capsys):
    assert main(["search-gadget", "--signature", "[0,1,1,0]", "--target", "[3,2,2,3]",
                 "--max-f", "3", "--max-eq", "2"]) == 0
    out = capsys.readouterr().out
    assert "found: yes" in out


def test_search_gadget_miss(capsys):
    assert main(["search-gadget", "--signature", "[1,0,0,1]", "--target", "[1,2,3,4]",
                 "--max-f", "1", "--max-eq", "1"]) == 0
    assert "found: no" in capsys.readouterr().out


# `search-gadget --format json` stdout, byte for byte, as recorded before
# the orbit enumeration was rewritten: the gadget found is the first hit
# in enumeration order, so these pin that order as well as the output.
HUB_3223_JSON = (
    r'{"found": "yes", "gadget": "{\"dangling\": [[[\"f\", 0], 2], [[\"f\", 1], 2], '
    r'[[\"f\", 2], 2]], \"edges\": [[[\"f\", 0], 0, [\"q\", 0], 0], [[\"f\", 0], 1, [\"q\", '
    r'1], 0], [[\"f\", 1], 0, [\"q\", 0], 1], [[\"f\", 1], 1, [\"q\", 1], 1], [[\"f\", 2], '
    r'0, [\"q\", 0], 2], [[\"f\", 2], 1, [\"q\", 1], 2]], \"vertices\": [{\"id\": [\"f\", '
    r'0], \"side\": \"L\", \"sig\": {\"arity\": 3, \"weights\": [\"0\", \"1\", \"1\", '
    r'\"0\"]}}, {\"id\": [\"f\", 1], \"side\": \"L\", \"sig\": {\"arity\": 3, '
    r'\"weights\": [\"0\", \"1\", \"1\", \"0\"]}}, {\"id\": [\"f\", 2], \"side\": \"L\", '
    r'\"sig\": {\"arity\": 3, \"weights\": [\"0\", \"1\", \"1\", \"0\"]}}, {\"id\": [\"q\", '
    r'0], \"side\": \"R\", \"sig\": \"EQ3\"}, {\"id\": [\"q\", 1], \"side\": \"R\", '
    r'\"sig\": \"EQ3\"}]}"}'
    '\n')

FOUR_SQUARE_0120_JSON = (
    r'{"found": "yes", "gadget": "{\"dangling\": [[[\"f\", 0], 2], [[\"f\", 1], 2], '
    r'[[\"f\", 2], 2]], \"edges\": [[[\"f\", 0], 0, [\"q\", 1], 0], [[\"f\", 0], 1, [\"q\", '
    r'2], 0], [[\"f\", 1], 0, [\"q\", 0], 0], [[\"f\", 1], 1, [\"q\", 2], 1], [[\"f\", 2], '
    r'0, [\"q\", 0], 1], [[\"f\", 2], 1, [\"q\", 1], 1], [[\"f\", 3], 0, [\"q\", 0], 2], '
    r'[[\"f\", 3], 1, [\"q\", 1], 2], [[\"f\", 3], 2, [\"q\", 2], 2]], '
    r'\"vertices\": [{\"id\": [\"f\", 0], \"side\": \"L\", \"sig\": {\"arity\": 3, '
    r'\"weights\": [\"0\", \"1\", \"2\", \"0\"]}}, {\"id\": [\"f\", 1], \"side\": \"L\", '
    r'\"sig\": {\"arity\": 3, \"weights\": [\"0\", \"1\", \"2\", \"0\"]}}, {\"id\": [\"f\", '
    r'2], \"side\": \"L\", \"sig\": {\"arity\": 3, \"weights\": [\"0\", \"1\", \"2\", '
    r'\"0\"]}}, {\"id\": [\"f\", 3], \"side\": \"L\", \"sig\": {\"arity\": 3, '
    r'\"weights\": [\"0\", \"1\", \"2\", \"0\"]}}, {\"id\": [\"q\", 0], \"side\": \"R\", '
    r'\"sig\": \"EQ3\"}, {\"id\": [\"q\", 1], \"side\": \"R\", \"sig\": \"EQ3\"}, '
    r'{\"id\": [\"q\", 2], \"side\": \"R\", \"sig\": \"EQ3\"}]}"}'
    '\n')

TRANSFER_LR_JSON = (
    r'{"found": "yes", "gadget": "{\"dangling\": [[[\"f\", 0], 2], [[\"q\", 0], 2]], '
    r'\"edges\": [[[\"f\", 0], 0, [\"q\", 0], 0], [[\"f\", 0], 1, [\"q\", 0], 1]], '
    r'\"vertices\": [{\"id\": [\"f\", 0], \"side\": \"L\", \"sig\": {\"arity\": 3, '
    r'\"weights\": [\"1\", \"2\", \"2\", \"4\"]}}, {\"id\": [\"q\", 0], \"side\": \"R\", '
    r'\"sig\": \"EQ3\"}]}"}'
    '\n')

MISS_LR_44_JSON = (
    r'{"bounds": "max_f=4 max_eq=4", "found": "no"}'
    '\n')


@pytest.mark.parametrize("argv, expected", [
    (["--signature", "[0,1,1,0]", "--target", "[3,2,2,3]", "--max-f", "3", "--max-eq", "2"],
     HUB_3223_JSON),
    (["--signature", "[0,1,2,0]", "--target", "[12,17,20,12]", "--max-f", "4", "--max-eq", "3"],
     FOUR_SQUARE_0120_JSON),
    (["--signature", "[1,2,2,4]", "--target", "[1,2,4]", "--max-f", "1", "--max-eq", "1",
      "--polarities", "LR"], TRANSFER_LR_JSON),
    # exhaustive: a nonnegative f gives no target with both signs, so
    # every 4 x 4 topology is enumerated and contracted
    (["--signature", "[1,2,3,5]", "--target", "[1,-2,3]", "--max-f", "4", "--max-eq", "4",
      "--polarities", "LR"], MISS_LR_44_JSON),
], ids=["hub_3223", "four_square_0120", "transfer_lr", "miss_lr_44"])
def test_search_gadget_json_output_is_pinned(argv, expected, capsys):
    assert main(["search-gadget", *argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv, message", [
    (["--signature", "[0,1,1,0]", "--target", "[3,2,2,3]", "--polarities", "LX"], "only L and R"),
    (["--signature", "[0,1,1,0]", "--target", "[3,2,2,3]", "--polarities", "LR"], "arity is 3"),
    (["--signature", "[1,2,2,4]", "--target", "[1,2,4]", "--polarities", "LLR"], "arity is 2"),
    (["--signature", "[1,2]", "--target", "[1,2,3,4]"], "must be ternary"),
    (["--signature", "[1,2,3,4,5]", "--target", "[1,2,3,4]"], "must be ternary"),
])
def test_search_gadget_bad_arguments_are_input_errors(argv, message, capsys):
    assert main(["search-gadget", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and message in captured.err


def test_interp_demo(capsys):
    assert main(["interp-demo", "--signature", "[1,2,3,4]", "--occurrences", "1"]) == 0
    out = capsys.readouterr().out
    assert "match: yes" in out


QX = {"radicand": "33"}
INTERP_DEMO_JSON = [
    # QuadExt eigenvalues, three strata
    (["[1,2,3,4]", "2"], {
        "direct_substitution": {"base": "491/33", "coeff": "85/33", **QX},
        "eigenvalues": "lam={'base': '5/2', 'coeff': '-1/2', 'radicand': '33'} "
                       "mu={'base': '5/2', 'coeff': '1/2', 'radicand': '33'}",
        "holant_chain_0": "29", "holant_chain_1": "858", "holant_chain_2": "24716",
        "interpolated": {"base": "491/33", "coeff": "85/33", **QX}, "match": "yes",
        "nodes": [{"base": "29/2", "coeff": "5/2", **QX}, "-2",
                  {"base": "29/2", "coeff": "-5/2", **QX}],
        "occurrences": 2,
        "projector_params": "x={'base': '3/4', 'coeff': '1/4', 'radicand': '33'} "
                            "y={'base': '-3/4', 'coeff': '1/4', 'radicand': '33'}",
        "signature": "[1,2,3,4]",
        "strata_coefficients": [{"base": "491/33", "coeff": "85/33", **QX}, "-25/33",
                                {"base": "491/33", "coeff": "-85/33", **QX}]}),
    # lam = 0: no strata are solved, only the all-mu one is read off
    (["[1,1,1,1]", "2"], {
        "direct_substitution": "4", "eigenvalues": "lam=0 mu=2",
        "holant_chain_0": "4", "holant_chain_1": "16", "holant_chain_2": "64",
        "interpolated": "4", "match": "yes", "nodes": ["4", "0", "0"], "occurrences": 2,
        "projector_params": "x=1 y=1", "signature": "[1,1,1,1]",
        "strata_coefficients": "degenerate (zero eigenvalue): all-mu stratum only"}),
    # lam = -1: nodes of both signs
    (["[1,2,2,1]", "3"], {
        "direct_substitution": "49/4", "eigenvalues": "lam=-1 mu=3",
        "holant_chain_0": "10", "holant_chain_1": "362", "holant_chain_2": "8674",
        "holant_chain_3": "243506", "interpolated": "49/4", "match": "yes",
        "nodes": ["27", "-9", "3", "-1"], "occurrences": 3, "projector_params": "x=1 y=1",
        "signature": "[1,2,2,1]", "strata_coefficients": ["49/4", "-13/4", "3/4", "1/4"]}),
]


@pytest.mark.parametrize("args, report", INTERP_DEMO_JSON)
def test_interp_demo_json_is_pinned(args, report, capsys):
    signature, occurrences = args
    assert main(["interp-demo", "--signature", signature, "--occurrences", occurrences,
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"


IDENTITIES_PROVED = {"factorization": "proved", "middle-branch": "proved",
                     "product-branch": "proved", "palindrome-branch": "proved"}


def test_verify_identities(capsys):
    assert main(["verify-identities", "--format", "json"]) == 0
    report = dict(IDENTITIES_PROVED, all_passed="yes")
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"


def test_verify_identities_defaults_prove_every_identity():
    expected = "".join(f"{name}: {value}\n" for name, value in IDENTITIES_PROVED.items())
    expected += "all_passed: yes\n"
    assert run_cli(["verify-identities"]) == (0, expected, "")


def test_verify_identities_reports_a_failed_identity(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_case_identities",
                        lambda: {"product-branch": False, "palindrome-branch": True})
    assert main(["verify-identities"]) == 1
    assert capsys.readouterr().out == ("product-branch: NO\npalindrome-branch: proved\n"
                                       "all_passed: NO\n")


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_verify_identities_takes_no_sampling_flags(flag):
    code, out, err = run_cli(["verify-identities", flag, "60"])
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 60" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["search-gadget", "--signature", "[0,1,1,0]", "--target", "[3,2,2,3]", "--max-f", "-1"],
    ["search-gadget", "--signature", "[0,1,1,0]", "--target", "[3,2,2,3]", "--max-eq", "-1"],
    ["interp-demo", "--signature", "[1,2,3,4]", "--occurrences", "0"],
    ["interp-demo", "--signature", "[1,2,3,4]", "--occurrences", "-2"],
])
def test_out_of_range_counts_are_input_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag = next(a for a in argv if a in ("--max-f", "--max-eq", "--occurrences"))
    assert captured.out == ""
    assert captured.err.startswith("input error:") and flag in captured.err


def test_solve_value_past_int_str_digit_limit(tmp_path, capsys):
    # [0,x,0,x] on K3,3: the 4 odd-weight assignments of the 3 equality
    # variables each weigh x^3, so the value has 6001 digits
    x = 10**2000
    grid = bipartite_grid(SymSig([0, x, 0, x]), [(i, j) for i in range(3) for j in range(3)])
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    assert main(["solve", "--input", str(path), "--oracle", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"] == "match"
    assert len(out["value"]) == 6001 and parse_scalar(out["value"]) == 4 * x**3


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_main_leaves_the_digit_limit_as_it_found_it(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        grid = bipartite_grid(SymSig([0, 10**2000, 0, 10**2000]),
                              [(i, j) for i in range(3) for j in range(3)])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(format_grid(grid)))
        assert main(["solve", "--input", str(path)]) == 0
        assert len(capsys.readouterr().out) > 4300
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


ORACLE_COMMANDS = {"solve", "pm-count", "solve-planar-cover", "x3c-count"}


@pytest.mark.parametrize("command", ["classify", "eval", "solve", "pm-count",
                                     "solve-planar-cover", "contract", "search-gadget",
                                     "interp-demo", "verify-identities", "x3c-count"])
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert ("--oracle" in usage) == (command in ORACLE_COMMANDS)
    assert "--max-edges" not in usage
    assert "--workers" not in usage


@pytest.mark.parametrize("argv", [["classify", "--signature", "[0,1,1,0]", "--oracle"],
                                  ["eval", "--input", "g.json", "--workers", "2"],
                                  ["pm-count", "--input", "g.json", "--max-edges", "30"],
                                  ["solve", "--input", "g.json", "--max-edges", "30"],
                                  ["solve-planar-cover", "--input", "g.json",
                                   "--max-edges", "30"]])
def test_unread_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_max_edges_is_parsed_and_never_read(tmp_path, capsys):
    """eval, contract, interp-demo and x3c-count still accept --max-edges,
    and a value far below every edge count leaves stdout byte-identical."""
    from holant3.gadgets import build_transfer_gadget

    grid, gadget, sets = tmp_path / "g.json", tmp_path / "gadget.json", tmp_path / "s.json"
    grid.write_text(json.dumps(format_grid(bipartite_grid(SymSig([1, 2, 4, 8]), PAIRS_2x2))))
    gadget.write_text(json.dumps(format_grid(build_transfer_gadget(SymSig([1, 5, 7, 9])))))
    sets.write_text(json.dumps({"sets": [[1, 2, 3], [1, 2, 3], [1, 2, 3]]}))
    for argv in (["eval", "--input", str(grid)],
                 ["contract", "--input", str(gadget)],
                 ["interp-demo", "--signature", "[1,2,3,4]", "--occurrences", "3"],
                 ["x3c-count", "--input", str(sets), "--oracle"]):
        outs = []
        for extra in ([], ["--max-edges", "1"]):
            assert main(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]


def test_outputs_deterministic_across_runs(tmp_path):
    grid = bipartite_grid(SymSig([1, 2, 4, 8]), PAIRS_2x2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    runs = [run_cli(["eval", "--input", str(path), "--format", "json"]) for _ in range(2)]
    assert runs[0][0] == 0 and runs[0][:2] == runs[1][:2]


def test_eval_of_1200_edge_equality_grid(tmp_path, capsys):
    """Every vertex is [1,0,0,1], so the Holant is 2 per connected
    component; 1200 edges is far past any recursion depth."""
    import random

    grid = rand_pure_grid(random.Random(1200), SymSig([1, 0, 0, 1]), 400)
    parent = {vid: vid for vid in grid.vertices}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (a, _), (b, _) in grid.edges:
        parent[root(a)] = root(b)
    components = len({root(v) for v in grid.vertices})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    assert main(["eval", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"holant": str(2 ** components)}


def test_eval_past_live_state_limit_exits_4(tmp_path, capsys, monkeypatch):
    import random

    import holant3.grid as grid_module

    grid = rand_pure_grid(random.Random(42), SymSig([1, 2, 3, 5]), 14)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    monkeypatch.setattr(grid_module, "MAX_LIVE_STATES", 16)
    assert main(["eval", "--input", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("TooManyLiveStates:") and "live states" in captured.err


def _write_left_specs(tmp_path, specs):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(left_specs_grid_obj(specs)))
    return str(path)


@pytest.mark.parametrize("specs", [
    ["[2,0,2,0]", "[4/2,0,2,0]", "[2,0,2,0]"],
    [{"arity": 3, "weights": ["2", "0", "2", "0"]}, [2, 0, 2, 0], "[2,0,2,0]"],
])
def test_solve_treats_equal_left_specs_as_one_signature(specs, tmp_path, capsys):
    path = _write_left_specs(tmp_path, specs)
    assert main(["solve", "--input", path, "--format", "json", "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == 3 and out["oracle"] == "match"


@pytest.mark.parametrize("specs, message", [
    (["[2,0,2,0]", "[2,0,2,0]", "[3,0,3,0]"], "left side must carry exactly one signature"),
    (["[2,0,2,0]", "[2,zebra,2,0]", "[2,0,2,0]"], "bad rational"),
    ([{"arity": 3, "entries": ["2", "0", "0", "2", "0", "2", "2", "0"]}] * 3,
     "left signature must be symmetric"),
])
def test_solve_rejects_bad_left_specs(specs, message, tmp_path, capsys):
    path = _write_left_specs(tmp_path, specs)
    assert main(["solve", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize("spec", ["[1e5,0,0,1]", "[0.5,1,1,0]", "[1_000,0,0,1]",
                                  {"arity": 3, "weights": [True, 0, 0, 1]}])
def test_decimal_exponent_and_bool_weights_are_input_errors(spec, tmp_path, capsys):
    path = _write_left_specs(tmp_path, [spec] * 3)
    assert main(["eval", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "bad rational" in captured.err
    if isinstance(spec, str):
        assert main(["classify", "--signature", spec]) == 2


def test_argument_parser_is_built_once(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        path = _write_left_specs(tmp_path, ["[2,0,2,0]"] * 3)
        assert main(["solve", "--input", path, "--format", "json"]) == 0
        with pytest.raises(SystemExit):
            main(["eval", "--input", path, "--oracle"])
        assert main(["eval", "--input", path, "--format", "json"]) == 0
        assert main(["classify", "--signature", "[1,0,1,0]"]) == 0
        assert len(built) == 1
        captured = capsys.readouterr()
        solve_out, eval_out, classify_out = captured.out.splitlines()[:3]
        assert json.loads(solve_out)["value"] == json.loads(eval_out)["holant"]
        assert classify_out == "signature: [1,0,1,0]"
        assert "unrecognized arguments: --oracle" in captured.err
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("edges, dangling", [
    ([["a", "0", "b", 0]], []),
    ([["a", 0.0, "b", 0]], []),
    ([["a", 0, "b", True]], []),
    ([], [["a", "0"]]),
    ([], [["a", False]]),
])
def test_non_integer_slots_are_input_errors(edges, dangling, tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"vertices": [{"id": "a", "sig": "[1,1]", "side": "L"},
                                             {"id": "b", "sig": "[1,1]", "side": "R"}],
                                "edges": edges, "dangling": dangling}))
    assert main(["eval", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "is not an integer" in captured.err


@pytest.mark.parametrize("obj", [{"sets": [[1, 2, [3]]]},
                                 {"sets": [[1, 2, {"x": 3}]]},
                                 {"ground": [[1]], "sets": [[1, 2, 3]]}])
def test_unhashable_set_elements_are_input_errors(obj, tmp_path, capsys):
    path = tmp_path / "sets.json"
    path.write_text(json.dumps(obj))
    assert main(["x3c-count", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_solve_planar_cover_oracle_skips_over_the_live_state_limit(tmp_path, capsys,
                                                                  monkeypatch):
    """At the default limit the evaluator checks 40 and 320 grid vertices
    (60 and 480 edges). Under a limit of 16 live states it refuses the 320
    (its table outgrows 128), and the matchgate count is still reported
    with the oracle skipped."""
    import holant3.grid as grid_module

    paths = []
    for seed, n in ((4, 40), (5, 320)):
        paths.append(tmp_path / f"planar{n}.json")
        paths[-1].write_text(json.dumps(format_embedded_grid(bead_ladder_instance(seed, n))))
    argv = ["solve-planar-cover", "--oracle", "--format", "json", "--input"]
    for path in paths:
        assert main(argv + [str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"] == "match" and int(out["cover_count"]) > 0
    monkeypatch.setattr(grid_module, "MAX_LIVE_STATES", 16)
    assert main(argv + [str(paths[1])]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["oracle"] == "skipped (over live-state limit)" and int(out["cover_count"]) > 0
    assert captured.err == ""


def test_eval_reads_back_a_grid_with_quadext_weights(tmp_path, capsys):
    r = sqrt_exact(2)
    grid = bipartite_grid(SymSig([1, r, 3, 1 + r]), PAIRS_2x2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(format_grid(grid)))
    assert main(["eval", "--input", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert parse_scalar(out["holant"]) == holant(grid)


@pytest.mark.parametrize("edge, message", [
    (["a", True, "b", 0], "not an integer"),
    (["a", 0, {"id": "b"}, 0], "bad grid structure"),
])
def test_bool_slot_and_unhashable_id_are_input_errors(edge, message, tmp_path, capsys):
    obj = {"vertices": [{"id": "a", "side": "L", "sig": "[1,0,0,1]"},
                        {"id": "b", "side": "R", "sig": "EQ3"}],
           "edges": [edge, ["a", 1, "b", 1], ["a", 2, "b", 2]]}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(obj))
    for command in ("eval", "solve"):
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")
        assert message in captured.err
