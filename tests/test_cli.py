"""Command line behavior: exit codes, formats, determinism."""

import argparse
import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from gsvkit.cli import build_parser, main
from gsvkit.poly import Polynomial

FERMAT = "s0^5+s1^5+s2^5+s3^5+s4^5"
DWORK = "s0^5+s1^5+s2^5+s3^5+s4^5-5*s0*s1*s2*s3*s4"
DEGENERATE = "s0^5+s1^5+s2^5+s3^5"
INCONCLUSIVE = "s0^5+s1^5+s2^5+s3^5+s4^5+s0^2*s1^3"
CHAIN = "s0^4*s1+s1^5+s2^4*s3+s3^5+s4^5"


@pytest.fixture
def conifold_file(tmp_path):
    path = tmp_path / "conifold.json"
    path.write_text(json.dumps({
        "base_dims": [1, 0, 1, 103, 3, 0, 1],
        "n": 5,
        "classes": [[1, 2, 3], [4, 5]],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_fermat(capsys):
    code, out, _ = run(capsys, "analyze", FERMAT)
    assert code == 0
    assert "transversal" in out


def test_analyze_reads_files(capsys, tmp_path):
    path = tmp_path / "fermat.poly"
    path.write_text(FERMAT + "\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0 and "transversal" in out


def test_analyze_long_inline_polynomial(capsys):
    padded = FERMAT.replace("+", " " * 60 + "+ ")
    assert len(padded) > 255  # longer than a file name may be
    code, out, _ = run(capsys, "analyze", padded)
    assert code == 0
    assert out.startswith("transversal")


def test_analyze_dwork_reports_125_nodes(capsys):
    code, out, _ = run(capsys, "analyze", DWORK)
    assert code == 0
    assert "125 singular rays (125 nodes)" in out


def test_analyze_degenerate_exits_1(capsys):
    code, _, err = run(capsys, "analyze", DEGENERATE)
    assert code == 1
    assert err == "error: NonIsolatedError: 1 of 1 singular rays are not nodes\n"


def test_analyze_inconclusive_exits_2(capsys):
    code, out, err = run(capsys, "analyze", INCONCLUSIVE)
    assert code == 2
    assert "inconclusive" in out
    assert "incomplete" in err


@pytest.mark.parametrize("source", ["ansatz", "user"])
def test_analyze_certifies_a_chain_quintic(capsys, tmp_path, source):
    # its gradient is not pure-power, but every nonempty zero pattern keeps a
    # single monomial in some component, so dG = 0 only at the origin
    flags = []
    if source == "user":
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        flags = ["--source", "user", "--candidates", str(empty)]
    code, out, err = run(capsys, "analyze", CHAIN, *flags)
    assert (code, err) == (0, "")
    assert out.startswith("transversal: G = dG = 0 only at the origin\n")
    assert "complete: True" in out


DATA = Path(__file__).resolve().parent.parent / "data"


def test_analyze_float_exits_1_only_on_a_certified_non_node(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", str(DATA / "degenerate.poly"), "--source", "float")
    assert code == 1 and "NonIsolated" in err
    assert out.splitlines()[-1] == "  (0, 0, 0, 0, 1)  non_node (corank 4)"
    # one node and uncertified hits: incomplete, not non-isolated
    report_path = tmp_path / "report.json"
    code, _, err = run(capsys, "analyze", str(DATA / "offgrid16.poly"), "--source", "float",
                       "--format", "json", "--output", str(report_path))
    report = json.loads(report_path.read_text())
    assert code == 2 and "incomplete" in err and "NonIsolated" not in err
    assert not report["complete"] and not report["isolated"]
    assert [r["class"] for r in report["rays"]] == ["node"]
    assert report["unresolved"] == 12
    # stratify reaches the same verdict, and calls the search incomplete, not
    # inconclusive: the report says transversal: false
    code, out, err = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert (code, out) == (2, "")
    assert err == "error: incomplete search: the count of 1 singular rays is not proven\n"


def test_analyze_float_rejects_a_coefficient_beyond_float_range(capsys):
    huge = "1" + "0" * 400
    code, out, err = run(capsys, "analyze", f"{FERMAT}+{huge}*s0*s1*s2*s3*s4",
                         "--source", "float")
    assert code == 1 and out == ""
    # G's own term is named, not the term of dG/ds0 it becomes
    assert err == (f"error: GsvInputError: term {huge}*s0*s1*s2*s3*s4 has a derivative "
                   "coefficient beyond float range\n")


def test_analyze_float_names_the_term_whose_hessian_leaves_float_range(capsys):
    # 10^307 and 5 * 10^307 fit a float; the Hessian's 20 * 10^307 does not
    huge = "1" + "0" * 307
    code, out, err = run(capsys, "analyze", f"{huge}*s0^5+s1^5+s2^5+s3^5+s4^5",
                         "--source", "float")
    assert code == 1 and out == ""
    assert err == (f"error: GsvInputError: term {huge}*s0^5 has a derivative coefficient "
                   "beyond float range\n")


# s0^5 + s1^5 + s0*B(s2) - s1*B(s3), B(x) = (x - 2*s4)(x - 3*s4)(x - 4*s4)(x - 5*s4):
# every node (0, 0, a, b, 1), a, b in 2..5, lies off the root-of-unity grid
OFF_GRID_2_TO_5 = ("s0^5 + s1^5 + s0*s2^4 - 14*s0*s2^3*s4 + 71*s0*s2^2*s4^2"
                   " - 154*s0*s2*s4^3 + 120*s0*s4^4 - s1*s3^4 + 14*s1*s3^3*s4"
                   " - 71*s1*s3^2*s4^2 + 154*s1*s3*s4^3 - 120*s1*s4^4")


def test_analyze_float_without_a_certified_ray_is_inconclusive(capsys):
    code, out, err = run(capsys, "analyze", OFF_GRID_2_TO_5, "--source", "float",
                         "--format", "json")
    report = json.loads(out)
    assert code == 2 and "incomplete" in err
    assert report["transversal"] is None and report["rays"] == []
    assert report["unresolved"] > 0 and not report["isolated"]
    code, out, _ = run(capsys, "analyze", OFF_GRID_2_TO_5, "--source", "float")
    assert code == 2
    assert out.splitlines() == [
        "inconclusive: no rays found and no transversality certificate", "source: float",
        "complete: False", "isolated: False",
        f"unresolved numeric hits: {report['unresolved']}"]


@pytest.mark.parametrize("source", ["ansatz", "float"])
@pytest.mark.parametrize("flags,named", [
    (["--candidates", "c.json"], "--candidates"),
])
def test_analyze_rejects_user_flags_without_source_user(capsys, source, flags, named):
    code, out, err = run(capsys, "analyze", FERMAT, "--source", source, *flags)
    assert code == 1 and out == ""
    assert f"error: GsvInputError: {named} applies only to --source user" in err


def test_analyze_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "s0^5 + q")
    assert code == 1
    assert "unknown variable" in err


@pytest.mark.parametrize("arg,message", [
    # Path("") is the working directory, but an empty argument names no file
    ("", "PolynomialParseError: empty polynomial (at position 0)"),
    ("s0^", "PolynomialParseError: expected a non-negative integer exponent (at position 3)"),
    ("s0^5+", "PolynomialParseError: expected a coefficient or a variable (at position 5)"),
    ("s0^5-s0^5", "GsvInputError: expected a nonzero homogeneous polynomial of degree 5"),
])
def test_analyze_rejects_an_expression_that_is_no_quintic(capsys, arg, message):
    code, out, err = run(capsys, "analyze", arg)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_analyze_source_user_requires_candidates(capsys):
    code, out, err = run(capsys, "analyze", FERMAT, "--source", "user")
    assert (code, out, err) == (
        1, "", "error: GsvInputError: --source user requires --candidates FILE\n")


def test_analyze_user_source(capsys, tmp_path):
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps([["1", "1", "1", "1", "1"],
                                      ["1", "zeta", "1", "1", "1"]]))
    code, out, err = run(capsys, "analyze", DWORK, "--source", "user",
                         "--candidates", str(candidates))
    # 1 of Dwork's 125 rays: a user list proves no count
    assert code == 2 and "incomplete" in err
    assert "1 singular rays (1 nodes)" in out and "complete: False" in out


@pytest.mark.parametrize("rows,message", [
    ([["1", "1", "1", "1", 1]], "--candidates row 0 coordinate 4 is 1, not a string"),
    ([["1", "1", "1", "1", "1"], "1,1,1,1,1"],
     "--candidates row 1 coordinates must be a list of strings, got \"1,1,1,1,1\""),
    ([["1", "1", "1", "1", "1"], ["1", "1", "1", "1"]],
     "--candidates row 1 has 4 coordinates, expected 5"),
    ([["1", "1", "1", "1", "1", "1"]], "--candidates row 0 has 6 coordinates, expected 5"),
    ({"0": ["1", "1", "1", "1", "1"]}, "--candidates file must hold a JSON list of rows"),
])
def test_analyze_rejects_malformed_candidates(capsys, tmp_path, rows, message):
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps(rows))
    code, out, err = run(capsys, "analyze", DWORK, "--source", "user",
                         "--candidates", str(candidates))
    assert code == 1
    assert out == ""
    assert "GsvInputError" in err and message in err


def test_stratify_pipeline(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", DWORK, "--format", "json",
                     "--output", str(report_path))
    assert code == 0
    code, out, _ = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert code == 0
    assert "MainConifold" in out and "Exocurve#125" in out
    code, out, _ = run(capsys, "stratify", str(report_path), "--sheet", "neg")
    assert code == 0
    assert "125 exocurves meeting at fuzzy point" in out


def test_stratify_transversal_both_sheets(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    run(capsys, "analyze", FERMAT, "--format", "json", "--output", str(report_path))
    code, out, _ = run(capsys, "stratify", str(report_path), "--sheet", "pos",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [s["kind"] for s in obj["strata"]] == ["SmoothCY"]
    code, out, _ = run(capsys, "stratify", str(report_path), "--sheet", "neg",
                       "--format", "json")
    obj = json.loads(out)
    assert [s["kind"] for s in obj["strata"]] == ["FuzzyPoint"]
    assert obj["strata"][0]["orbifold_group"] == 5


def test_stratify_incomplete_report_exits_2(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    run(capsys, "analyze", INCONCLUSIVE, "--format", "json",
        "--output", str(report_path))
    code, _, err = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert code == 2
    assert "inconclusive" in err


RAY = {"coords": ["1", "1", "1", "1", "0"], "class": "node"}
NON_NODE_RAY = {"coords": ["1", "1", "1", "1", "0"], "class": "non_node", "corank": 1}


@pytest.mark.parametrize("report", [
    {"transversal": True, "rays": [NON_NODE_RAY], "isolated": True, "complete": True},
    {"transversal": True, "rays": [NON_NODE_RAY], "isolated": False, "complete": True},
    {"transversal": False, "rays": [], "isolated": True, "complete": True},
    {"transversal": False, "rays": [NON_NODE_RAY], "isolated": True, "complete": True},
    {"transversal": True, "rays": [], "isolated": False, "complete": True, "unresolved": 3},
    {"transversal": None, "rays": [], "isolated": True, "complete": False, "unresolved": 3},
    {"transversal": None, "rays": [NON_NODE_RAY], "isolated": False, "complete": False},
    {"transversal": True, "rays": [], "isolated": True, "complete": False},
    {"transversal": False, "rays": [NON_NODE_RAY], "isolated": False, "complete": True,
     "unresolved": 3},
    {"transversal": False, "rays": [RAY], "isolated": True, "complete": True, "source": "user"},
    {"transversal": False, "rays": [RAY], "isolated": True, "complete": True,
     "source": "float"},
], ids=["transversal-with-rays", "transversal-with-non-node", "rays-missing",
        "isolated-with-non-node", "transversal-with-unresolved", "isolated-with-unresolved",
        "inconclusive-with-rays", "transversal-incomplete", "complete-with-unresolved",
        "complete-from-user", "complete-from-float"])
def test_stratify_rejects_inconsistent_report(capsys, tmp_path, report):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, out, err = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert code == 1
    assert out == ""
    assert "GsvInputError" in err and "disagrees" in err


@pytest.mark.parametrize("source", ["ansatz", "user", "float"])
def test_stratify_reads_a_complete_transversal_report_of_any_source(capsys, tmp_path,
                                                                    source):
    """A search of any source certifies transversality by the pure-power gradient."""
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"transversal": True, "rays": [], "isolated": True,
                                       "complete": True, "source": source}))
    code, out, _ = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert code == 0 and "SmoothCY" in out


@pytest.mark.parametrize("missing", ["transversal", "isolated", "complete", "class"])
def test_stratify_report_missing_field_exits_1(capsys, tmp_path, missing):
    ray = dict(NON_NODE_RAY)
    report = {"transversal": False, "rays": [ray], "isolated": False, "complete": True}
    del (ray if missing == "class" else report)[missing]
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, out, err = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert code == 1
    assert out == ""
    assert "GsvInputError" in err and f"no field '{missing}'" in err


@pytest.mark.parametrize("report,message", [
    (5, "report must be a JSON object, got int"),
    ([1, 2], "report must be a JSON object, got list"),
    ({"transversal": False, "isolated": True, "complete": True, "rays": 5},
     "report field 'rays' must be a list, got 5"),
    ({"transversal": False, "isolated": True, "complete": True, "rays": [5]},
     "report ray 0 must be a JSON object, got int"),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [dict(RAY, coords="1")]},
     "report ray 0 coordinates must be a list of strings, got \"1\""),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [dict(RAY, coords=[1, 1, 1, 1, 0])]},
     "report ray 0 coordinate 0 is 1, not a string"),
    ({"transversal": "yes", "isolated": True, "complete": True, "rays": []},
     "report flag transversal must be true, false or null, got \"yes\""),
    ({"transversal": False, "isolated": "no", "complete": True, "rays": [RAY]},
     "report flag isolated must be true or false, got \"no\""),
    ({"transversal": False, "isolated": True, "complete": 1, "rays": [RAY]},
     "report flag complete must be true or false, got 1"),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [RAY, dict(RAY, coords=["1", "1"])]},
     "report ray 1 has 2 coordinates, expected 5"),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [dict(RAY, **{"class": "nodez"})]},
     "report ray 0 field 'class' must be one of node, non_node, got \"nodez\""),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [dict(RAY, corank="x")]},
     "report ray 0 field 'corank' must be null for class node, got \"x\""),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [RAY, dict(RAY, corank=-7)]},
     "report ray 1 field 'corank' must be null for class node, got -7"),
    ({"transversal": False, "isolated": False, "complete": False,
      "rays": [dict(RAY, **{"class": "unclassified"})]},
     "report ray 0 field 'class' must be one of node, non_node, got \"unclassified\""),
    ({"transversal": False, "isolated": False, "complete": True,
      "rays": [dict(RAY, **{"class": "non_node", "corank": None})]},
     "report ray 0 field 'corank' must be an integer from 1 to 4 for class non_node, "
     "got null"),
    ({"transversal": False, "isolated": False, "complete": True,
      "rays": [dict(RAY, **{"class": "non_node"})]},
     "report ray 0 field 'corank' must be an integer from 1 to 4 for class non_node, "
     "got null"),
    ({"transversal": False, "isolated": False, "complete": True,
      "rays": [dict(RAY, **{"class": "non_node", "corank": 0})]},
     "report ray 0 field 'corank' must be an integer from 1 to 4 for class non_node, "
     "got 0"),
    ({"transversal": False, "isolated": False, "complete": True,
      "rays": [dict(RAY, **{"class": "non_node", "corank": 5})]},
     "report ray 0 field 'corank' must be an integer from 1 to 4 for class non_node, "
     "got 5"),
    ({"transversal": False, "isolated": False, "complete": True,
      "rays": [dict(RAY, **{"class": "non_node", "corank": True})]},
     "report ray 0 field 'corank' must be an integer from 1 to 4 for class non_node, "
     "got true"),
    ({"transversal": False, "isolated": False, "complete": True,
      "rays": [dict(RAY, **{"class": "non_node", "corank": "2"})]},
     "report ray 0 field 'corank' must be an integer from 1 to 4 for class non_node, "
     "got \"2\""),
    ({"transversal": None, "isolated": False, "complete": False, "unresolved": -1},
     "report field 'unresolved' must be a non-negative integer, got -1"),
    ({"transversal": None, "isolated": False, "complete": False, "unresolved": 2.0},
     "report field 'unresolved' must be a non-negative integer, got 2.0"),
    ({"transversal": None, "isolated": False, "complete": False, "unresolved": True},
     "report field 'unresolved' must be a non-negative integer, got true"),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [RAY, dict(RAY, coords=["zeta^5", "2/2", "1", "1", "0"])]},
     "report ray 1 repeats report ray 0"),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [dict(RAY, coords=["0", "0", "0", "0", "0"])]},
     "report ray 0 is the origin"),
    ({"transversal": False, "isolated": True, "complete": True,
      "rays": [RAY, dict(RAY, coords=["2", "1", "1", "1", "1"])]},
     "report ray 1 is not normalized: it starts with 2"),
    ({"transversal": True, "isolated": True, "complete": True, "field_order": "5"},
     "report field_order must be an integer from 1 to 200, got \"5\""),
    ({"transversal": True, "isolated": True, "complete": True, "field_order": 0},
     "report field_order must be an integer from 1 to 200, got 0"),
    ({"transversal": True, "isolated": True, "complete": True, "field_order": 10007},
     "report field_order must be an integer from 1 to 200, got 10007"),
    ({"transversal": False, "isolated": True, "complete": False, "rays": [RAY],
      "source": "my-own"},
     "report field 'source' must be one of ansatz, user, float, got \"my-own\""),
    ({"transversal": False, "isolated": True, "complete": False, "rays": [RAY],
      "source": None},
     "report field 'source' must be one of ansatz, user, float, got null"),
], ids=["top-int", "top-list", "rays-int", "ray-int", "coords-string", "coords-numbers",
        "transversal-string", "isolated-string", "complete-int", "coords-count",
        "class-unknown", "corank-node-string", "corank-node-negative",
        "class-unclassified", "corank-non-node-null", "corank-non-node-missing",
        "corank-non-node-zero", "corank-non-node-five", "corank-non-node-bool",
        "corank-non-node-string", "unresolved-negative", "unresolved-float",
        "unresolved-bool", "ray-repeated", "ray-origin", "ray-not-normalized",
        "field-order-string", "field-order-zero", "field-order-too-large",
        "source-unknown", "source-null"])
def test_stratify_rejects_malformed_shapes(capsys, tmp_path, report, message):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    code, out, err = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert code == 1
    assert out == ""
    assert "GsvInputError" in err and message in err


LONG_LITERAL = "1" * 5000  # past the interpreter's 4300-digit int conversion limit
DIGIT_LIMIT = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_LITERAL),
    reason="no int string conversion limit below 5000 digits")


@pytest.mark.parametrize("where", ["polynomial", "candidates", "report"])
def test_overlong_integer_literal_is_a_parse_error(capsys, tmp_path, where):
    path = tmp_path / "input.json"
    if where == "polynomial":
        argv = ["analyze", f"{LONG_LITERAL}*s0^5+s1^5+s2^5+s3^5+s4^5"]
    elif where == "candidates":
        path.write_text(json.dumps([["1", "1", "1", "1", LONG_LITERAL]]))
        argv = ["analyze", DWORK, "--source", "user", "--candidates", str(path)]
    else:
        path.write_text(json.dumps({"transversal": False, "isolated": True, "complete": True,
                                    "rays": [dict(RAY, coords=["1", "1", "1", "1",
                                                               LONG_LITERAL])]}))
        argv = ["stratify", str(path), "--sheet", "pos"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    place = {"polynomial": "", "candidates": "--candidates row 0 coordinate 4: ",
             "report": "report ray 0 coordinate 4: "}[where]
    assert (f"PolynomialParseError: {place}integer literal of 5000 digits is too long "
            "(at position 0)") in err


@pytest.mark.parametrize("where,message", [
    ("candidates", "--candidates row 1 coordinate 4: unknown variable q (at position 0)"),
    ("report", "report ray 1 coordinate 2: expected a non-negative integer exponent "
               "(at position 5)"),
])
def test_unparsable_coordinate_names_its_place(capsys, tmp_path, where, message):
    path = tmp_path / "input.json"
    if where == "candidates":
        path.write_text(json.dumps([["1", "1", "1", "1", "1"], ["1", "1", "1", "1", "q"]]))
        argv = ["analyze", DWORK, "--source", "user", "--candidates", str(path)]
    else:
        path.write_text(json.dumps({"transversal": False, "isolated": True, "complete": True,
                                    "rays": [RAY, dict(RAY, coords=["1", "1", "zeta^", "1",
                                                                    "0"])]}))
        argv = ["stratify", str(path), "--sheet", "pos"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: PolynomialParseError: {message}\n"


def test_stratify_reads_the_report_field_order(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    run(capsys, "analyze", DWORK, "--zeta-order", "10", "--format", "json",
        "--output", str(report_path))
    assert json.loads(report_path.read_text())["field_order"] == 10
    code, out, _ = run(capsys, "stratify", str(report_path), "--sheet", "pos")
    assert code == 0 and "strata: 251" in out and "Exocurve#125" in out


@pytest.mark.parametrize("command", ["cohomology", "resolutions"])
@pytest.mark.parametrize("data,message", [
    (5, "ConifoldData must be a JSON object, got int"),
    ([1, 2], "ConifoldData must be a JSON object, got list"),
    ({"base_dims": [1, 0, 1, 0, 1, 0, 1], "n": 0, "classes": [],
      "base_hodge": {"1,1,1": 1}}, "base_hodge key '1,1,1' is not of the form 'p,q'"),
    ({"base_dims": [1, 0, 1, 0, 1, 0, 1], "n": 0, "classes": [],
      "base_hodge": [1]}, "base_hodge must be an object keyed by 'p,q'"),
    ({"base_dims": 7, "n": 0, "classes": []}, "base_dims must be a list of 7 integers"),
    ({"base_dims": [1, 0, 1, 0, 1, 0, 1], "n": 0, "classes": [], "base_hodg": {"0,0": 1}},
     "ConifoldData has unknown field 'base_hodg'; allowed fields are base_dims, n, "
     "classes, base_hodge"),
    ({"base_dims": [1, 0, 1, 0, 1, 0, 1], "classes": []}, "ConifoldData has no field 'n'"),
    ({"base_dims": [1, 0, 1, 0, 1, 0, 1], "n": 0, "classes": [],
      "base_hodge": {"0,0": 1, "1,1": 7, " 1,1": 1, "2,2": 1, "3,3": 1}},
     "base_hodge keys '1,1' and ' 1,1' both name the Hodge number (1,1)"),
    ({"base_dims": [1, 0, 1, 0, 1, 0, 1], "n": 0, "classes": [],
      "base_hodge": {"0,0": 1, "1,1": 2, "2,1": -1, "3,3": 1}},
     "Hodge numbers must be non-negative"),
], ids=["top-int", "top-list", "hodge-key", "hodge-list", "dims-int", "unknown-field",
        "no-n", "hodge-key-repeated", "hodge-negative"])
def test_conifold_data_rejects_malformed_shapes(capsys, tmp_path, command, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert "GsvInputError" in err and message in err


def modules_after(argv) -> set[str]:
    """The gsvkit and numpy modules, and `dataclasses` and `inspect`, loaded by
    one CLI call in a fresh interpreter; other tests in this process may have
    loaded any of them."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys\n"
              "from gsvkit.cli import main\n"
              "try:\n"
              f"    code = main({list(argv)!r})\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "assert code == 0, code\n"
              "print(*(m for m in sys.modules if m.split('.')[0] in ('gsvkit', 'numpy')\n"
              "        or m in ('dataclasses', 'inspect')))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_analyze_ansatz_does_not_import_numpy(tmp_path):
    assert "numpy" not in modules_after(["analyze", DWORK, "--output",
                                         str(tmp_path / "r.txt")])


ANALYZE_MODULES = {"gsvkit.cyclo", "gsvkit.poly", "gsvkit.singular"}


@pytest.mark.parametrize("command,loaded", [
    ("help", set()),
    ("analyze", ANALYZE_MODULES),
    ("stratify", ANALYZE_MODULES | {"gsvkit.strata"}),
    ("cohomology", {"gsvkit.cohomology"}),
    ("resolutions", {"gsvkit.cohomology", "gsvkit.resolutions"}),
])
def test_each_command_loads_only_its_modules(tmp_path, conifold_file, command, loaded):
    """Also that no command but `analyze --source float` (numpy imports
    `inspect`) loads `dataclasses` or `inspect`."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"transversal": True, "rays": [], "isolated": True,
                                  "complete": True}))
    out = ["--output", str(tmp_path / "out.txt")]
    argv = {"help": ["--help"],
            "analyze": ["analyze", DWORK, *out],
            "stratify": ["stratify", str(report), "--sheet", "neg", *out],
            "cohomology": ["cohomology", conifold_file, *out],
            "resolutions": ["resolutions", conifold_file, *out]}[command]
    assert modules_after(argv) == {"gsvkit", "gsvkit.cli", "gsvkit.errors"} | loaded


def test_analyze_float_loads_numpy_but_not_numpy_random(tmp_path):
    loaded = modules_after(["analyze", str(DATA / "fermat.poly"), "--source", "float",
                            "--output", str(tmp_path / "r.txt")])
    assert {"gsvkit.homotopy", "numpy"} <= loaded
    assert not [m for m in loaded if m == "numpy.random" or m.startswith("numpy.random.")]


def test_pipeline_runs_without_numpy(tmp_path, conifold_file):
    """The README flow on Dwork (analyze, stratify pos and neg, cohomology,
    resolutions) in a fresh interpreter where numpy cannot be imported: every
    call exits 0, and numpy, cmath and gsvkit.homotopy are never loaded."""
    out, report = ["--format", "json", "--output"], str(tmp_path / "report.json")
    calls = [["analyze", DWORK, *out, report],
             ["stratify", report, "--sheet", "pos", *out, str(tmp_path / "pos.json")],
             ["stratify", report, "--sheet", "neg", *out, str(tmp_path / "neg.json")],
             ["cohomology", conifold_file, *out, str(tmp_path / "cohomology.json")],
             ["resolutions", conifold_file, *out, str(tmp_path / "graph.json")]]
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from gsvkit.cli import main\n"
              f"print(*[main(argv) for argv in {calls!r}])\n"
              "print(*(m for m in sys.modules if m.split('.')[0] in ('numpy', 'cmath')\n"
              "        or m == 'gsvkit.homotopy'), sys.modules['numpy'])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 0 0 0 0", "numpy None"]


def test_cohomology_command(capsys, conifold_file):
    code, out, _ = run(capsys, "cohomology", conifold_file)
    assert code == 0
    assert "discrepancy in degree 2: n - N = 3" in out
    assert "(iii) even pairing nondegenerate : pass" in out
    code, out, _ = run(capsys, "cohomology", conifold_file, "--format", "json")
    obj = json.loads(out)
    assert obj["refined_dims"] == [1, 0, 3, 103, 3, 0, 1]
    assert obj["raw_dims"] == [1, 0, 6, 103, 3, 0, 1]
    assert obj["kahler"]["passed"] is True


def test_cohomology_raw_mode(capsys, conifold_file):
    code, out, _ = run(capsys, "cohomology", conifold_file, "--mode", "raw",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["dims"] == [1, 0, 6, 103, 3, 0, 1]
    assert obj["kahler"]["h2_equals_h4"] is False


def test_cohomology_malformed_data_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"base_dims": [1, 0, 1, 0, 1, 0, 1],
                                "n": 2, "classes": [[1]]}))
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 1
    assert "MalformedIncidence" in err


def test_cohomology_names_a_missing_node_in_flat_memory(tmp_path):
    # Naming the first node no class lists must not build the set 1..n.  The
    # child runs under a 1 GB address-space limit, so code that does fails
    # with MemoryError instead of exhausting the machine.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"base_dims": [1, 0, 1, 0, 1, 0, 1],
                                "n": 10 ** 12, "classes": [[1]]}))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
              "from gsvkit.cli import main\n"
              f"sys.exit(main(['cohomology', {str(path)!r}]))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.endswith("node 2 lies on no 4-cycle class\n")


@pytest.mark.parametrize("command", ["cohomology", "resolutions"])
def test_empty_base_fails_degree_0_exactness(capsys, tmp_path, command):
    path = tmp_path / "empty_base.json"
    path.write_text(json.dumps({"base_dims": [0, 0, 1, 10, 2, 0, 1],
                                "n": 2, "classes": [[1, 2]]}))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == "error: ExactnessError: degree-0 exactness fails: union would be empty\n"


@pytest.mark.parametrize("field,value,message", [
    ("n", 2.5, "n must be an integer, got 2.5"),
    ("n", True, "n must be an integer, got True"),
    ("base_dims", [1, 0, 1.0, 0, 1, 0, 1], "base_dims[2] must be an integer, got 1.0"),
], ids=["n-float", "n-bool", "base-dims-float"])
def test_cohomology_rejects_non_integer_counts(capsys, tmp_path, field, value, message):
    obj = {"base_dims": [1, 0, 1, 0, 1, 0, 1], "n": 2, "classes": [[1, 2]]}
    obj[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 1
    assert out == ""
    assert message in err


def test_resolutions_command(capsys, conifold_file, tmp_path):
    dot_path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "resolutions", conifold_file, "--dot", str(dot_path))
    assert code == 0
    assert "compatible small resolutions: 4" in out
    assert "naive per-node count: 32" in out
    dot = dot_path.read_text()
    assert '"M_flat" -- "V_bar" [label="defo"];' in dot
    code, out, _ = run(capsys, "resolutions", conifold_file, "--format", "json")
    obj = json.loads(out)
    assert len(obj["vertices"]) == 6
    assert sum(1 for e in obj["edges"] if e["label"] == "flop") == 4


def test_resolutions_huge_node_count(capsys, tmp_path):
    # 2^15000 has more digits than Python converts to str by default.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"base_dims": [1, 0, 1, 2, 2, 0, 1], "n": 15000,
                                "classes": [list(range(1, 15001))]}))
    code, out, err = run(capsys, "resolutions", str(path))
    assert (code, err) == (0, "")
    assert "naive per-node count: 2^15000\n" in out
    code, out, err = run(capsys, "resolutions", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["metadata"]["naive_per_node_resolutions"] == "2^15000"


def test_resolutions_dot_format(capsys, conifold_file):
    code, out, _ = run(capsys, "resolutions", conifold_file, "--format", "dot")
    assert code == 0
    assert out.startswith("graph transitions {")
    assert '[label="exoflop"]' in out


@pytest.mark.parametrize("argv,gathers", [([], 0), (["--format", "dot"], 1),
                                          (["--format", "json"], 1)],
                         ids=["text", "dot", "json"])
def test_resolutions_builds_flop_gathers_only_for_a_file(capsys, conifold_file, monkeypatch,
                                                         argv, gathers):
    # the text format writes no graph file, so it builds no flop gather; with
    # 2 classes each graph file takes one
    from gsvkit import resolutions

    built = []
    real = resolutions._flop_gather

    def flop_gather(low_n, m):
        built.append(m)
        return real(low_n, m)

    monkeypatch.setattr(resolutions, "_flop_gather", flop_gather)
    code, _, _ = run(capsys, "resolutions", conifold_file, *argv)
    assert code == 0 and len(built) == gathers


def _singleton_conifold(path, n_classes):
    path.write_text(json.dumps({
        "base_dims": [1, 0, 1, 2, 1 + n_classes, 0, 1],
        "n": n_classes,
        "classes": [[k] for k in range(1, n_classes + 1)],
    }))
    return str(path)


@pytest.mark.parametrize("n_classes", [0, 6, 7])
def test_resolutions_writes_both_files_as_each_alone(tmp_path, n_classes):
    # N = 6 fills one block of resolution codes; N = 7 adds a high bit.
    data = _singleton_conifold(tmp_path / "data.json", n_classes)
    for fmt, output, dot in (("json", "both.json", "both.dot"), ("json", "json", None),
                             ("dot", "dot", "dot.dot"), ("text", "text", "text.dot")):
        dot_args = ["--dot", str(tmp_path / dot)] if dot else []
        assert main(["resolutions", data, "--format", fmt, "--output",
                     str(tmp_path / output), *dot_args]) == 0
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert written["both.json"] == written["json"]
    assert written["both.dot"] == written["dot.dot"] == written["text.dot"] == written["dot"]


def test_resolutions_streams_with_flat_memory(tmp_path):
    # The child is started from a small wrapper, whose RUSAGE_CHILDREN then
    # holds only that child: a child forked from the test process would
    # report this process's larger peak RSS as its own.
    big_n = 14
    data = _singleton_conifold(tmp_path / "n14.json", big_n)
    graph_json, graph_dot = tmp_path / "graph.json", tmp_path / "graph.dot"
    argv = [sys.executable, "-m", "gsvkit.cli", "resolutions", data, "--format", "json",
            "--output", str(graph_json), "--dot", str(graph_dot)]
    script = ("import resource, subprocess, sys\n"
              f"code = subprocess.run({argv!r}).returncode\n"
              "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
              "print(code, peak)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert peak_kb < 64 * 1024
    edges = 1 + 2 ** big_n + big_n * 2 ** (big_n - 1)
    with graph_json.open() as fh:
        assert sum(1 for line in fh if line.startswith('      "label": ')) == edges
    with graph_dot.open() as fh:
        assert sum(1 for line in fh if " -- " in line) == edges


def test_resolutions_bound_checked_before_output(capsys, tmp_path):
    data = _singleton_conifold(tmp_path / "n21.json", 21)
    graph_json, graph_dot = tmp_path / "graph.json", tmp_path / "graph.dot"
    code, out, err = run(capsys, "resolutions", data, "--format", "json",
                         "--output", str(graph_json), "--dot", str(graph_dot))
    assert code == 1
    assert out == ""
    assert "ResourceLimitError" in err
    assert not graph_json.exists() and not graph_dot.exists()


@pytest.mark.parametrize("flag,bad,reason", [
    ("--output", "missing/graph", "No such file or directory"),
    ("--dot", "missing/graph", "No such file or directory"),
    ("--output", "loop", "Too many levels of symbolic links"),
    ("--dot", "loop", "Too many levels of symbolic links"),
], ids=["--output", "--dot", "--output-symlink-loop", "--dot-symlink-loop"])
def test_resolutions_unwritable_path_writes_no_graph(capsys, conifold_file, tmp_path, flag,
                                                     bad, reason):
    (tmp_path / "loop").symlink_to(tmp_path / "pool")
    (tmp_path / "pool").symlink_to(tmp_path / "loop")
    paths = {"--output": str(tmp_path / "graph.json"), "--dot": str(tmp_path / "graph.dot")}
    paths[flag] = str(tmp_path / bad)
    code, out, err = run(capsys, "resolutions", conifold_file, "--format", "json",
                         "--output", paths["--output"], "--dot", paths["--dot"])
    assert (code, out) == (1, "")
    assert err == f"error: GsvInputError: cannot write {flag} file {paths[flag]}: {reason}\n"
    assert all(not os.path.exists(p) or os.path.getsize(p) == 0 for p in paths.values())


DEV_FULL = "/dev/full"  # a device on which every write fails with ENOSPC
CONIFOLD_N6 = str(DATA / "conifold_n9_N6.json")  # its JSON graph is larger than a buffer


@pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,target", [
    (["cohomology", CONIFOLD_N6, "--output", DEV_FULL], "--output file /dev/full"),
    (["resolutions", CONIFOLD_N6, "--format", "json", "--output", DEV_FULL],
     "--output file /dev/full"),
    (["resolutions", CONIFOLD_N6, "--dot", DEV_FULL], "--dot file /dev/full"),
    (["cohomology", CONIFOLD_N6], "stdout"),
    (["resolutions", CONIFOLD_N6, "--format", "json"], "stdout"),
    (["analyze", INCONCLUSIVE], "stdout"),  # exit 2 had the report been written
    (["--help"], "stdout"),  # exit 0 had the help been written
], ids=["output-close", "output-write", "dot", "stdout-flush", "stdout-write", "stdout-exit-2",
        "help"])
def test_a_failed_write_names_its_target_and_exits_1(argv, target, unbuffered):
    # A small report fails when its file is closed or stdout flushed, a large
    # graph in a write; without PYTHONUNBUFFERED stdout holds what failed until
    # the interpreter's own flush at exit, which must not fail again.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(src), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    with open(DEV_FULL, "w") as stdout:
        done = subprocess.run([sys.executable, "-m", "gsvkit.cli", *argv], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        1, f"error: GsvInputError: cannot write {target}: {os.strerror(errno.ENOSPC)}\n")


def test_usage_errors_exit_1_and_help_exits_0(capsys, conifold_file):
    # exit 2 means an incomplete or inconclusive result, so a mistyped flag
    # exits 1 like any other bad input, with argparse's usage text
    for argv in (["resolutions", conifold_file, "--bogus"], [], ["cohomology"],
                 ["analyze", DWORK, "--zeta-order", "five"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: gsvkit ")
        assert lines[-1].startswith("gsvkit") and ": error: " in lines[-1]
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gsvkit ")


def test_resolutions_rejects_one_file_for_both_outputs(capsys, conifold_file, tmp_path,
                                                       monkeypatch):
    # Two open handles on one file would interleave the JSON and DOT bytes.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "resolutions", conifold_file, "--format", "json",
                         "--output", "graph", "--dot", str(tmp_path / "graph"))
    assert code == 1
    assert out == ""
    assert "GsvInputError: --output and --dot both name graph" in err
    assert not (tmp_path / "graph").exists()


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "cohomology", "/nonexistent/path.json")
    assert code == 1 and err


@pytest.mark.parametrize("argv,what,reason", [
    (("analyze", "{dir}"), "polynomial", "Is a directory"),
    (("analyze", "{slash}"), "polynomial", "Not a directory"),
    (("analyze", "{binary}"), "polynomial", "not UTF-8 text"),
    (("analyze", DWORK, "--source", "user", "--candidates", "{missing}"),
     "--candidates", "No such file or directory"),
    (("analyze", DWORK, "--source", "user", "--candidates", "{dir}"),
     "--candidates", "Is a directory"),
    (("analyze", DWORK, "--source", "user", "--candidates", "{text}"),
     "--candidates", "not JSON: Expecting value"),
    (("stratify", "{missing}", "--sheet", "pos"), "report", "No such file or directory"),
    (("stratify", "{dir}", "--sheet", "pos"), "report", "Is a directory"),
    (("stratify", "{text}", "--sheet", "pos"), "report", "not JSON: Expecting value"),
    (("cohomology", "{missing}"), "ConifoldData", "No such file or directory"),
    (("cohomology", "{dir}"), "ConifoldData", "Is a directory"),
    (("cohomology", "{text}"), "ConifoldData", "not JSON: Expecting value"),
    (("cohomology", "{deep}"), "ConifoldData", "not JSON: maximum recursion depth"),
    (("resolutions", "{missing}"), "ConifoldData", "No such file or directory"),
    (("resolutions", "{dir}"), "ConifoldData", "Is a directory"),
    (("resolutions", "{text}"), "ConifoldData", "not JSON: Expecting value"),
    pytest.param(("analyze", DWORK, "--source", "user", "--candidates", "{long}"),
                 "--candidates", "not JSON: Exceeds the limit", marks=DIGIT_LIMIT),
    pytest.param(("stratify", "{long}", "--sheet", "pos"), "report",
                 "not JSON: Exceeds the limit", marks=DIGIT_LIMIT),
    pytest.param(("cohomology", "{long}"), "ConifoldData", "not JSON: Exceeds the limit",
                 marks=DIGIT_LIMIT),
], ids=["polynomial-dir", "polynomial-trailing-slash", "polynomial-binary",
        "candidates-missing", "candidates-dir", "candidates-text",
        "report-missing", "report-dir", "report-text",
        "cohomology-missing", "cohomology-dir", "cohomology-text", "cohomology-deep",
        "resolutions-missing",
        "resolutions-dir", "resolutions-text", "candidates-long-int", "report-long-int",
        "cohomology-long-int"])
def test_unreadable_input_names_argument_and_path(capsys, tmp_path, argv, what, reason):
    paths = {"dir": tmp_path, "missing": tmp_path / "missing.json",
             "text": tmp_path / "fermat.poly", "binary": tmp_path / "binary.poly",
             "deep": tmp_path / "deep.json", "long": tmp_path / "long.json",
             "slash": f"{tmp_path / 'fermat.poly'}/"}  # a file read as a directory
    paths["text"].write_text(FERMAT + "\n")
    paths["long"].write_text(f"[{LONG_LITERAL}]")  # JSON that Python's int() refuses
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)  # JSON nested too deeply
    paths["binary"].write_bytes(b"s0^5\xff\n")
    (path,) = (str(paths[arg[1:-1]]) for arg in argv if arg[1:-1] in paths)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: GsvInputError: cannot read {what} file {path}: {reason}")
    assert err.count("\n") == 1 and "Errno" not in err


def test_missing_polynomial_file_is_named(capsys):
    # '.' and a '/' before no integer denominator occur in no expression
    for arg in ("/nonexistent.poly", "data/dwork_psi.poly", "no_such_dir/dwork"):
        code, out, err = run(capsys, "analyze", arg)
        assert (code, out) == (1, "")
        assert err == (f"error: GsvInputError: cannot read polynomial file {arg}: "
                       "No such file or directory\n")
    code, out, _ = run(capsys, "analyze", "1/2*s0^5+s1^5+s2^5+s3^5+1 / 3*s4^5")
    assert code == 0
    assert out.startswith("transversal: ")


def test_zeta_order_only_where_it_is_read(capsys, conifold_file):
    for command, *rest in (["cohomology"], ["resolutions"], ["stratify", "--sheet", "pos"]):
        with pytest.raises(SystemExit) as exit_info:
            main([command, conifold_file, *rest, "--zeta-order", "5"])
        assert exit_info.value.code == 1
        assert "unrecognized arguments: --zeta-order 5" in capsys.readouterr().err


@pytest.mark.parametrize("fmt,unused", [("json", "summary_text"), ("text", "to_json_dict")])
def test_analyze_builds_only_the_requested_format(capsysbinary, fmt, unused):
    from gsvkit.singular import TransversalityReport

    golden = Path(__file__).resolve().parent / "golden" / f"dwork_psi1.analyze.k5.{fmt}"
    with mock.patch.object(TransversalityReport, unused, side_effect=AssertionError):
        code = main(["analyze", DWORK, "--format", fmt])
    assert code == 0
    assert capsysbinary.readouterr().out == golden.read_bytes()


def test_source_choices_are_the_singular_sources():
    # the parser spells the list out so that building it loads no singular code
    from gsvkit.singular import SOURCES

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    source = next(a for a in commands["analyze"]._actions if a.dest == "source")
    assert source.choices == SOURCES


def test_parser_defaults(capsys):
    parser = build_parser()
    args = parser.parse_args(["analyze", FERMAT])
    assert (args.zeta_order, args.source, args.format) == (5, "ansatz", "text")
    assert parser.parse_args(["cohomology", "data.json"]).mode == "refined"
    for order in ("0", "201"):
        code, out, err = run(capsys, "analyze", FERMAT, "--zeta-order", order)
        assert (code, out) == (1, "")
        assert f"GsvInputError: root-of-unity order must be from 1 to 200, got {order}" in err


def test_analyze_rejects_jobs(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", DWORK, "--jobs", "3"])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err


def test_analyze_rejects_exhaustive(capsys, tmp_path):
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps([["1", "1", "1", "1", "1"]]))
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", DWORK, "--source", "user", "--candidates", str(candidates),
              "--exhaustive"])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --exhaustive" in capsys.readouterr().err


def test_json_outputs_are_byte_identical(capsys, conifold_file, tmp_path):
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps([["1", "1", "1", "1", "1"]]))
    report_path = tmp_path / "report.json"
    run(capsys, "analyze", DWORK, "--format", "json", "--output", str(report_path))
    commands = [
        ("analyze", DWORK, "--format", "json"),
        ("analyze", DWORK, "--source", "user", "--candidates", str(candidates),
         "--format", "json"),
        ("stratify", str(report_path), "--sheet", "pos", "--format", "json"),
        ("stratify", str(report_path), "--sheet", "neg", "--format", "json"),
        ("cohomology", conifold_file, "--format", "json"),
        ("cohomology", conifold_file, "--mode", "raw", "--format", "json"),
        ("resolutions", conifold_file, "--format", "json"),
    ]
    for argv in commands:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        # a user list proves no count, so its search is incomplete (exit 2)
        assert code1 == code2 == (2 if "user" in argv else 0)
        assert out1.encode() == out2.encode()


def test_outputs_do_not_depend_on_the_hash_seed(conifold_file, tmp_path):
    """The README flow on Dwork, each call in a fresh interpreter, once under
    PYTHONHASHSEED=0 and once under 1: every output is byte-identical.
    Repeating a call in one process cannot catch an order that follows
    string hashing."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    trees = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        report = str(out / "report.json")
        calls = [["analyze", DWORK, "--format", "json", "--output", report],
                 ["stratify", report, "--sheet", "pos", "--format", "json"],
                 ["stratify", report, "--sheet", "neg", "--format", "json"],
                 ["cohomology", conifold_file, "--format", "json"],
                 ["resolutions", conifold_file, "--dot", str(out / "graph.dot")],
                 ["analyze", DWORK],
                 ["stratify", report, "--sheet", "pos"]]
        tree = {}
        for i, argv in enumerate(calls):
            done = subprocess.run([sys.executable, "-m", "gsvkit.cli", *argv], capture_output=True,
                                  env=dict(env, PYTHONHASHSEED=seed))
            assert done.returncode == 0, done.stderr
            tree[i] = (done.stdout, done.stderr)
        trees.append((tree, {path.name: path.read_bytes() for path in out.iterdir()}))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("argv,code,calls", [
    (["analyze", DWORK], 0, 0),
    (["analyze", DWORK, "--zeta-order", "10"], 0, 0),
    (["analyze", str(DATA / "degenerate.poly")], 1, 1),
], ids=["dwork-k5", "dwork-k10", "degenerate"])
def test_analyze_builds_the_exact_hessian_only_for_a_non_node(capsys, monkeypatch, argv, code,
                                                              calls):
    # a node is certified mod p from the image of G; only the exact-rank
    # fallback of a non-node builds the exact Hessian, once per search
    built = []
    real = Polynomial.hessian

    def hessian(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(Polynomial, "hessian", hessian)
    assert run(capsys, *argv)[0] == code
    assert len(built) == calls


def test_every_parsed_flag_is_read(capsys, conifold_file, tmp_path):
    """One real run per subcommand reads every option its parser defines, so
    no flag is accepted and then ignored."""
    report = tmp_path / "report.json"
    runs = {
        "analyze": ["analyze", DWORK, "--format", "json", "--output", str(report)],
        "stratify": ["stratify", str(report), "--sheet", "neg"],
        "cohomology": ["cohomology", conifold_file, "--mode", "raw"],
        "resolutions": ["resolutions", conifold_file, "--dot", str(tmp_path / "g.dot")],
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(runs)
    for command, argv in runs.items():
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = parser.parse_args(argv, namespace=Recording())
        reads.clear()  # drop argparse's own reads
        assert args.func(args) == 0
        dests = {a.dest for a in subparsers[command]._actions} - {"help", "command", "func"}
        assert dests and dests <= reads, (command, dests - reads)
