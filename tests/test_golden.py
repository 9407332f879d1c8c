"""Byte-for-byte regression of `cohomology`, `resolutions` and `analyze` stdout.

The files under tests/golden/ were captured once from the CLI and are never
regenerated by the tests; a difference means the output changed.  Every
`data/conifold_*.json` file is pinned in both cohomology modes and every
resolutions format, so a new example cannot ship without its goldens.  Names are
`<data file stem>.<command>[.<mode>].<format>`; analyze goldens carry the
root-of-unity order as `k<order>` in place of the mode (`analyze_float` for
`--source float` with the default starts and seed), and their exit codes are
in `analyze.exit_codes.json`.  Every `data/*.poly` file is pinned under both
sources.  Stratify goldens, `<stem>.stratify.<sheet>.<format>`, are built from
the k = 5 `analyze --format json` report of the same data file, and `stratify`
on any analyze JSON golden exits as `analyze` did.
"""

import json
from pathlib import Path

import pytest

from gsvkit.cli import main
from gsvkit.singular import TransversalityReport

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = [p.stem for p in sorted((ROOT / "data").glob("conifold_*.json"))]

CASES = [(stem, ("cohomology", "--mode", mode, "--format", fmt),
          f"{stem}.cohomology.{mode}.{fmt}")
         for stem in DATA for mode in ("raw", "refined") for fmt in ("text", "json")]
CASES += [(stem, ("resolutions", "--format", fmt), f"{stem}.resolutions.{fmt}")
          for stem in DATA for fmt in ("text", "json", "dot")]

ANALYZE_EXIT = json.loads((GOLDEN / "analyze.exit_codes.json").read_text())
# every data/*.poly at k = 5, and Dwork at k = 10 as well, under each source
POLYS = [p.stem for p in sorted((ROOT / "data").glob("*.poly"))]
RUNS = [(stem, 5) for stem in POLYS] + [("dwork_psi1", 10)]
ANALYZE = [(stem, order, fmt) for stem, order in RUNS for fmt in ("json", "text")]
STRATIFY = [(stem, sheet, fmt) for stem in ("dwork_psi1", "fermat")
            for sheet in ("pos", "neg") for fmt in ("text", "json")]


def test_every_conifold_data_file_has_its_goldens():
    missing = [golden for _, _, golden in CASES if not (GOLDEN / golden).is_file()]
    assert DATA and not missing, f"data files without goldens: {missing}"


@pytest.mark.parametrize("stem,argv,golden", CASES, ids=[c[2] for c in CASES])
def test_stdout_matches_golden(capsysbinary, stem, argv, golden):
    command, *options = argv
    code = main([command, str(ROOT / "data" / f"{stem}.json"), *options])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out == (GOLDEN / golden).read_bytes()


def test_every_poly_data_file_has_its_analyze_goldens():
    missing = [f"{stem}.analyze.k{order}.{fmt}" for stem, order, fmt in ANALYZE
               if not (GOLDEN / f"{stem}.analyze.k{order}.{fmt}").is_file()]
    missing += [f"{stem}.analyze.k{order}" for stem, order in RUNS
                if f"{stem}.analyze.k{order}" not in ANALYZE_EXIT]
    assert POLYS and not missing, f"data files without analyze goldens: {missing}"


@pytest.mark.parametrize("stem,order,fmt", ANALYZE,
                         ids=[f"{s}.analyze.k{k}.{f}" for s, k, f in ANALYZE])
def test_analyze_matches_golden(capsysbinary, stem, order, fmt):
    code = main(["analyze", str(ROOT / "data" / f"{stem}.poly"),
                 "--zeta-order", str(order), "--format", fmt])
    out = capsysbinary.readouterr().out
    assert code == ANALYZE_EXIT[f"{stem}.analyze.k{order}"]
    assert out == (GOLDEN / f"{stem}.analyze.k{order}.{fmt}").read_bytes()


def test_every_poly_data_file_has_its_float_goldens():
    missing = [f"{stem}.analyze_float.k{order}.{fmt}" for stem, order, fmt in ANALYZE
               if not (GOLDEN / f"{stem}.analyze_float.k{order}.{fmt}").is_file()]
    assert POLYS and not missing, f"data files without float goldens: {missing}"


@pytest.mark.parametrize("stem,order,fmt", ANALYZE,
                         ids=[f"{s}.analyze_float.k{k}.{f}" for s, k, f in ANALYZE])
def test_analyze_float_matches_golden(capsysbinary, stem, order, fmt):
    code = main(["analyze", str(ROOT / "data" / f"{stem}.poly"), "--source", "float",
                 "--zeta-order", str(order), "--format", fmt])
    out = capsysbinary.readouterr().out
    assert code == ANALYZE_EXIT[f"{stem}.analyze_float.k{order}"]
    assert out == (GOLDEN / f"{stem}.analyze_float.k{order}.{fmt}").read_bytes()


@pytest.mark.parametrize("stem,sheet,fmt", STRATIFY,
                         ids=[f"{s}.stratify.{sh}.{f}" for s, sh, f in STRATIFY])
def test_stratify_matches_golden(capsysbinary, tmp_path, stem, sheet, fmt):
    report = tmp_path / "report.json"
    assert main(["analyze", str(ROOT / "data" / f"{stem}.poly"), "--format", "json",
                 "--output", str(report)]) == 0
    code = main(["stratify", str(report), "--sheet", sheet, "--format", fmt])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{stem}.stratify.{sheet}.{fmt}").read_bytes()


ANALYZE_JSON = [f"{s}.{command}.k{k}.json" for command in ("analyze", "analyze_float")
                for s, k in RUNS]


@pytest.mark.parametrize("golden", ANALYZE_JSON)
def test_analyze_json_round_trips_through_the_reader(golden):
    text = (GOLDEN / golden).read_text(encoding="utf-8")
    report = TransversalityReport.from_json_dict(json.loads(text))
    assert json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n" == text
    # a report that names no source reads as source "file", and reads back the same
    sourceless = {k: v for k, v in json.loads(text).items() if k != "source"}
    report = TransversalityReport.from_json_dict(sourceless)
    assert report.source == "file"
    assert TransversalityReport.from_json_dict(report.to_json_dict()) == report


@pytest.mark.parametrize("sheet", ["pos", "neg"])
@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.analyze*.json")))
def test_stratify_exits_as_analyze_did_on_its_report(capsys, golden, sheet):
    """Both commands turn on the report's one verdict, so they exit alike."""
    code = main(["stratify", str(GOLDEN / golden), "--sheet", sheet])
    capsys.readouterr()
    assert code == ANALYZE_EXIT[golden.removesuffix(".json")]
