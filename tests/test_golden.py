"""Byte-for-byte regression of `cohomology` and `resolutions` stdout.

The files under tests/golden/ were captured once from the CLI and are never
regenerated by the tests; a difference means the output changed.  Names are
`<data file stem>.<command>[.<mode>].<format>`.
"""

from pathlib import Path

import pytest

from gsvkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = ("conifold_n16_N1", "conifold_n5_N2_hodge")

CASES = [(stem, ("cohomology", "--mode", mode, "--format", fmt),
          f"{stem}.cohomology.{mode}.{fmt}")
         for stem in DATA for mode in ("raw", "refined") for fmt in ("text", "json")]
CASES += [(stem, ("resolutions", "--format", fmt), f"{stem}.resolutions.{fmt}")
          for stem in DATA for fmt in ("text", "json", "dot")]


@pytest.mark.parametrize("stem,argv,golden", CASES, ids=[c[2] for c in CASES])
def test_stdout_matches_golden(capsysbinary, stem, argv, golden):
    command, *options = argv
    code = main([command, str(ROOT / "data" / f"{stem}.json"), *options])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert out == (GOLDEN / golden).read_bytes()
