"""Command line front end: analyze, stratify, cohomology, resolutions.

Pipeline stages talk JSON so each stage can also be fed hand-written data,
e.g. a ConifoldData file with externally computed base cohomology.  All
output is deterministic: the same inputs give byte-identical bytes.

Exit codes: 0 success, 1 input or validation error, 2 incomplete or
inconclusive result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional

from .errors import GsvError, GsvInputError, IncompleteResultError

if TYPE_CHECKING:
    from .cohomology import ConifoldData
    from .cyclo import CyclotomicField

# Each command imports the stages it runs inside its own function, so a call
# loads only those modules: `--help` loads none, `cohomology` no Cyclo code.


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Output:
    """The file `path` opened for writing as the file of `flag`, or stdout
    when `path` is None.  An OSError from opening, writing, or closing it
    (flushing, for stdout) exits 1 naming the flag and the path, or stdout."""

    def __init__(self, flag: str = "", path: Optional[str] = None):
        self.path = path
        self.target = "stdout" if path is None else f"{flag} file {path}"
        self.file = sys.stdout
        if path is not None:
            try:
                self.file = open(path, "w", encoding="utf-8")
            except OSError as exc:
                raise self._failed(exc) from exc

    def _failed(self, exc: OSError) -> GsvInputError:
        if self.path is None:
            # The interpreter flushes stdout again at exit, where a second
            # failure would exit 120: what is left goes to the null device.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return GsvInputError(f"cannot write {self.target}: {exc.strerror or exc}")

    def write(self, text: str) -> None:
        try:
            self.file.write(text)
        except OSError as exc:
            raise self._failed(exc) from exc

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self.path is None:
                self.file.flush()
            else:
                self.file.close()
        except OSError as exc:
            raise self._failed(exc) from exc


def _emit(args, text, json_obj) -> None:
    """Write what --format asks for, built by calling `text` or `json_obj`."""
    payload = _json_text(json_obj()) if args.format == "json" else text() + "\n"
    with _Output("--output", args.output) as fh:
        fh.write(payload)


def _read_input(what: str, path: str, as_json: bool = True):
    """The contents of an input file, parsed as JSON unless `as_json` is false.
    A file that cannot be read or parsed exits 1 naming `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text) if as_json else text
    except OSError as exc:
        reason = exc.strerror
    except (ValueError, RecursionError) as exc:  # decoding, or an int past the digit limit
        reason = f"not {'JSON' if as_json else 'UTF-8 text'}: {exc}"
    raise GsvInputError(f"cannot read {what} file {path}: {reason}")


def _read_polynomial_argument(arg: str) -> str:
    """The text of the file `arg` names, else `arg` as an inline expression.
    An argument no expression can be, with a '.' or a '/' before no integer
    denominator, names a file, so a missing one exits 1 saying so.
    `os.path.exists` is false, not an error, for "" and for a name too long
    to be a path."""
    if os.path.exists(arg) or re.search(r"\.|/(?!\s*\d)", arg):
        return _read_input("polynomial", arg, as_json=False).strip()
    return arg


def _read_candidates(args, field: CyclotomicField) -> list:
    """The points of the --candidates file, which only --source user takes."""
    from .singular import read_point

    if args.source != "user":
        if args.candidates:
            raise GsvInputError("--candidates applies only to --source user")
        return []
    if not args.candidates:
        raise GsvInputError("--source user requires --candidates FILE")
    rows = _read_input("--candidates", args.candidates)
    if not isinstance(rows, list):
        raise GsvInputError("--candidates file must hold a JSON list of rows")
    scalars = {}
    return [read_point(row, field, f"--candidates row {i}", scalars)
            for i, row in enumerate(rows)]


def cmd_analyze(args) -> int:
    from .cyclo import CyclotomicField
    from .poly import parse_polynomial
    from .singular import verify_transversal

    field = CyclotomicField(args.zeta_order)
    text = _read_polynomial_argument(args.polynomial)
    g = parse_polynomial(text, field)
    report = verify_transversal(g, args.source, _read_candidates(args, field))
    _emit(args, report.summary_text, report.to_json_dict)
    report.require_nodal()
    return 0


def cmd_stratify(args) -> int:
    from .singular import TransversalityReport
    from .strata import build_ground_state_variety, strata_report

    report = TransversalityReport.from_json_dict(_read_input("report", args.report))
    variety = build_ground_state_variety(report, args.sheet)
    _emit(args, lambda: strata_report(variety), variety.to_json_dict)
    return 0


def _load_conifold(path: str) -> ConifoldData:
    from .cohomology import ConifoldData

    return ConifoldData.from_json_dict(_read_input("ConifoldData", path))


def cmd_cohomology(args) -> int:
    from .cohomology import cohomology_report, cohomology_report_text

    data = _load_conifold(args.data)
    report = cohomology_report(data, mode=args.mode)
    _emit(args, lambda: cohomology_report_text(report), lambda: report)
    return 0


def cmd_resolutions(args) -> int:
    from .resolutions import build_transition_graph, pow2_text

    data = _load_conifold(args.data)
    graph = build_transition_graph(data)  # checks MAX_CLASSES before any file is opened
    # realpath raises no OSError: a symlink loop fails below, when it is opened
    if args.dot and args.output and os.path.realpath(args.dot) == os.path.realpath(args.output):
        raise GsvInputError(f"--output and --dot both name {args.output}")
    # Both files are opened before either is written, so a path that cannot be
    # opened exits 1 before any graph bytes are written.
    with _Output("--output", args.output) as out, \
            (_Output("--dot", args.dot) if args.dot else nullcontext()) as dot:
        if args.format == "dot":
            graph.write(dot_file=out)
        if args.format == "json" or dot is not None:
            graph.write(json_file=out if args.format == "json" else None, dot_file=dot)
        if args.format != "text":
            return 0
        counts = graph.edge_counts()
        text_lines = [
            f"4-cycle classes: {data.n_classes}, nodes: {data.n}",
            f"compatible small resolutions: {2 ** data.n_classes}",
            f"naive per-node count: {pow2_text(data.n)}",
            f"graph: {graph.vertex_count()} vertices, {sum(counts.values())} edges",
        ]
        text_lines += [f"  {kind} edges: {count}" for kind, count in counts.items()]
        out.write("\n".join(text_lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as any bad input does:
    exit 2 is kept for an incomplete or inconclusive result."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        # argparse drops an OSError from this write, so `--help` to a full
        # stdout would exit 0: its text goes through _Output, which exits 1.
        if message and file is sys.stdout:
            _Output().write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsvkit",
        description="ground-state variety toolkit: stratification, exocurve "
                    "cohomology, and small-resolution transition graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="transversality and singular-ray report")
    p.add_argument("polynomial", help="polynomial file or inline expression")
    # singular.SOURCES, spelled out so that building the parser loads no singular code
    p.add_argument("--source", choices=("ansatz", "user", "float"), default="ansatz")
    p.add_argument("--candidates", help="JSON candidate list for --source user")
    common(p)
    p.add_argument("--zeta-order", dest="zeta_order", type=int, default=5,
                   help="order of the declared root of unity (default %(default)s)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stratify", help="build one sheet of the ground state variety")
    p.add_argument("report", help="analyze report in JSON form")
    p.add_argument("--sheet", choices=("pos", "neg"), required=True)
    common(p)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("cohomology", help="Mayer-Vietoris tables and Kahler check")
    p.add_argument("data", help="ConifoldData JSON file")
    p.add_argument("--mode", choices=("raw", "refined"), default="refined")
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("resolutions", help="small resolutions and transition graph")
    p.add_argument("data", help="ConifoldData JSON file")
    p.add_argument("--dot", help="also write the graph in DOT format here")
    common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=cmd_resolutions)

    return parser


def main(argv=None) -> int:
    try:
        # stdout is flushed on the way out, also after --help or an error, so
        # a write to it that fails exits 1 here, not 120 at interpreter exit
        with _Output():
            args = build_parser().parse_args(argv)
            return args.func(args)
    except IncompleteResultError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (GsvError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
