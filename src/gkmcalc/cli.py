"""Command-line front end.

Exit codes: 0 success, 2 input error or out of memory, 3 invalid graph,
4 localization failure.
Output is deterministic for fixed inputs: canonical term order everywhere and
a fixed slope search.  The command-line grammar is one table, which two
readers share: a plain command line is read off it directly, and argparse is
imported and its parser built from the table, at most once per process, only
for help and for a command line the direct reader declines.  So every help
text and every usage error is argparse's own.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .classifying import relation_order
from .fgl import build_fgl
from .gkm import (
    _ValidGraph,
    check_formality,
    mod_p_weight_warnings,
    solve_equivariant_cohomology,
    validate_graph,
)
from .graphio import GraphFileError, class_at_slope, load_graph_document
from .lattice import primitive_part
from .localization import LocalizationError, find_generic_slope, integrate_at_slope, work_theory
from .scalars import (
    MOD_P,
    MORAVA,
    MULTIPLICATIVE,
    ORDINARY,
    TheoryConfig,
    make_theory,
    scalar_parts,
)
from .series import SlicePrinter, format_series

_THEORY_FLAGS = {
    "ordinary": ORDINARY,
    "mod-p": MOD_P,
    "mult": MULTIPLICATIVE,
    "morava": MORAVA,
}


# The command-line grammar.  An option row is (flag, dest, type, default,
# choices, required, help); the row whose flag has no leading dash is the
# graph positional.  Each command maps to its help and its rows, in the order
# argparse adds them.
_THEORY_OPTIONS = (
    ("--theory", "theory", None, None, tuple(sorted(_THEORY_FLAGS)), True, None),
    ("--p", "p", int, None, None, False, "prime (mod-p, morava)"),
    ("--n", "n", int, None, None, False, "height (morava)"),
    ("--trunc", "trunc", int, 8, None, False, "truncation degree"),
)
_GRAPH = ("graph", "graph", None, None, None, True, None)
_QMAX = ("--qmax", "qmax", int, 8, None, False, None)
_GRAMMAR = {
    "fgl": (
        "print the formal group law and an n-series",
        (*_THEORY_OPTIONS, ("--ell", "ell", int, None, None, False, "print the [ell]-series")),
    ),
    "solve": (
        "compute the edge-congruence subalgebra",
        (*_THEORY_OPTIONS, ("graph", "graph", None, None, None, True, "moment-graph JSON file"), _QMAX),
    ),
    "integrate": (
        "fixed-point localization integral",
        (*_THEORY_OPTIONS, _GRAPH, ("--class", "class_name", None, None, None, True, None)),
    ),
    "check-formality": (
        "compare solver ranks with the free-module prediction",
        (*_THEORY_OPTIONS, _GRAPH, _QMAX),
    ),
}


def _read_argv(argv):
    """The namespace argparse gives a plain command line, read off the
    grammar: a command, then its graph and flags spelled out in full, each
    flag followed by one value that does not start with '-', ints in ASCII
    digits, a --theory among its choices and every required item present.
    None for anything else (help, an abbreviation, --flag=value, --, a signed
    number, a second positional), which argparse answers."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    rows = _GRAMMAR[argv[0]][1]
    by_flag = {row[0]: row for row in rows}
    values = {row[1]: row[3] for row in rows}
    values["command"] = argv[0]
    seen = set()
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        if token.startswith("-"):
            row = by_flag.get(token)
            if row is None or i + 1 == end or argv[i + 1].startswith("-"):
                return None
            value, i = argv[i + 1], i + 2
        else:
            row = by_flag.get("graph")
            if row is None or "graph" in seen:
                return None
            value, i = token, i + 1
        _flag, dest, kind, _default, choices, _required, _help = row
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the interpreter's limit on int digits
                return None
        elif choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    if any(row[5] and row[1] not in seen for row in rows):
        return None
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser of the grammar, which writes every help text and
    every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gkmcalc",
        description="Equivariant complex-oriented cohomology of GKM spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, rows) in _GRAMMAR.items():
        p = sub.add_parser(command, help=command_help)
        for flag, dest, kind, default, choices, required, help_text in rows:
            if flag.startswith("-"):
                p.add_argument(
                    flag, dest=dest, type=kind, default=default, choices=choices,
                    required=required, help=help_text,
                )
            else:
                p.add_argument(flag, help=help_text)
    return parser


_parser = None  # built by _parse_args on the first command line the reader declines


def _parse_args(argv):
    global _parser
    args = _read_argv(argv)
    if args is None:
        if _parser is None:
            _parser = _build_parser()
        args = _parser.parse_args(argv)
    return args


def _theory_from_args(args):
    kind = _THEORY_FLAGS[args.theory]
    try:
        return make_theory(TheoryConfig(kind, args.trunc, args.p, args.n))
    except ValueError as exc:
        raise _InputError(f"--theory {args.theory}: {exc}") from exc


class _InputError(Exception):
    pass


def _load_valid_graph(args, err):
    """The graph document, its graph marked valid so that the library does
    not check it again."""
    doc = load_graph_document(args.graph)
    violations = validate_graph(doc.graph)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=err)
        raise _GraphInvalid()
    return doc._replace(graph=_ValidGraph(*doc.graph))


class _GraphInvalid(Exception):
    pass


def _warnings(theory, graph, err):
    if theory.char:
        for w in mod_p_weight_warnings(graph, theory.char):
            print(f"warning: {w}", file=err)


def _banner(theory, out):
    # printed once the answer exists, so that a refusal leaves stdout empty
    if theory.kind != MORAVA:
        print("model: conjectural", file=out)


def cmd_fgl(args, out, err) -> int:
    theory = _theory_from_args(args)
    fgl = build_fgl(theory)
    series = None if args.ell is None else fgl.n_series(args.ell)
    print(f"F(x,y) = {fgl}", file=out)
    if series is not None:
        print(f"[{args.ell}]u = {format_series(series, ['u'])}", file=out)
    return 0


def cmd_solve(args, out, err) -> int:
    theory = _theory_from_args(args)
    doc = _load_valid_graph(args, err)
    _warnings(theory, doc.graph, err)
    try:
        solution = solve_equivariant_cohomology(doc.graph, theory, args.qmax)
        # a multiple d of a weight adds the primitive-kernel solve, whose ranks
        # are reported where they differ, where [d]u has u-order other than 1:
        # at order 1, ([d]u) = (u) over a field and over Q, where d is a unit
        variant = None
        multiples = {primitive_part(e.weight)[0] for e in doc.graph.edges}
        if any(relation_order(build_fgl(theory), d) != 1 for d in multiples):
            variant = solve_equivariant_cohomology(doc.graph.primitive(), theory, args.qmax).ranks
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    kernels, divisors = solution.kernels, solution.divisors
    _banner(theory, out)
    for q in sorted(solution.ranks):
        print(f"{q} {solution.ranks[q]}", file=out)
    # a basis vector holds one slice of coefficients per vertex
    nvert = len(doc.graph.vertices)
    for q, (monos, vecs) in sorted(kernels.items()):
        print(f"basis q={q}", file=out)
        printer = SlicePrinter(theory, monos)
        for vec in vecs:
            print(f"({', '.join(printer(vec, nvert))})", file=out)
        divs = [d for d in divisors[q] if d != 1]
        if divs:
            print(f"divisors q={q}: {', '.join(map(str, divs))}", file=out)
    if variant is not None and variant != solution.ranks:
        diffs = [f"{q}:{variant[q]}" for q in sorted(variant) if variant[q] != solution.ranks[q]]
        print("primitive-kernel variant differs: " + " ".join(diffs), file=out)
    return 0


def cmd_integrate(args, out, err) -> int:
    theory = _theory_from_args(args)
    doc = _load_valid_graph(args, err)
    # the slope search never refuses a valid graph, so the class's refusals
    # still come first
    slope = find_generic_slope(doc.graph, theory)
    fgl = build_fgl(work_theory(theory))
    localized, degree = class_at_slope(doc, args.class_name, fgl, slope.vector)
    _warnings(theory, doc.graph, err)
    report = integrate_at_slope(doc.graph, theory, slope, localized, degree)
    _banner(theory, out)
    print(f"slope: {report.slope.vector}", file=out)
    if not report.slope.mod_p_generic:
        print("slope note: no mod-p generic slope exists; using an integer-generic one", file=out)
    for eu in report.eulers:
        name = doc.graph.vertices[eu.vertex]
        print(f"euler {name}: {eu.series}", file=out)
    print(f"sum: {report.total}", file=out)
    verdict = "clean" if report.negative_clean else "NONZERO NEGATIVE PART"
    print(f"negative part: {verdict}", file=out)
    if report.integral is not None:
        neg, body = scalar_parts(theory, *report.integral)
        print(f"integral = {'-' if neg else ''}{body}", file=out)
        if report.integral_is_integer is True:
            print("integrality: exact integer", file=out)
        elif report.integral_is_integer is False:
            print("integrality: non-integer rational", file=out)
    return 0


def cmd_check_formality(args, out, err) -> int:
    theory = _theory_from_args(args)
    doc = _load_valid_graph(args, err)
    if doc.betti is None:
        raise _InputError(f"{args.graph}: check-formality needs a betti block")
    _warnings(theory, doc.graph, err)
    try:
        solution = solve_equivariant_cohomology(doc.graph, theory, args.qmax)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    report = check_formality(doc.betti, solution)
    _banner(theory, out)
    for q, rank, predicted, ok in report.rows:
        print(f"{q} {rank} {predicted} {'PASS' if ok else 'FAIL'}", file=out)
    print(f"RESULT {'PASS' if report.passed else 'FAIL'}", file=out)
    return 0 if report.passed else 1


_COMMANDS = {
    "fgl": cmd_fgl,
    "solve": cmd_solve,
    "integrate": cmd_integrate,
    "check-formality": cmd_check_formality,
}


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args, out, err)
    except (_InputError, GraphFileError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except MemoryError:  # stdout is still empty: each command prints once its answer exists
        print("error: out of memory", file=err)
        return 2
    except _GraphInvalid:
        return 3
    except LocalizationError as exc:
        print(f"error: {exc}", file=err)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
