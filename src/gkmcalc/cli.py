"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 invalid graph, 4 localization failure.
Output is deterministic for fixed inputs: canonical term order everywhere and
a fixed slope search.  The argument parser is built once, at import, so a
process that runs many commands through main pays for it once.
"""

from __future__ import annotations

import argparse
import sys

from .fgl import build_fgl
from .gkm import (
    check_formality,
    mod_p_weight_warnings,
    solve_equivariant_cohomology,
    validate_graph,
)
from .graphio import GraphFileError, build_class, load_graph_document
from .localization import LocalizationError, integrate, work_theory
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmcalc",
        description="Equivariant complex-oriented cohomology of GKM spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_theory_flags(p):
        p.add_argument("--theory", required=True, choices=sorted(_THEORY_FLAGS))
        p.add_argument("--p", type=int, default=None, help="prime (mod-p, morava)")
        p.add_argument("--n", type=int, default=None, help="height (morava)")
        p.add_argument("--trunc", type=int, default=8, help="truncation degree")

    p_fgl = sub.add_parser("fgl", help="print the formal group law and an n-series")
    add_theory_flags(p_fgl)
    p_fgl.add_argument("--ell", type=int, default=None, help="print the [ell]-series")

    p_solve = sub.add_parser("solve", help="compute the edge-congruence subalgebra")
    add_theory_flags(p_solve)
    p_solve.add_argument("graph", help="moment-graph JSON file")
    p_solve.add_argument("--qmax", type=int, default=8)

    p_int = sub.add_parser("integrate", help="fixed-point localization integral")
    add_theory_flags(p_int)
    p_int.add_argument("graph")
    p_int.add_argument("--class", dest="class_name", required=True)

    p_chk = sub.add_parser("check-formality", help="compare solver ranks with the free-module prediction")
    add_theory_flags(p_chk)
    p_chk.add_argument("graph")
    p_chk.add_argument("--qmax", type=int, default=8)
    return parser


_PARSER = _build_parser()


def _theory_from_args(args):
    kind = _THEORY_FLAGS[args.theory]
    try:
        return make_theory(TheoryConfig(kind, args.trunc, args.p, args.n))
    except ValueError as exc:
        raise _InputError(f"--theory {args.theory}: {exc}") from exc


class _InputError(Exception):
    pass


def _load_valid_graph(args, err):
    doc = load_graph_document(args.graph)
    violations = validate_graph(doc.graph)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=err)
        raise _GraphInvalid()
    return doc


class _GraphInvalid(Exception):
    pass


def _banner_and_warnings(theory, graph, out, err):
    if theory.kind != MORAVA:
        print("model: conjectural", file=out)
    if theory.char:
        for w in mod_p_weight_warnings(graph, theory.char):
            print(f"warning: {w}", file=err)


def cmd_fgl(args, out, err) -> int:
    theory = _theory_from_args(args)
    fgl = build_fgl(theory)
    print(f"F(x,y) = {format_series(fgl.series, ['x', 'y'])}", file=out)
    if args.ell is not None:
        series = fgl.n_series(args.ell)
        print(f"[{args.ell}]u = {format_series(series, ['u'])}", file=out)
    return 0


def cmd_solve(args, out, err) -> int:
    theory = _theory_from_args(args)
    doc = _load_valid_graph(args, err)
    _banner_and_warnings(theory, doc.graph, out, err)
    try:
        solution = solve_equivariant_cohomology(doc.graph, theory, args.qmax)
        # a weight that is a proper multiple adds the primitive-kernel solve,
        # whose ranks are reported where they differ
        primitive = doc.graph.primitive()
        variant = None
        if primitive != doc.graph:
            variant = solve_equivariant_cohomology(primitive, theory, args.qmax).ranks
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    for q in sorted(solution.ranks):
        print(f"{q} {solution.ranks[q]}", file=out)
    nvert = len(doc.graph.vertices)
    for q in sorted(solution.kernels):
        # a basis vector holds one slice of coefficients per vertex
        monos, vecs = solution.kernels[q]
        print(f"basis q={q}", file=out)
        printer = SlicePrinter(theory, monos)
        for vec in vecs:
            print(f"({', '.join(printer(vec, nvert))})", file=out)
        divs = [d for d in solution.divisors.get(q, []) if d != 1]
        if divs:
            print(f"divisors q={q}: {', '.join(map(str, divs))}", file=out)
    if variant is not None and variant != solution.ranks:
        diffs = [f"{q}:{variant[q]}" for q in sorted(variant) if variant[q] != solution.ranks[q]]
        print("primitive-kernel variant differs: " + " ".join(diffs), file=out)
    return 0


def cmd_integrate(args, out, err) -> int:
    theory = _theory_from_args(args)
    doc = _load_valid_graph(args, err)
    cls = build_class(doc, args.class_name, build_fgl(work_theory(theory)))
    _banner_and_warnings(theory, doc.graph, out, err)
    report = integrate(doc.graph, theory, cls)
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
    _banner_and_warnings(theory, doc.graph, out, err)
    try:
        solution = solve_equivariant_cohomology(doc.graph, theory, args.qmax)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    report = check_formality(doc.graph, doc.betti, solution)
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
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args, out, err)
    except (_InputError, GraphFileError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except _GraphInvalid:
        return 3
    except LocalizationError as exc:
        print(f"error: {exc}", file=err)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
