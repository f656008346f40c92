"""Reading moment-graph files.

A graph file is a JSON document with keys torus_rank, vertices, edges, and
optionally betti and classes.  Class restrictions are small polynomial
expressions in u1..um; chi(a1,...,am) names the Euler class of a character,
which keeps the files meaningful across theories, and v (resp. b) names the
periodicity generator when the theory has one.  build_class expands a class
in the torus variables; class_at_slope evaluates it at an integration slope,
in one variable, with the same refusals.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .fgl import FormalGroupLaw
from .classifying import character_class
from .gkm import EquivariantClass, GKMEdge, GKMGraph, common_degree
from .localization import pairing
from .scalars import ORDINARY, RATIONAL
from .series import TruncatedSeries


class GraphFileError(ValueError):
    """A graph file failed to parse or validate; message carries location."""


class GraphDocument(NamedTuple):
    graph: GKMGraph
    betti: list[tuple[int, int]] | None
    classes: dict[str, tuple[int | None, list[str]]]
    origin: str = "<graph>"  # the file it was read from


def _require(cond, msg):
    if not cond:
        raise GraphFileError(msg)


def _is_int(x) -> bool:
    """An integer, and not a JSON true or false."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_graph_document(path: str) -> GraphDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise GraphFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFileError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise GraphFileError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise GraphFileError(f"{path}: parse error: nesting too deep") from exc
    except ValueError as exc:  # an integer literal beyond int()'s digit limit
        raise GraphFileError(f"{path}: parse error: {str(exc).split(';')[0]}") from exc
    return parse_graph_document(doc, origin=path)


def parse_graph_document(doc, origin: str = "<graph>") -> GraphDocument:
    _require(isinstance(doc, dict), f"{origin}: top level must be an object")
    _require("torus_rank" in doc, f"{origin}: missing key torus_rank")
    m = doc["torus_rank"]
    _require(_is_int(m) and m >= 1, f"{origin}: torus_rank must be a positive integer")
    _require("vertices" in doc, f"{origin}: missing key vertices")
    vertices = doc["vertices"]
    _require(
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
        f"{origin}: vertices must be a list of names",
    )
    index = {name: i for i, name in enumerate(vertices)}
    _require(len(index) == len(vertices), f"{origin}: vertex names are not distinct")
    _require("edges" in doc, f"{origin}: missing key edges")
    _require(isinstance(doc["edges"], list), f"{origin}: edges must be a list")
    edges = []
    for pos, e in enumerate(doc["edges"]):
        where = f"{origin}: edges[{pos}]"
        _require(isinstance(e, dict), f"{where}: must be an object")
        for key in ("tail", "head", "weight"):
            _require(key in e, f"{where}: missing key {key}")
        for key in ("tail", "head"):
            _require(isinstance(e[key], str), f"{where}: {key} must be a vertex name")
            _require(e[key] in index, f"{where}: unknown {key} vertex {e[key]!r}")
        w = e["weight"]
        _require(
            isinstance(w, list) and all(_is_int(x) for x in w),
            f"{where}: weight must be a list of integers",
        )
        _require(
            len(w) == m,
            f"{where}: weight length {len(w)} != torus_rank {m}",
        )
        edges.append(GKMEdge(index[e["tail"]], index[e["head"]], tuple(w)))
    graph = GKMGraph(m, list(vertices), edges)

    betti = None
    if "betti" in doc:
        _require(isinstance(doc["betti"], list), f"{origin}: betti must be a list")
        betti = []
        for pos, row in enumerate(doc["betti"]):
            where = f"{origin}: betti[{pos}]"
            _require(
                isinstance(row, dict) and "degree" in row and "rank" in row,
                f"{where}: must be an object with degree and rank",
            )
            degree, rank = row["degree"], row["rank"]
            _require(
                _is_int(degree) and _is_int(rank), f"{where}: degree and rank must be integers"
            )
            _require(
                degree >= 0 and degree % 2 == 0,
                f"{where}: degree {degree} must be even and nonnegative",
            )
            _require(rank >= 0, f"{where}: rank {rank} must be nonnegative")
            betti.append((degree, rank))

    classes = {}
    if "classes" in doc:
        _require(isinstance(doc["classes"], dict), f"{origin}: classes must be an object")
        for name, spec in doc["classes"].items():
            where = f"{origin}: classes[{name!r}]"
            if isinstance(spec, list):
                degree, exprs = None, spec
            elif isinstance(spec, dict):
                _require("restrictions" in spec, f"{where}: missing key restrictions")
                degree = spec.get("degree")
                _require(
                    degree is None or _is_int(degree),
                    f"{where}: degree must be an integer",
                )
                exprs = spec["restrictions"]
            else:
                raise GraphFileError(f"{where}: must be a list or an object")
            _require(
                isinstance(exprs, list) and all(isinstance(x, str) for x in exprs),
                f"{where}: restrictions must be a list of expression strings",
            )
            _require(
                len(exprs) == len(vertices),
                f"{where}: {len(exprs)} restrictions for {len(vertices)} vertices",
            )
            classes[name] = (degree, exprs)
    return GraphDocument(graph, betti, classes, origin)


def _class_parts(doc: GraphDocument, name: str, restriction) -> tuple[int | None, list]:
    """The class's degree tag and restriction(expr) at each vertex, where
    restriction returns a value and the degrees of its torus expansion,
    ascending; every refusal names the file, the class and the vertex."""
    if name not in doc.classes:
        raise GraphFileError(f"{doc.origin}: class {name!r} is not defined in the graph file")
    degree, exprs = doc.classes[name]
    parts = []
    for vertex, expr in zip(doc.graph.vertices, exprs):
        try:
            value, degs = restriction(expr)
        except GraphFileError as exc:
            raise GraphFileError(
                f"{doc.origin}: class {name!r} at vertex {vertex}: expression {expr!r}: {exc}"
            ) from exc
        except RecursionError as exc:
            raise GraphFileError(
                f"{doc.origin}: class {name!r} at vertex {vertex}: expression nests too deeply"
            ) from exc
        if degree is not None and degs and degs != [degree]:
            if len(degs) == 1:
                found = f"has degree {degs[0]}"
            else:
                found = f"mixes degrees {', '.join(map(str, degs[:-1]))} and {degs[-1]}"
            raise GraphFileError(
                f"{doc.origin}: class {name!r} at vertex {vertex}: expression {found}, tagged {degree}"
            )
        parts.append((value, degs))
    return degree, parts


def build_class(doc: GraphDocument, name: str, fgl: FormalGroupLaw) -> EquivariantClass:
    m = doc.graph.rank

    def restriction(expr):
        series = parse_expression(expr, fgl, m)
        return series, series.degrees()

    degree, parts = _class_parts(doc, name, restriction)
    return EquivariantClass(tuple(series for series, _degs in parts), degree)


def class_at_slope(
    doc: GraphDocument, name: str, fgl: FormalGroupLaw, slope
) -> tuple[list[TruncatedSeries], int | None]:
    """The restrictions of the named class under u_i -> [slope_i](s), as
    one-variable series, and the class's degree: its tag, else the one
    degree of its nonzero restrictions (see common_degree).  They equal
    localize_class of build_class, which refuses the same inputs with the
    same messages.  An expression without a sum is evaluated at the slope
    (see _SlopeParser); one with a sum is expanded in the torus variables,
    where alone a cancellation shows, and then substituted."""
    m = doc.graph.rank
    images = [fgl.n_series(a) for a in slope]

    def restriction(expr):
        tokens = _tokenize(expr)
        try:
            image = _SlopeParser(tokens, fgl, m, slope).parse()
        except _HasSum:
            series = _Parser(tokens, fgl, m).parse()
            return series.substitute(images), series.degrees()
        return image.series, [] if image.order is None else [image.degree]

    degree, parts = _class_parts(doc, name, restriction)
    if degree is None:
        degree = common_degree(degs for _series, degs in parts)
    return [series for series, _degs in parts], degree


# ---------------------------------------------------------------------------
# expression parser

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*^(),])")
_SPACE = re.compile(r"\s*")


def _tokenize(text: str):
    pos = _SPACE.match(text).end()
    out = []
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if mt is None:
            raise GraphFileError(f"bad character {text[pos]!r} at position {pos}")
        if mt.group("int") is not None:
            try:
                out.append(("int", int(mt.group("int"))))
            except ValueError as exc:  # beyond int()'s digit limit
                raise GraphFileError(f"integer at position {pos}: {str(exc).split(';')[0]}") from exc
        elif mt.group("name") is not None:
            out.append(("name", mt.group("name")))
        else:
            out.append(("op", mt.group("op")))
        pos = _SPACE.match(text, mt.end()).end()
    out.append(("end", None))
    return out


class _Parser:
    """The grammar of class expressions, evaluated as series in the torus
    variables.  _SlopeParser replaces the atoms (constant, variable, chi)
    and the scalar check; its values bring their own arithmetic."""

    def __init__(self, tokens, fgl: FormalGroupLaw, nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.fgl = fgl
        self.nvars = nvars
        self.theory = fgl.theory

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            found = "the end of the expression" if kind == "end" else repr(val)
            raise GraphFileError(f"expected {op!r}, found {found}")

    def parse(self):
        out = self.expr()
        if self.peek()[0] != "end":
            raise GraphFileError(f"unexpected trailing token {self.peek()[1]!r}")
        return out

    def expr(self):
        negate = False
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs = self.factor()
                acc = self.uncut(acc * rhs, acc, rhs)
            else:
                return acc

    def factor(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            e = self.signed_int()
            if e >= 0:
                return self.uncut(base ** e, base)
            # negative powers only make sense for unit scalars
            c, k = self.scalar(base)
            if not self.theory.is_unit(c):
                raise GraphFileError(f"negative exponent of the non-unit {base}")
            return self.constant(self.theory.inverse(c), -k) ** -e
        return base

    def uncut(self, result, *factors):
        """result, the product of factors, refused when the truncation cut it
        to zero: the coefficient rings are domains, so only the truncation
        can have."""
        if result.is_zero() and not any(f.is_zero() for f in factors):
            raise GraphFileError(
                f"nonzero factors multiply to zero at truncation degree {self.theory.trunc}"
            )
        return result

    def constant(self, c, k: int = 0) -> TruncatedSeries:
        """The constant series c * unit^k."""
        return TruncatedSeries(self.theory, self.nvars, {((0,) * self.nvars, k): c})

    def signed_int(self) -> int:
        kind, val = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
            kind, val = self.peek()
        if kind != "int":
            raise GraphFileError("expected an integer exponent")
        self.take()
        return sign * val

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.constant(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            if val == "chi":
                self.expect_op("(")
                weight = [self.signed_int()]
                while self.peek() == ("op", ","):
                    self.take()
                    weight.append(self.signed_int())
                self.expect_op(")")
                if len(weight) != self.nvars:
                    raise GraphFileError(
                        f"chi takes {self.nvars} components, found {len(weight)}"
                    )
                return self.chi(tuple(weight))
            mu = re.fullmatch(r"u(\d+)", val)
            if mu:
                i = int(mu.group(1))
                if not 1 <= i <= self.nvars:
                    raise GraphFileError(f"variable {val} out of range 1..{self.nvars}")
                return self.variable(i - 1)
            unit = self.theory.unit_name
            if val == unit or (val == "v" and unit and unit.startswith("v")):
                return self.constant(1, 1)
            if val in ("v", "b"):
                # a rational parse is the localization work theory of ordinary
                kind = ORDINARY if self.theory.kind == RATIONAL else self.theory.kind
                raise GraphFileError(f"theory {kind} has no periodicity generator {val!r}")
            raise GraphFileError(f"unknown symbol {val!r}")
        if kind == "end":
            raise GraphFileError("unexpected end of the expression")
        raise GraphFileError(f"unexpected token {val!r}")

    def variable(self, i: int) -> TruncatedSeries:
        return TruncatedSeries.variable(self.theory, self.nvars, i)

    def chi(self, weight) -> TruncatedSeries:
        return character_class(self.fgl, weight)

    def scalar(self, base: TruncatedSeries) -> tuple:
        """(c, k) of a constant base c * unit^k."""
        if len(base.coeffs) > 1 or base.order():
            raise GraphFileError("negative exponents need a scalar base")
        return base.coefficient((0,) * self.nvars)


class _HasSum(Exception):
    """The expression has a binary + or -, which _SlopeParser leaves to the
    torus expansion."""


class _Image:
    """A sum-free expression at the slope: its one-variable image, and the
    order (None when it is zero) and degree of its torus expansion.  A
    product of nonzero factors has the sums of their orders and degrees, and
    it is zero exactly when that order passes the truncation, since the
    rings are domains; the image is then zero too."""

    __slots__ = ("series", "order", "degree")

    def __init__(self, series: TruncatedSeries, order: int | None, degree: int):
        if order is not None and order > series.theory.trunc:
            order = None
        self.series, self.order, self.degree = series, order, degree

    def is_zero(self) -> bool:
        return self.order is None

    def __neg__(self):
        return _Image(-self.series, self.order, self.degree)

    def __add__(self, other):
        raise _HasSum

    __sub__ = __add__

    def __mul__(self, other):
        if self.order is None or other.order is None:
            return self if self.order is None else other
        order, degree = self.order + other.order, self.degree + other.degree
        return _Image(self.series * other.series, order, degree)

    def __pow__(self, e: int):
        if e == 0 or self.order is None:
            return _Image(self.series ** e, 0 if e == 0 else None, 0)
        return _Image(self.series ** e, e * self.order, e * self.degree)

    def __str__(self):
        return str(self.series)


class _SlopeParser(_Parser):
    """The grammar of _Parser evaluated at a slope, u_i -> [slope_i](s), in
    one variable.  This is a ring map that commutes with the formal sum, and
    [a]([b]s) = [ab]s, so chi(w) goes to [<w, slope>](s); the images have no
    constant term, so truncation by total degree commutes with it.  The
    checks need no expansion (see _Image): chi(w) has the least order of the
    [w_i]u and every atom is homogeneous.  A binary sum raises _HasSum."""

    def __init__(self, tokens, fgl: FormalGroupLaw, nvars: int, slope):
        super().__init__(tokens, fgl, nvars)
        self.slope = slope

    def constant(self, c, k: int = 0) -> _Image:
        series = TruncatedSeries(self.theory, 1, {((0,), k): c})
        return _Image(series, None if series.is_zero() else 0, self.theory.degree(0, k))

    def variable(self, i: int) -> _Image:
        return _Image(self.fgl.n_series(self.slope[i]), 1, 2)

    def chi(self, weight) -> _Image:
        n_series = self.fgl.n_series
        orders = [o for a in weight if a and (o := n_series(a).order()) is not None]
        return _Image(n_series(pairing(weight, self.slope)), min(orders, default=None), 2)

    def scalar(self, base: _Image) -> tuple:
        if base.order:
            raise GraphFileError("negative exponents need a scalar base")
        return base.series.coefficient((0,))


def parse_expression(text: str, fgl: FormalGroupLaw, nvars: int) -> TruncatedSeries:
    return _Parser(_tokenize(text), fgl, nvars).parse()
