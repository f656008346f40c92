"""Every refusal of the graph-file reader, one malformed document each."""

import copy
import io
import json

import pytest

from gkmcalc.cli import main
from gkmcalc.graphio import GraphFileError, parse_graph_document

ORIGIN = "g.json"


def _valid():
    """A well-formed document; the reader does not check the graph itself."""
    return {
        "torus_rank": 1,
        "vertices": ["N", "S"],
        "edges": [{"tail": "N", "head": "S", "weight": [1]}, {"tail": "S", "head": "N", "weight": [-1]}],
        "betti": [{"degree": 0, "rank": 1}, {"degree": 2, "rank": 1}],
        "classes": {"a": ["u1", "0"], "b": {"degree": 2, "restrictions": ["u1", "0"]}},
    }


_DROP = object()


def _with(*changes):
    """A builder of the valid document with each entry at a path set to the
    value after it, or removed for _DROP: _with(path, value, path, value)."""

    def build():
        doc = _valid()
        for path, value in zip(changes[::2], changes[1::2]):
            target = doc
            *outer, last = path
            for key in outer:
                target = target[key]
            if value is _DROP:
                del target[last]
            else:
                target[last] = copy.deepcopy(value)
        return doc

    return build


# case -> (the malformed document, the refusal after the origin), one or
# more per check, in the order the reader makes them
REFUSALS = {
    "top-level-a-list": (lambda: [_valid()], "top level must be an object"),
    "no-torus-rank": (_with(["torus_rank"], _DROP), "missing key torus_rank"),
    "torus-rank-zero": (_with(["torus_rank"], 0), "torus_rank must be a positive integer"),
    "torus-rank-true": (_with(["torus_rank"], True), "torus_rank must be a positive integer"),
    "torus-rank-a-string": (_with(["torus_rank"], "1"), "torus_rank must be a positive integer"),
    "no-vertices": (_with(["vertices"], _DROP), "missing key vertices"),
    "vertices-a-string": (_with(["vertices"], "NS"), "vertices must be a list of names"),
    "vertex-a-number": (_with(["vertices", 1], 7), "vertices must be a list of names"),
    "vertices-repeat": (_with(["vertices", 1], "N"), "vertex names are not distinct"),
    "no-edges": (_with(["edges"], _DROP), "missing key edges"),
    "edges-an-object": (_with(["edges"], {}), "edges must be a list"),
    "edge-a-number": (_with(["edges", 1], 5), "edges[1]: must be an object"),
    "edge-no-tail": (_with(["edges", 1, "tail"], _DROP), "edges[1]: missing key tail"),
    "edge-no-head": (_with(["edges", 1, "head"], _DROP), "edges[1]: missing key head"),
    "edge-no-weight": (_with(["edges", 1, "weight"], _DROP), "edges[1]: missing key weight"),
    "tail-a-number": (_with(["edges", 0, "tail"], 0), "edges[0]: tail must be a vertex name"),
    "head-null": (_with(["edges", 0, "head"], None), "edges[0]: head must be a vertex name"),
    "tail-unknown": (_with(["edges", 1, "tail"], "X"), "edges[1]: unknown tail vertex 'X'"),
    "head-unknown": (_with(["edges", 0, "head"], "Y"), "edges[0]: unknown head vertex 'Y'"),
    "weight-a-number": (_with(["edges", 0, "weight"], 1), "edges[0]: weight must be a list of integers"),
    "weight-a-float": (_with(["edges", 0, "weight"], [1.0]), "edges[0]: weight must be a list of integers"),
    "weight-true": (_with(["edges", 1, "weight"], [True]), "edges[1]: weight must be a list of integers"),
    "weight-too-long": (_with(["edges", 1, "weight"], [1, 0]), "edges[1]: weight length 2 != torus_rank 1"),
    "weight-empty": (_with(["edges", 0, "weight"], []), "edges[0]: weight length 0 != torus_rank 1"),
    "betti-an-object": (_with(["betti"], {}), "betti must be a list"),
    "betti-row-a-list": (_with(["betti", 1], [2, 1]), "betti[1]: must be an object with degree and rank"),
    "betti-row-no-rank": (
        _with(["betti", 0, "rank"], _DROP),
        "betti[0]: must be an object with degree and rank",
    ),
    "betti-degree-a-string": (
        _with(["betti", 1, "degree"], "2"),
        "betti[1]: degree and rank must be integers",
    ),
    "betti-rank-true": (_with(["betti", 0, "rank"], True), "betti[0]: degree and rank must be integers"),
    "betti-degree-odd": (_with(["betti", 1, "degree"], 3), "betti[1]: degree 3 must be even and nonnegative"),
    "betti-degree-negative": (
        _with(["betti", 0, "degree"], -2),
        "betti[0]: degree -2 must be even and nonnegative",
    ),
    "betti-rank-negative": (_with(["betti", 1, "rank"], -1), "betti[1]: rank -1 must be nonnegative"),
    "classes-a-list": (_with(["classes"], []), "classes must be an object"),
    "class-no-restrictions": (
        _with(["classes", "b", "restrictions"], _DROP),
        "classes['b']: missing key restrictions",
    ),
    "class-degree-a-string": (
        _with(["classes", "b", "degree"], "2"),
        "classes['b']: degree must be an integer",
    ),
    "class-degree-true": (_with(["classes", "b", "degree"], True), "classes['b']: degree must be an integer"),
    "class-a-number": (_with(["classes", "a"], 5), "classes['a']: must be a list or an object"),
    "class-a-string": (_with(["classes", "b"], "u1"), "classes['b']: must be a list or an object"),
    "class-expression-a-number": (
        _with(["classes", "a", 1], 0),
        "classes['a']: restrictions must be a list of expression strings",
    ),
    "class-restrictions-a-string": (
        _with(["classes", "b", "restrictions"], "u1"),
        "classes['b']: restrictions must be a list of expression strings",
    ),
    "class-one-restriction": (_with(["classes", "a"], ["u1"]), "classes['a']: 1 restrictions for 2 vertices"),
    "class-three-restrictions": (
        _with(["classes", "b", "restrictions"], ["u1", "0", "0"]),
        "classes['b']: 3 restrictions for 2 vertices",
    ),
    # two faults: the earlier check names its own
    "tail-unknown-before-weight": (
        _with(["edges", 0], {"tail": "X", "head": 5, "weight": "w"}),
        "edges[0]: unknown tail vertex 'X'",
    ),
    "missing-head-before-a-bad-tail": (
        _with(["edges", 0], {"tail": 1, "weight": [1]}),
        "edges[0]: missing key head",
    ),
    "edges-before-betti": (
        _with(["edges", 1, "weight"], [2, 2], ["betti"], 3),
        "edges[1]: weight length 2 != torus_rank 1",
    ),
}


def test_the_valid_document_parses():
    doc = parse_graph_document(_valid(), ORIGIN)
    assert doc.graph.vertices == ["N", "S"] and len(doc.graph.edges) == 2
    assert doc.betti == [(0, 1), (2, 1)]
    assert doc.classes == {"a": (None, ["u1", "0"]), "b": (2, ["u1", "0"])}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_names_its_field(case):
    document, message = REFUSALS[case]
    with pytest.raises(GraphFileError) as err:
        parse_graph_document(document(), ORIGIN)
    assert str(err.value) == f"{ORIGIN}: {message}"


@pytest.mark.parametrize("case", ["torus-rank-zero", "weight-too-long", "class-one-restriction"])
def test_the_command_line_refuses_with_one_error_line_and_exit_2(case, tmp_path):
    document, message = REFUSALS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document()))
    out, err = io.StringIO(), io.StringIO()
    code = main(["solve", str(path), "--theory", "ordinary", "--qmax", "2"], out=out, err=err)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == f"error: {path}: {message}\n"
