"""Graph-file parsing and the command-line surface: output goldens, exit codes."""

import io
import json
import os
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import build_fgl, build_class, load_graph_document, solve_equivariant_cohomology
from gkmcalc.cli import main
from gkmcalc.graphio import GraphFileError, parse_expression

import helpers

GRAPHS = os.path.join(os.path.dirname(__file__), os.pardir, "graphs")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def graph_path(name):
    return os.path.join(GRAPHS, name)


# ---- graph files -----------------------------------------------------------


def test_load_cp2_document():
    doc = load_graph_document(graph_path("cp2.json"))
    assert doc.graph.rank == 2
    assert doc.graph.vertices == ["A", "B", "C"]
    assert doc.betti == [(0, 1), (2, 1), (4, 1)]
    assert set(doc.classes) == {"H", "H2"}


def test_graph_file_parse_error_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"torus_rank": 1,\n  "vertices": [}')
    with pytest.raises(GraphFileError) as err:
        load_graph_document(str(path))
    assert "line 2" in str(err.value)


def test_graph_file_weight_length(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "torus_rank": 2,
        "vertices": ["A", "B"],
        "edges": [{"tail": "A", "head": "B", "weight": [1]}],
    }))
    with pytest.raises(GraphFileError) as err:
        load_graph_document(str(path))
    assert "edges[0]" in str(err.value) and "torus_rank" in str(err.value)


def test_expression_parser():
    th = helpers.morava(2, 1, trunc=6)
    fgl = build_fgl(th)
    s = parse_expression("2*u1^2 - u2*u1", fgl, 2)
    assert s.coefficient((2, 0)) == (0, 0)  # 2 = 0 mod 2
    assert s.coefficient((1, 1)) == (1, 0)  # -1 = 1 mod 2
    chi = parse_expression("chi(1,1)", fgl, 2)
    assert chi.degrees() == [2]
    v = parse_expression("v^-1*u1", fgl, 2)
    assert v.coefficient((1, 0)) == (1, -1)
    with pytest.raises(GraphFileError):
        parse_expression("w1", fgl, 2)
    with pytest.raises(GraphFileError):
        parse_expression("chi(1)", fgl, 2)
    u1, u2 = (parse_expression(name, fgl, 2) for name in ("u1", "u2"))
    assert parse_expression("-chi(1,0)", fgl, 2) == -u1
    assert parse_expression("(u1 + u2)^2", fgl, 2) == (u1 + u2) * (u1 + u2)


def test_build_class_checks_degree(tmp_path):
    doc = load_graph_document(graph_path("cp2.json"))
    th = helpers.rational(trunc=6)
    fgl = build_fgl(th)
    cls = build_class(doc, "H2", fgl)
    assert cls.degree == 4
    with pytest.raises(GraphFileError):
        build_class(doc, "missing", fgl)


# ---- CLI goldens -----------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# golden file stem -> (argv with graph file names, exit code); the README's
# four commands first, then one solve per coefficient-ring path
GOLDEN_COMMANDS = {
    "readme-fgl": ("fgl --theory morava --p 2 --n 1 --trunc 8 --ell 2", 0),
    "readme-solve": ("solve cp2.json --theory morava --p 2 --n 1 --trunc 6 --qmax 6", 0),
    "readme-integrate": ("integrate cp2.json --theory ordinary --trunc 8 --class H2", 0),
    "readme-check-formality": (
        "check-formality cp1xcp1.json --theory morava --p 3 --n 1 --trunc 6", 0,
    ),
    "solve-cp1xcp1-mod3": ("solve cp1xcp1.json --theory mod-p --p 3", 0),
    "solve-cp2-ordinary": ("solve cp2.json --theory ordinary --qmax 6", 0),
    "solve-cp1xcp1-mult": ("solve cp1xcp1.json --theory mult --trunc 6 --qmax 6", 0),
    # negative [ell]-series: printed directly, and inside Euler classes
    "fgl-morava-p2n1-minus3": ("fgl --theory morava --p 2 --n 1 --trunc 12 --ell -3", 0),
    "fgl-mult-minus3": ("fgl --theory mult --trunc 8 --ell -3", 0),
    "integrate-cp1xcp1-morava-pt": (
        "integrate cp1xcp1.json --theory morava --p 2 --n 1 --trunc 12 --class pt", 0,
    ),
    "integrate-cp2-morava-h2": (
        "integrate cp2.json --theory morava --p 2 --n 2 --trunc 12 --class H2", 0,
    ),
    "integrate-cp1xcp1-mult-pt": ("integrate cp1xcp1.json --theory mult --trunc 10 --class pt", 0),
    "integrate-cp2-modp3-h2": ("integrate cp2.json --theory mod-p --p 3 --trunc 8 --class H2", 0),
    # the Honda laws at the benchmark's fgl truncations, and [-1] on a large law
    "fgl-morava-p2n1-d32": ("fgl --theory morava --p 2 --n 1 --trunc 32 --ell 2", 0),
    "fgl-morava-p2n2-d32": ("fgl --theory morava --p 2 --n 2 --trunc 32 --ell 2", 0),
    "fgl-morava-p3n1-d27": ("fgl --theory morava --p 3 --n 1 --trunc 27 --ell 3", 0),
    "fgl-morava-p2n1-d24-minus1": ("fgl --theory morava --p 2 --n 1 --trunc 24 --ell -1", 0),
    # Fl(3): nine edges over three weights, so edges share kernel ideals
    "solve-fl3-morava-p2n1": ("solve fl3.json --theory morava --p 2 --n 1 --trunc 6 --qmax 6", 0),
    "solve-fl3-mult": ("solve fl3.json --theory mult --trunc 6 --qmax 6", 0),
    "fgl-morava-p2n1-d40-minus1": ("fgl --theory morava --p 2 --n 1 --trunc 40 --ell -1", 0),
    # CP^2 with doubled weights: elementary divisors, the primitive-kernel
    # variant line, and a non-integral rational integral
    "solve-cp2x2-ordinary": ("solve cp2x2.json --theory ordinary --qmax 4", 0),
    "solve-cp2x2-morava-p2n1": (
        "solve cp2x2.json --theory morava --p 2 --n 1 --trunc 8 --qmax 4", 0,
    ),
    "integrate-cp2x2-ordinary-pt": ("integrate cp2x2.json --theory ordinary --trunc 8 --class pt", 0),
    "check-formality-cp2x2-ordinary": ("check-formality cp2x2.json --theory ordinary --qmax 4", 0),
    # a Z[b, b^-1] system with slack columns: divisors up to 256
    "solve-cp2x2-mult": ("solve cp2x2.json --theory mult --qmax 6", 0),
}


@pytest.mark.parametrize("stem", sorted(GOLDEN_COMMANDS))
def test_cli_stdout_matches_golden(stem):
    command, expected_code = GOLDEN_COMMANDS[stem]
    argv = [graph_path(a) if a.endswith(".json") else a for a in command.split()]
    code, out, _ = run_cli(*argv)
    with open(os.path.join(GOLDEN, stem + ".txt"), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert code == expected_code
    assert out == expected


# CLI theory flags and the same theory for the library, at --trunc 6
ORDER_THEORIES = {
    "ordinary": helpers.ordinary(trunc=6),
    "mult": helpers.mult(trunc=6),
    "mod-p --p 2": helpers.modp(2, trunc=6),
    "morava --p 2 --n 1": helpers.morava(2, 1, trunc=6),
    "morava --p 3 --n 1": helpers.morava(3, 1, trunc=6),
}


@pytest.mark.parametrize("flags", sorted(ORDER_THEORIES))
@pytest.mark.parametrize("name", sorted(os.listdir(GRAPHS)))
def test_solve_is_independent_of_edge_and_vertex_order(tmp_path, name, flags):
    # the normal forms are unique: reordering the edges or reversing one
    # (tail and head swapped, weight negated) leaves `solve` byte-identical,
    # and relabelling the vertices leaves ranks and divisors as they were
    rng = random.Random(f"{name} {flags}")
    with open(graph_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    edges = doc["edges"]

    def solve_with(new_edges):
        path = tmp_path / name
        path.write_text(json.dumps(doc | {"edges": new_edges}))
        argv = ["solve", str(path), "--theory", *flags.split(), "--trunc", "6", "--qmax", "6"]
        return run_cli(*argv)[:2]

    base = solve_with(edges)
    assert base[0] == 0
    theory = ORDER_THEORIES[flags]
    graph = load_graph_document(graph_path(name)).graph
    sol = solve_equivariant_cohomology(graph, theory, 6)
    for _ in range(3):
        assert solve_with(rng.sample(edges, len(edges))) == base
        i = rng.randrange(len(edges))
        e = edges[i]
        reversed_edge = e | {"tail": e["head"], "head": e["tail"], "weight": [-x for x in e["weight"]]}
        assert solve_with(edges[:i] + [reversed_edge] + edges[i + 1:]) == base
        perm = rng.sample(range(len(graph.vertices)), len(graph.vertices))
        moved = solve_equivariant_cohomology(helpers.relabel(graph, perm), theory, 6)
        assert (moved.ranks, moved.divisors) == (sol.ranks, sol.divisors)


def test_check_formality_runs_one_solve(monkeypatch):
    # a library solve is one solve; `solve` adds the primitive-kernel solve
    # only when a weight is a proper multiple, as the doubled weights of
    # cp2x2.json are; check-formality prints only ranks and never adds it
    import gkmcalc.cli as cli_module
    import gkmcalc.gkm as gkm_module

    calls = []
    real = gkm_module.solve_equivariant_cohomology

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gkm_module, "solve_equivariant_cohomology", counting)
    monkeypatch.setattr(cli_module, "solve_equivariant_cohomology", counting)
    doc = load_graph_document(graph_path("cp2x2.json"))
    gkm_module.solve_equivariant_cohomology(doc.graph, helpers.ordinary(trunc=6), 4)
    assert len(calls) == 1
    for graph, solves in (("cp2x2.json", 1), ("cp2.json", 1)):
        calls.clear()
        code, _, _ = run_cli("solve", graph_path(graph), "--theory", "ordinary", "--qmax", "4")
        assert code == 0 and len(calls) == solves, graph
    calls.clear()
    code, out, _ = run_cli(
        "check-formality", graph_path("cp2x2.json"), "--theory", "ordinary", "--qmax", "4"
    )
    with open(os.path.join(GOLDEN, "check-formality-cp2x2-ordinary.txt"), encoding="utf-8") as fh:
        assert (code, out) == (0, fh.read())
    assert len(calls) == 1


def test_cli_solve_skips_the_primitive_solve_where_no_multiple_changes_an_ideal(monkeypatch):
    # under K(1) at p = 3 the [2]-series of cp2x2.json's doubled weights is a
    # unit times u, so the primitive graph's system is the same system; at
    # p = 2 it is v1*u^2 + ..., and the variant solve still runs
    import gkmcalc.cli as cli_module

    calls = []
    real = cli_module.solve_equivariant_cohomology

    def counting(graph, theory, q_max):
        calls.append(graph)
        return real(graph, theory, q_max)

    monkeypatch.setattr(cli_module, "solve_equivariant_cohomology", counting)
    graph = load_graph_document(graph_path("cp2x2.json")).graph
    for p, solves in ((3, 1), (2, 2)):
        calls.clear()
        flags = ["--theory", "morava", "--p", str(p), "--n", "1", "--trunc", "8", "--qmax", "4"]
        code, out, _ = run_cli("solve", graph_path("cp2x2.json"), *flags)
        assert code == 0 and len(calls) == solves, p
        th = helpers.morava(p, 1, trunc=8)
        variant = real(graph.primitive(), th, 4).ranks
        assert out == helpers.solve_text_via_bases(real(graph, th, 4), variant)


def test_cli_fgl_morava_two_series():
    code, out, _ = run_cli(
        "fgl", "--theory", "morava", "--p", "2", "--n", "1", "--trunc", "8", "--ell", "2"
    )
    assert code == 0
    assert "[2]u = v1*u^2" in out.splitlines()


def test_cli_fgl_ordinary_five_series():
    code, out, _ = run_cli("fgl", "--theory", "ordinary", "--trunc", "4", "--ell", "5")
    assert code == 0
    assert "[5]u = 5*u" in out.splitlines()


def test_cli_fgl_missing_height():
    code, _, err = run_cli("fgl", "--theory", "morava", "--p", "2")
    assert code == 2
    assert "n" in err


@pytest.mark.parametrize("flags,refusal", [
    (["--theory", "morava", "--p", "2", "--n", "0"], "--theory morava: height n must be an integer >= 1"),
    (
        ["--theory", "ordinary", "--n", "2"],
        "--theory ordinary: theory kind 'ordinary-integral' does not take a height n",
    ),
], ids=["height-0", "height-without-morava"])
def test_cli_refuses_a_height_the_theory_cannot_take(flags, refusal):
    assert run_cli("fgl", *flags, "--trunc", "4") == (2, "", f"error: {refusal}\n")
    assert run_cli("solve", graph_path("cp2.json"), *flags) == (2, "", f"error: {refusal}\n")


def test_cli_refuses_a_directory_as_the_graph_file(tmp_path):
    code, out, err = run_cli("solve", str(tmp_path), "--theory", "ordinary")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def test_cli_solve_cp1_golden():
    code, out, _ = run_cli(
        "solve", graph_path("cp1.json"), "--theory", "ordinary", "--qmax", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model: conjectural"
    assert lines[1:4] == ["0 1", "2 2", "4 2"]
    assert "basis q=0" in lines
    assert "(1, 1)" in lines


def test_cli_solve_morava_no_banner():
    code, out, _ = run_cli(
        "solve", graph_path("cp1.json"), "--theory", "morava",
        "--p", "2", "--n", "1", "--trunc", "4", "--qmax", "2",
    )
    assert code == 0
    assert "model: conjectural" not in out


def test_cli_solve_deterministic():
    args = ("solve", graph_path("cp2.json"), "--theory", "ordinary", "--qmax", "6")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second


def test_cli_solve_invalid_graph_exit_3(tmp_path):
    path = tmp_path / "bad_graph.json"
    path.write_text(json.dumps({
        "torus_rank": 2,
        "vertices": ["A", "B"],
        "edges": [
            {"tail": "A", "head": "B", "weight": [1, 0]},
            {"tail": "A", "head": "B", "weight": [2, 0]},
        ],
    }))
    code, _, err = run_cli("solve", str(path), "--theory", "ordinary")
    assert code == 3
    assert "dependent weights" in err


def test_cli_solve_malformed_file_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli("solve", str(path), "--theory", "ordinary")
    assert code == 2
    assert "line" in err


def _cp1_bytes(**change):
    """cp1.json with the given top-level keys replaced, as file bytes."""
    with open(graph_path("cp1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(change)
    return json.dumps(doc).encode()


# file bytes and the location the refusal names
MALFORMED = {
    "edges-not-a-list": (_cp1_bytes(edges=5), "edges must be a list"),
    "betti-not-a-list": (_cp1_bytes(betti=3), "betti must be a list"),
    "tail-a-list": (
        _cp1_bytes(edges=[{"tail": ["N"], "head": "S", "weight": [1]}]),
        "edges[0]: tail must be a vertex name",
    ),
    "weight-true": (
        _cp1_bytes(edges=[{"tail": "N", "head": "S", "weight": [True]}]),
        "edges[0]: weight must be a list of integers",
    ),
    "torus-rank-true": (_cp1_bytes(torus_rank=True), "torus_rank must be a positive integer"),
    "class-a-number": (_cp1_bytes(classes={"c": 5}), "classes['c']: must be a list or an object"),
    "not-utf8": (_cp1_bytes().replace(b'"S"', b'"\xc9"'), "not UTF-8 at byte"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_graph_file_exit_2_names_the_location(tmp_path, case):
    data, where = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run_cli("solve", str(path), "--theory", "ordinary", "--qmax", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: {where}")


# graph files that used to escape as a traceback: (bytes, command, the start
# of the refusal after the file name)
DEEP = "(" * 5000 + "u1" + ")" * 5000
CRASHES = {
    "weight-5000-digits": (
        _cp1_bytes().replace(b'"weight": [1]', b'"weight": [' + b"1" * 5000 + b"]"),
        ["solve", "--theory", "ordinary", "--qmax", "2"],
        "parse error: Exceeds the limit",
    ),
    "edges-nested-100000-deep": (
        b'{"torus_rank": 1, "vertices": ["N", "S"], "edges": '
        + b"[" * 100000 + b"]" * 100000 + b"}",
        ["solve", "--theory", "ordinary", "--qmax", "2"],
        "parse error: nesting too deep",
    ),
    "expression-in-5000-parentheses": (
        _cp1_bytes(classes={"deep": [DEEP, "0"]}),
        ["integrate", "--theory", "ordinary", "--class", "deep"],
        "class 'deep' at vertex N: expression nests too deeply",
    ),
    "expression-5000-digits": (
        _cp1_bytes(classes={"long": ["9" * 5000 + "*u1", "0"]}),
        ["integrate", "--theory", "ordinary", "--class", "long"],
        f"class 'long' at vertex N: expression '{'9' * 5000}*u1': "
        "integer at position 0: Exceeds the limit",
    ),
}


@pytest.mark.parametrize("case", sorted(CRASHES))
def test_cli_refuses_graph_files_past_the_interpreter_limits(tmp_path, case):
    data, (command, *flags), refusal = CRASHES[case]
    path = tmp_path / "limit.json"
    path.write_bytes(data)
    code, out, err = run_cli(command, str(path), *flags)
    assert code == 2 and "sum:" not in out and "basis" not in out
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: {path}: {refusal}")


@pytest.mark.parametrize(
    "row,message",
    [
        ({"degree": 1, "rank": 1}, "betti[1]: degree 1 must be even and nonnegative"),
        ({"degree": 2, "rank": -3}, "betti[1]: rank -3 must be nonnegative"),
    ],
    ids=["odd-degree", "negative-rank"],
)
def test_cli_check_formality_refuses_a_bad_betti_row(tmp_path, row, message):
    path = tmp_path / "betti.json"
    path.write_bytes(_cp1_bytes(betti=[{"degree": 0, "rank": 1}, row]))
    code, out, err = run_cli("check-formality", str(path), "--theory", "ordinary", "--qmax", "4")
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_cli_integrate_cp2():
    code, out, _ = run_cli(
        "integrate", graph_path("cp2.json"), "--theory", "ordinary",
        "--trunc", "8", "--class", "H2",
    )
    assert code == 0
    lines = out.splitlines()
    assert "slope: (1, 2)" in lines
    assert "integral = 1" in lines
    assert any(line.startswith("euler A:") for line in lines)
    assert "negative part: clean" in lines


def test_cli_integrate_cp1_euler_class():
    code, out, _ = run_cli(
        "integrate", graph_path("cp1.json"), "--theory", "morava",
        "--p", "3", "--n", "1", "--trunc", "8", "--class", "euler0",
    )
    assert code == 0
    assert "integral = 1" in out.splitlines()


def test_cli_integrate_degree_zero_no_integral_line():
    code, out, _ = run_cli(
        "integrate", graph_path("cp1.json"), "--theory", "ordinary",
        "--trunc", "8", "--class", "unit",
    )
    assert code == 0
    assert not any(line.startswith("integral =") for line in out.splitlines())


def test_cli_check_formality_pass():
    code, out, _ = run_cli(
        "check-formality", graph_path("cp1.json"), "--theory", "ordinary", "--qmax", "6"
    )
    assert code == 0
    assert out.splitlines()[-1] == "RESULT PASS"


POINT = {
    "torus_rank": 1,
    "vertices": ["P"],
    "edges": [],
    "betti": [{"degree": 0, "rank": 1}],
    "classes": {"one": {"degree": 0, "restrictions": ["1"]}},
}


@pytest.mark.parametrize(
    "flags",
    [
        ["--theory", "ordinary"],
        ["--theory", "mod-p", "--p", "2"],
        ["--theory", "mult"],
        ["--theory", "morava", "--p", "2", "--n", "1"],
        ["--theory", "morava", "--p", "3", "--n", "2"],
    ],
    ids=["ordinary", "mod-2", "mult", "morava-p2n1", "morava-p3n2"],
)
def test_cli_point_is_formal_and_integrates_to_one(tmp_path, flags):
    # a graph without edges: every star, pairing list and Euler product is empty
    path = tmp_path / "point.json"
    path.write_text(json.dumps(POINT))
    code, out, err = run_cli("check-formality", str(path), *flags, "--qmax", "4")
    assert (code, err, out.splitlines()[-1]) == (0, "", "RESULT PASS")
    code, out, err = run_cli("integrate", str(path), *flags, "--class", "one")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "euler P: 1 + O(s^9)" in lines and "sum: 1 + O(s^9)" in lines
    assert "integral = 1" in lines


def test_cli_check_formality_refuses_a_truncation_without_headroom():
    # every kernel ideal of cp2.json has order 1, so --qmax 8 needs 8/2 + 1
    flags = ["--theory", "morava", "--p", "2", "--n", "1", "--trunc", "4", "--qmax", "8"]
    code, out, err = run_cli("check-formality", graph_path("cp2.json"), *flags)
    assert (code, out) == (2, "")
    assert err == "error: truncation degree 4 too small for q_max 8: residues need headroom 5\n"
    assert run_cli("solve", graph_path("cp2.json"), *flags) == (code, out, err)


@pytest.mark.parametrize("command,theory,flags,exit_code", [
    ("solve", "ordinary", ["--qmax", "3"], 2),
    ("solve", "mult", ["--qmax", "3"], 2),
    ("check-formality", "ordinary", ["--qmax", "3"], 2),
    ("check-formality", "mult", ["--qmax", "3"], 2),
    ("integrate", "ordinary", ["--trunc", "1", "--class", "H"], 4),
    ("integrate", "mult", ["--trunc", "1", "--class", "H"], 4),
    ("integrate", "mult", ["--class", "H2"], 4),
])
def test_cli_refusal_leaves_stdout_empty(command, theory, flags, exit_code):
    # the banner is printed only once the answer exists
    code, out, err = run_cli(command, graph_path("cp2.json"), "--theory", theory, *flags)
    assert (code, out) == (exit_code, "")
    assert err.startswith("error: ")


def test_cli_check_formality_wrong_betti_fails(tmp_path):
    with open(graph_path("cp1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["betti"] = [{"degree": 0, "rank": 2}]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        "check-formality", str(path), "--theory", "ordinary", "--qmax", "4"
    )
    assert code != 0
    first = next(line for line in out.splitlines() if line.endswith("FAIL"))
    assert first.startswith("0 ")


def test_cli_check_formality_missing_betti(tmp_path):
    with open(graph_path("cp1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["betti"]
    path = tmp_path / "nb.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("check-formality", str(path), "--theory", "ordinary")
    assert code == 2
    assert "betti" in err


def test_cli_integrate_product_point_class():
    code, out, _ = run_cli(
        "integrate", graph_path("cp1xcp1.json"), "--theory", "morava",
        "--p", "3", "--n", "1", "--trunc", "8", "--class", "pt",
    )
    assert code == 0
    assert "integral = 1" in out.splitlines()


def test_cli_integrate_precision_exhausted_exit_4(tmp_path):
    # below top degree the negative-part verdict needs every quotient known
    # through s^-1: the unit class (class order 0) needs 2*lg - 1
    path = _cp2_with_class(tmp_path, "one", {"degree": 0, "restrictions": ["1", "1", "1"]})
    for flags, trunc, need in (
        (["--theory", "ordinary"], 2, 3),
        (["--theory", "morava", "--p", "2", "--n", "2"], 8, 9),
    ):
        argv = ["integrate", path, *flags, "--class", "one"]
        code, out, err = run_cli(*argv, "--trunc", str(trunc))
        assert (code, out) == (4, "")
        assert err.startswith("error: precision exhausted before exponent -1: at vertex A ")
        assert err.endswith(f"class order 0, so the smallest truncation degree that reaches it is {need}\n")
        code, out, err = run_cli(*argv, "--trunc", str(need))
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["sum: 0 + O(s^0)", "negative part: clean"]


@pytest.mark.parametrize("argv", [
    ("cp2.json", "--theory", "ordinary", "--trunc", "2", "--class", "H2"),
    ("cp1xcp1.json", "--theory", "morava", "--p", "2", "--n", "1", "--trunc", "5", "--class", "pt"),
])
def test_cli_integrate_answers_at_the_need(argv):
    # both are below the old Euler-order budget, which asked 6 for each
    code, out, err = run_cli("integrate", graph_path(argv[0]), *argv[1:])
    assert (code, err) == (0, "")
    assert "integral = 1" in out.splitlines()


def _write_graph(path, graph, classes=None):
    names = graph.vertices
    doc = {
        "torus_rank": graph.rank,
        "vertices": names,
        "edges": [
            {"tail": names[e.tail], "head": names[e.head], "weight": list(e.weight)}
            for e in graph.edges
        ],
        "classes": classes or {},
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_solve_refuses_relation_beyond_truncation(tmp_path):
    # [4]u = v2^5 u^16 at height 2, p = 2: it truncates to zero at D = 8
    scaled = helpers.mapped(helpers.cp2(), [[4, 0], [0, 4]])
    path = _write_graph(tmp_path / "cp2x4.json", scaled)
    flags = ["--theory", "morava", "--p", "2", "--n", "2", "--qmax", "2"]
    code, out, err = run_cli("solve", path, *flags, "--trunc", "8")
    assert code == 2
    assert "cannot present the order-4 ring" in err
    code, out, _ = run_cli("solve", path, *flags, "--trunc", "18")
    assert code == 0
    assert out.splitlines()[:2] == ["0 73", "2 58"]


def test_cli_integrate_names_the_euler_order_a_point_class_needs(tmp_path):
    # no slope is mod-2 generic on CP^4; the largest Euler order is 22, at L3
    g = helpers.cpn(4)
    pt = "*".join("chi(%s)" % ",".join(map(str, w)) for w in helpers.outgoing_weights(g, 0))
    classes = {"pt": {"degree": 8, "restrictions": [pt] + ["0"] * 4}}
    path = _write_graph(tmp_path / "cp4.json", g, classes)
    argv = ["integrate", path, "--theory", "morava", "--p", "2", "--n", "2", "--class", "pt"]
    code, out, err = run_cli(*argv, "--trunc", "21")
    assert (code, out) == (4, "")
    assert err == (
        "error: truncation degree 21 below the Euler order 22 at vertex L3, where "
        "the Euler class would lose its leading term, so the smallest truncation "
        "degree that keeps it is 22\n"
    )
    code, out, err = run_cli(*argv, "--trunc", "22")
    assert (code, err) == (0, "")
    assert "integral = 1" in out.splitlines()


def _cp4_hn_argv(tmp_path):
    """The benchmark's H^n job on CP^4 under K(2) at p = 2, without --trunc."""
    g = helpers.cpn(4)
    hn = ["0"] * 5
    for e in g.edges:
        if e.tail == 0:
            hn[e.head] = "chi(%s)^4" % ",".join(str(-a) for a in e.weight)
    path = _write_graph(tmp_path / "cp4.json", g, {"Hn": {"degree": 8, "restrictions": hn}})
    return ["integrate", path, "--theory", "morava", "--p", "2", "--n", "2", "--class", "Hn"]


def test_cli_integrate_names_the_vertex_that_exhausts_the_precision(tmp_path):
    # slope (1, 2, 3, 4) gives Euler orders [7, 10, 7, 22, 22] and class
    # orders [-, 4, 16, 4, 4], so the quotient at L3 reaches s^0 from
    # 2*22 - 4 = 40 on
    argv = _cp4_hn_argv(tmp_path)
    for trunc in (28, 39):
        code, out, err = run_cli(*argv, "--trunc", str(trunc))
        assert (code, out) == (4, "")
        assert err == (
            "error: precision exhausted before exponent 0: at vertex L3 the Euler "
            "order is 22 and the class order 4, so the smallest truncation degree "
            "that reaches it is 40\n"
        )
    code, out, err = run_cli(*argv, "--trunc", "40")
    assert code == 0 and err == ""
    assert "integral = 1" in out.splitlines()


def test_cli_integrate_refuses_a_mixed_degree_class_below_the_euler_order(tmp_path):
    # slope (1, 2): vertex A pairs to 1 and 2, so its Euler class is [1]u*[2]u
    # = v2*u^5 + ... under K(2) at p = 2, and a degree-4 truncation loses it;
    # the class order 4 keeps the need at the Euler order, max(5, 2*5 - 4 - 1)
    path = _cp2_with_class(tmp_path, "mixed", ["v2*chi(1,0)^4 + chi(1,0)^4", "0", "0"])
    argv = ["integrate", path, "--theory", "morava", "--p", "2", "--n", "2", "--class", "mixed"]
    code, out, err = run_cli(*argv, "--trunc", "4")
    assert (code, out) == (4, "")
    assert err == (
        "error: truncation degree 4 below the Euler order 5 at vertex A, where "
        "the Euler class would lose its leading term, so the smallest truncation "
        "degree that keeps it is 5\n"
    )
    code, out, _ = run_cli(*argv, "--trunc", "5")
    assert code == 0
    assert "euler A: v2*s^5 + O(s^6)" in out


def _cp2_with_class(tmp_path, name, spec):
    with open(graph_path("cp2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["classes"][name] = spec
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_integrate_mult_refusals_follow_the_truncation(tmp_path):
    # Euler orders 2 at every vertex of cp2.json under mult: the truncation
    # is checked first, and only then does the division meet the lead 2 of
    # the Euler class at A, 2*s^2 - b*s^3, which is not a unit in Z[b^+-1]
    zero4 = {"degree": 4, "restrictions": ["0", "0", "0"]}
    path = _cp2_with_class(tmp_path, "zero4", zero4)
    code, out, err = run_cli("integrate", path, "--theory", "mult", "--trunc", "1", "--class", "zero4")
    assert (code, out) == (4, "")
    assert err.startswith("error: truncation degree 1 below the Euler order 2 at vertex A, ")
    path = _cp2_with_class(tmp_path, "one", ["1", "1", "1"])
    argv = ["integrate", path, "--theory", "mult", "--class", "one"]
    code, out, err = run_cli(*argv, "--trunc", "2")
    assert (code, out) == (4, "")
    assert err.startswith("error: precision exhausted before exponent -1: at vertex A ")
    assert run_cli(*argv, "--trunc", "3") == (
        4, "", "error: Euler class at vertex A has no unit leading coefficient for slope (1, 2)\n"
    )


def test_cli_integrate_a_class_mixing_degrees_at_one_monomial(tmp_path):
    # under K(1) at p = 2, chi(1,1) = u1 + u2 + v1*u1*u2 has a degree-2 term at
    # u1*u2, and chi(1,0)*chi(0,1) = u1*u2 a degree-4 one
    path = _cp2_with_class(tmp_path, "mixed", ["chi(1,1) + chi(1,0)*chi(0,1)", "0", "0"])
    argv = ["integrate", path, "--class", "mixed"]
    code, out, err = run_cli(*argv, "--theory", "morava", "--p", "2", "--n", "1")
    assert code == 0 and err == ""
    assert "sum: v1^-1*s^-2 + s^-1 + 1 + v1 + " in out
    code, out, err = run_cli(*argv, "--theory", "mult")
    assert code == 4
    assert err == (
        "error: Euler class at vertex A has no unit leading coefficient for slope (1, 2)\n"
    )


def test_cli_integrate_names_the_degrees_of_a_mixed_tagged_class(tmp_path):
    spec = {"degree": 4, "restrictions": ["u1 + u1^2", "0", "0"]}
    path = _cp2_with_class(tmp_path, "tagged", spec)
    code, _, err = run_cli("integrate", path, "--theory", "ordinary", "--class", "tagged")
    assert code == 2
    assert err == (
        f"error: {path}: class 'tagged' at vertex A: expression mixes degrees 2 and 4, tagged 4\n"
    )


def test_cli_integrate_class_refusals_name_the_file(tmp_path):
    path = _cp2_with_class(tmp_path, "t4", {"degree": 4, "restrictions": ["u1", "0", "0"]})
    for name, cause in (
        ("t4", "class 't4' at vertex A: expression has degree 2, tagged 4"),
        ("missing", "class 'missing' is not defined in the graph file"),
    ):
        code, out, err = run_cli("integrate", path, "--theory", "ordinary", "--class", name)
        assert (code, out, err) == (2, "", f"error: {path}: {cause}\n")


def test_cli_integrate_refusal_names_the_theory_given(tmp_path):
    # localization over ordinary parses the class over the rationals, but a
    # refusal names the theory on the command line
    path = _cp2_with_class(tmp_path, "per", ["v*u1", "0", "0"])
    for flags, kind in (
        (["--theory", "ordinary"], "ordinary-integral"),
        (["--theory", "mod-p", "--p", "3"], "ordinary-mod-p"),
    ):
        code, out, err = run_cli("integrate", path, *flags, "--class", "per")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: class 'per' at vertex A: expression 'v*u1': "
            f"theory {kind} has no periodicity generator 'v'\n"
        )


def test_cli_integrate_refuses_a_negative_power_of_a_non_unit(tmp_path):
    path = _cp2_with_class(tmp_path, "inv", ["2^-1*u1", "0", "0"])
    code, out, err = run_cli("integrate", path, "--theory", "mult", "--class", "inv")
    assert code == 2 and out == ""
    assert err == (
        f"error: {path}: class 'inv' at vertex A: expression '2^-1*u1': "
        "negative exponent of the non-unit 2\n"
    )


def test_cli_integrate_refuses_a_product_cut_to_zero_by_the_truncation(tmp_path):
    with open(graph_path("cp1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["classes"]["cut"] = ["u1^99", "0"]
    doc["classes"]["cut2"] = ["1 + u1^5*u1^4", "0"]
    doc["classes"]["zero"] = ["0*u1", "0"]
    path = tmp_path / "cp1.json"
    path.write_text(json.dumps(doc))
    argv = ["integrate", str(path), "--theory", "ordinary", "--trunc", "8", "--class"]
    for name, expr in (("cut", "u1^99"), ("cut2", "1 + u1^5*u1^4")):
        code, out, err = run_cli(*argv, name)
        assert code == 2 and out == ""
        assert err == (
            f"error: {path}: class {name!r} at vertex N: expression {expr!r}: nonzero "
            "factors multiply to zero at truncation degree 8\n"
        )
    # a zero factor makes a zero class, not a refusal
    code, out, _ = run_cli(*argv, "zero")
    assert code == 0 and "sum: 0 + O(s^8)" in out.splitlines()


@pytest.mark.parametrize("graph_file", ["cp2.json", "cp2x2.json"])
def test_cli_integrate_refuses_a_class_before_the_slope_warnings(tmp_path, graph_file):
    # no slope pairs nonzero mod 2 with every weight here, so the slope
    # search, which now runs before the class is read, falls back; the class
    # is still refused first, before any warning and with stdout empty
    with open(graph_path(graph_file), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["classes"]["bad"] = ["u1 +", "0", "0"]
    path = tmp_path / graph_file
    path.write_text(json.dumps(doc))
    argv = ["integrate", str(path), "--theory", "mod-p", "--p", "2", "--class"]
    for name, cause in (
        ("bad", "class 'bad' at vertex A: expression 'u1 +': unexpected end of the expression"),
        ("missing", "class 'missing' is not defined in the graph file"),
    ):
        assert run_cli(*argv, name) == (2, "", f"error: {path}: {cause}\n")
    # a class that loads meets the warnings (cp2x2 has them) and then exit 4
    code, out, err = run_cli(*argv, next(iter(json.loads(path.read_text())["classes"])))
    assert (code, out) == (4, "")
    assert err.splitlines()[-1].startswith("error: no slope pairs nonzero mod 2 with every weight")
    assert ("warning:" in err) == (graph_file == "cp2x2.json")


def test_expression_whitespace_is_skipped_around_every_token():
    fgl = build_fgl(helpers.ordinary())
    assert parse_expression(" 2 * u1 ^ 2 ", fgl, 1) == parse_expression("2*u1^2", fgl, 1)


# a class expression at vertex N of cp1.json and why it is refused
BAD_EXPRESSIONS = {
    "unknown-symbol": ("u1 + x", "unknown symbol 'x'"),
    "bad-character": ("u1 $ 2", "bad character '$' at position 3"),
    "unclosed-parenthesis": ("(u1 + 1", "expected ')', found the end of the expression"),
    "trailing-operator": ("u1 +", "unexpected end of the expression"),
    "cut-by-truncation": ("u1^99", "nonzero factors multiply to zero at truncation degree 8"),
    # refusals after a leading sign and after a closed parenthesis
    "after-a-leading-sign": ("-chi(1) + x", "unknown symbol 'x'"),
    "after-a-parenthesis": ("(u1 + 1)^2 * y", "unknown symbol 'y'"),
    # arity, range and token refusals that only the expression parser makes
    "chi-arity": ("chi(1,2)", "chi takes 1 components, found 2"),
    "variable-range": ("u2", "variable u2 out of range 1..1"),
    "trailing-token": ("u1 u1", "unexpected trailing token 'u1'"),
    "symbolic-exponent": ("u1^x", "expected an integer exponent"),
    "leading-operator": ("*u1", "unexpected token '*'"),
}


@pytest.mark.parametrize("case", sorted(BAD_EXPRESSIONS))
def test_cli_integrate_refuses_a_bad_expression_by_location_before_any_output(tmp_path, case):
    expr, cause = BAD_EXPRESSIONS[case]
    path = tmp_path / "cp1.json"
    with open(graph_path("cp1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["classes"]["c"] = [expr, "0"]
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("integrate", str(path), "--theory", "ordinary", "--class", "c")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: class 'c' at vertex N: expression {expr!r}: {cause}\n"


VALIDATED_COMMANDS = {
    # cp2x2.json's doubled weights make `solve` under mod-2 re-solve the
    # primitive graph, which is valid because the graph is
    "solve": "solve cp2x2.json --theory mod-p --p 2 --trunc 6 --qmax 4",
    "check-formality": "check-formality cp2x2.json --theory mult --trunc 6 --qmax 4",
    "integrate": "integrate cp2.json --theory ordinary --class H2",
}


@pytest.mark.parametrize("command", sorted(VALIDATED_COMMANDS))
def test_cli_validates_the_graph_once_per_command(command, monkeypatch):
    # the CLI checks the graph when it loads it, and the library functions
    # it calls take that graph without checking it again
    import gkmcalc.cli as cli_module
    import gkmcalc.gkm as gkm_module

    calls = []
    real = gkm_module.validate_graph

    def counting(graph):
        calls.append(1)
        return real(graph)

    monkeypatch.setattr(cli_module, "validate_graph", counting)
    monkeypatch.setattr(gkm_module, "validate_graph", counting)
    words = VALIDATED_COMMANDS[command].split()
    argv = [graph_path(a) if a.endswith(".json") else a for a in words]
    code, out, _ = run_cli(*argv)
    assert code == 0 and out
    assert len(calls) == 1


@pytest.mark.parametrize("command", sorted(VALIDATED_COMMANDS))
def test_cli_refuses_an_invalid_graph_with_exit_3(command, tmp_path):
    path = tmp_path / "bad.json"
    with open(graph_path("cp2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["edges"][0]["weight"] = [0, 0]
    path.write_text(json.dumps(doc))
    argv = [str(path) if a.endswith(".json") else a for a in VALIDATED_COMMANDS[command].split()]
    assert run_cli(*argv) == (3, "", "violation: edge 0: weight is zero\n")


def test_cli_integrate_mod_p_refusal_names_the_vanishing_euler_class():
    # l1, l2 and l2 - l1 are never all odd, so every slope pairs to an even
    # number with some weight of CP^2, where the additive mod-2 class vanishes
    argv = ["integrate", graph_path("cp2.json"), "--trunc", "10", "--class", "H2"]
    code, _, err = run_cli(*argv, "--theory", "mod-p", "--p", "2")
    assert code == 4
    assert err == (
        "error: no slope pairs nonzero mod 2 with every weight: slope (1, 2) "
        "pairs to 2 with weight (0, 1) at vertex A, so the additive mod-2 "
        "Euler class vanishes there\n"
    )
    code, out, _ = run_cli(*argv, "--theory", "mod-p", "--p", "3")
    assert code == 0
    assert "integral = 1" in out.splitlines()
    # at height 1 the Euler class of an even pairing is v1*u^2 + ..., not zero
    code, out, _ = run_cli(*argv, "--theory", "morava", "--p", "2", "--n", "1")
    assert code == 0
    assert "slope note: no mod-p generic slope exists; using an integer-generic one" in out
    assert "integral = 1" in out.splitlines()


def test_cli_check_formality_builds_no_basis_classes(monkeypatch):
    import gkmcalc.gkm as gkm

    calls = []
    real = gkm._class_from_vector
    monkeypatch.setattr(gkm, "_class_from_vector", lambda *a: calls.append(1) or real(*a))
    built = []
    real_init = gkm.EquivariantClass.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(gkm.EquivariantClass, "__init__", counting_init)
    flags = ["--theory", "morava", "--p", "2", "--n", "1", "--trunc", "6", "--qmax", "6"]
    code, out, _ = run_cli("check-formality", graph_path("fl3.json"), *flags)
    assert code == 0 and out.endswith("RESULT PASS\n")
    assert calls == []
    # solve prints its bases straight from the kernel vectors
    code, out, _ = run_cli("solve", graph_path("fl3.json"), *flags)
    assert code == 0 and "basis q=6" in out
    assert calls == [] and built == []


SOLVE_THEORIES = {
    "ordinary": (["--theory", "ordinary"], helpers.ordinary),
    "mod3": (["--theory", "mod-p", "--p", "3"], lambda t: helpers.modp(3, t)),
    "mult": (["--theory", "mult"], helpers.mult),
    "K1p2": (["--theory", "morava", "--p", "2", "--n", "1"], lambda t: helpers.morava(2, 1, t)),
    "K2p2": (["--theory", "morava", "--p", "2", "--n", "2"], lambda t: helpers.morava(2, 2, t)),
    "K1p3": (["--theory", "morava", "--p", "3", "--n", "1"], lambda t: helpers.morava(3, 1, t)),
}
SOLVE_GRAPHS = sorted(f for f in os.listdir(GRAPHS) if f.endswith(".json")) + ["cp3", "cp4"]


@pytest.mark.parametrize("graph", SOLVE_GRAPHS)
@pytest.mark.parametrize("theory", sorted(SOLVE_THEORIES))
def test_cli_solve_prints_what_the_basis_classes_print(tmp_path, graph, theory):
    if graph.endswith(".json"):
        path = graph_path(graph)
    else:
        path = str(tmp_path / f"{graph}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(helpers.graph_json(helpers.cpn(int(graph[2:]))))
    flags, make = SOLVE_THEORIES[theory]
    # trunc 6 leaves the residue headroom of the order-4 [2]-series of
    # K(2) at p = 2 on the weight-doubled cp2x2
    code, out, _ = run_cli("solve", path, *flags, "--trunc", "6", "--qmax", "4")
    assert code == 0
    graph = load_graph_document(path).graph
    sol = solve_equivariant_cohomology(graph, make(6), 4)
    variant = None
    if graph.primitive() != graph:
        variant = solve_equivariant_cohomology(graph.primitive(), make(6), 4).ranks
    assert out == helpers.solve_text_via_bases(sol, variant)


def test_console_script_end_to_end():
    import subprocess
    import sys

    import gkmcalc

    # the child imports the gkmcalc under test, however the suite was started
    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcalc.cli", "fgl", "--theory", "morava",
         "--p", "2", "--n", "2", "--trunc", "8", "--ell", "4"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("F(x,y) = x + y")
    assert "[4]u = 0" in proc.stdout  # [4]u = v2^5 u^16 truncates away at D=8


# a prime too large for any search that lists the residues mod p
BIG_PRIME = 1000000007
BIG_PRIME_RUNS = {
    "mod-p": (("cp2.json", "H2"), ("--theory", "mod-p", "--p", str(BIG_PRIME)), 0),
    "morava": (("cp2.json", "H2"), ("--theory", "morava", "--p", str(BIG_PRIME), "--n", "1"), 0),
    "vanishing-weight": ((None, "pt"), ("--theory", "mod-p", "--p", str(BIG_PRIME)), 4),
}


@pytest.mark.parametrize("case", sorted(BIG_PRIME_RUNS))
def test_cli_integrate_at_a_large_prime_stays_small(tmp_path, case):
    # each run is a child capped at 500 MB of address space, so a slope
    # search that lists p points fails with a MemoryError, not the machine
    import resource
    import subprocess
    import sys

    import gkmcalc

    (graph, cls), flags, status = BIG_PRIME_RUNS[case]
    if graph is None:
        graph = str(tmp_path / "vanishing.json")
        with open(graph, "w", encoding="utf-8") as fh:
            json.dump({
                "torus_rank": 1,
                "vertices": ["N", "S"],
                "edges": [{"tail": "N", "head": "S", "weight": [BIG_PRIME]}],
                "classes": {"pt": {"degree": 2, "restrictions": [f"chi({BIG_PRIME})", "0"]}},
            }, fh)
    else:
        graph = graph_path(graph)
    cap = 500 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcalc.cli", "integrate", graph, *flags,
         "--trunc", "8", "--class", cls],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=limit, timeout=30,
    )
    assert proc.returncode == status, proc.stderr
    if status == 0:
        assert proc.stdout.splitlines()[-1] == "integral = 1"
    else:
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            f"error: no slope pairs nonzero mod {BIG_PRIME} with every weight: "
            f"slope (1,) pairs to {BIG_PRIME} with weight ({BIG_PRIME},) at vertex N, "
            f"so the additive mod-{BIG_PRIME} Euler class vanishes there"
        )


HASH_SEED_STEMS = (
    "solve-fl3-mult",
    "solve-fl3-morava-p2n1",
    "integrate-cp2x2-ordinary-pt",
    "fgl-morava-p2n1-d24-minus1",
)


def test_cli_stdout_is_independent_of_the_hash_seed():
    # the output contract holds for every string-hash seed, not only the one
    # this test run happens to draw: run some golden commands in two fresh
    # interpreters with different PYTHONHASHSEED values
    import subprocess
    import sys

    import gkmcalc

    argvs = []
    expected = ""
    for stem in HASH_SEED_STEMS:
        command, _ = GOLDEN_COMMANDS[stem]
        argvs.append([graph_path(a) if a.endswith(".json") else a for a in command.split()])
        with open(os.path.join(GOLDEN, stem + ".txt"), encoding="utf-8", newline="") as fh:
            expected += fh.read()
    script = (
        "import json, sys\nfrom gkmcalc.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n    main(argv)\n"
    )
    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    outs = []
    for seed in ("1", "2718"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == expected


def test_cli_check_formality_morava_cp2():
    code, out, _ = run_cli(
        "check-formality", graph_path("cp2.json"), "--theory", "morava",
        "--p", "2", "--n", "1", "--trunc", "6", "--qmax", "4",
    )
    assert code == 0
    assert out.splitlines()[-1] == "RESULT PASS"


def test_cli_solve_torsion_edge_reports(tmp_path):
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({
        "torus_rank": 1,
        "vertices": ["N", "S"],
        "edges": [{"tail": "N", "head": "S", "weight": [2]}],
    }))
    code, out, err = run_cli(
        "solve", str(path), "--theory", "ordinary", "--trunc", "6", "--qmax", "2"
    )
    assert code == 0
    assert "divisors q=2: 2" in out.splitlines()
    code, out, err = run_cli(
        "solve", str(path), "--theory", "morava", "--p", "2", "--n", "1",
        "--trunc", "6", "--qmax", "2",
    )
    assert code == 0
    assert any(line.startswith("primitive-kernel variant differs:") for line in out.splitlines())
    assert "vanishes mod 2" in err


# ---- the command-line grammar: read directly, argparse for help and refusals --

# golden file stem -> (argv, exit code): help goes to stdout, usage errors to
# stderr, both written by argparse itself
USAGE_COMMANDS = {
    "usage-help": ("--help", 0),
    "usage-help-solve": ("solve --help", 0),
    "usage-help-fgl": ("fgl --help", 0),
    "usage-help-integrate": ("integrate --help", 0),
    "usage-help-check-formality": ("check-formality --help", 0),
    "usage-no-command": ("", 2),
    "usage-bad-command": ("bogus", 2),
    "usage-no-theory": ("fgl", 2),
    "usage-bad-theory": ("fgl --theory x", 2),
    "usage-bad-int": ("fgl --theory morava --p two", 2),
    "usage-no-graph": ("solve --theory ordinary", 2),
    "usage-unknown-option": ("fgl --theory ordinary --zzz", 2),
}


def run_cli_captured(*argv):
    """run_cli, with argparse's own writes to sys.stdout and sys.stderr
    captured too."""
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("stem", sorted(USAGE_COMMANDS))
def test_cli_help_and_usage_errors_match_golden(stem, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    command, expected_code = USAGE_COMMANDS[stem]
    code, out, err = run_cli_captured(*command.split())
    with open(os.path.join(GOLDEN, stem + ".txt"), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert code == expected_code
    assert (out, err) == ((expected, "") if code == 0 else ("", expected))


def test_cli_import_loads_no_dataclasses_or_inspect():
    import subprocess
    import sys

    import gkmcalc

    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    script = (
        "import sys, gkmcalc.cli; "
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    # -S: no site hooks, which may import any of these modules on their own
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_main_builds_no_parser(monkeypatch):
    import argparse

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli("fgl", "--theory", "mult", "--trunc", "4")[0] == 0
    assert run_cli("solve", graph_path("cp1.json"), "--theory", "ordinary", "--qmax", "2")[0] == 0
    assert built == []


@pytest.mark.parametrize(
    "graph,p,n,name", [("cp2.json", 2, 2, "H2"), ("cp1xcp1.json", 2, 1, "pt")], ids=["cp2-H2", "cp1xcp1-pt"]
)
def test_integrate_never_builds_the_two_variable_law(monkeypatch, graph, p, n, name):
    # integrate reads only [ell]-series; the fgl command reads the law
    import gkmcalc.fgl as fgl_module

    monkeypatch.setattr(fgl_module, "_fgl_cache", {})
    theory = ("--theory", "morava", "--p", str(p), "--n", str(n), "--trunc", "12")
    code, out, _ = run_cli("integrate", graph_path(graph), *theory, "--class", name)
    assert code == 0 and "integral = 1\n" in out
    (law,) = fgl_module._fgl_cache.values()
    assert "series" not in law.__dict__
    assert run_cli("fgl", *theory)[0] == 0
    assert list(fgl_module._fgl_cache.values()) == [law]
    assert "series" in law.__dict__


def test_cli_usage_error_leaves_no_state_behind():
    # the failed parse has already read --trunc and --qmax; the next command
    # must still see the defaults, as a command run alone does
    code, _, err = run_cli_captured(
        "solve", graph_path("cp1xcp1.json"), "--theory", "mod-p", "--trunc", "4", "--qmax", "2", "--p",
    )
    assert code == 2 and "expected one argument" in err
    command, _ = GOLDEN_COMMANDS["solve-cp1xcp1-mod3"]
    code, out, _ = run_cli(*[graph_path(a) if a.endswith(".json") else a for a in command.split()])
    with open(os.path.join(GOLDEN, "solve-cp1xcp1-mod3.txt"), encoding="utf-8", newline="") as fh:
        assert (code, out) == (0, fh.read())


def test_cli_reads_sys_argv_when_given_no_argv(monkeypatch, capsys):
    command, _ = GOLDEN_COMMANDS["readme-solve"]
    argv = [graph_path(a) if a.endswith(".json") else a for a in command.split()]
    monkeypatch.setattr("sys.argv", ["gkmcalc", *argv])
    assert main() == 0
    with open(os.path.join(GOLDEN, "readme-solve.txt"), encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


def test_cli_module_run_reads_its_command_line():
    import subprocess
    import sys

    import gkmcalc

    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    command, _ = GOLDEN_COMMANDS["solve-cp1xcp1-mod3"]
    argv = [graph_path(a) if a.endswith(".json") else a for a in command.split()]
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcalc.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    with open(os.path.join(GOLDEN, "solve-cp1xcp1-mod3.txt"), encoding="utf-8", newline="") as fh:
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, fh.read(), "")


# values that fit each option, and tokens that fit none: help, abbreviations,
# --flag=value, --, -, signed and non-ASCII numbers, the interpreter's int
# digit limit, a graph or class named like a command
_FITTING = {
    "theory": ("ordinary", "mod-p", "mult", "morava"),
    "p": ("2", "3", "5"),
    "n": ("1", "2"),
    "trunc": ("4", "8", "012"),
    "ell": ("0", "2", str(10**20)),
    "qmax": ("4", "6"),
    "graph": ("g.json", "solve", "fgl"),
    "class_name": ("pt", "H2", "integrate"),
}
_ODD_VALUES = (
    "", "x", "two", "-1", "+8", "٣", "²", " 5", "1_0", "2.0", "-", "--", "-h", "--p",
    "1" * 5000,
)
_ODD_TOKENS = (
    "-h", "--help", "--th", "--p=2", "--class=pt", "--", "-", "--zzz", "+8", "x.json",
    "--qmax", "--theory", "--ell", "fgl", "solve", "ordinary",
)


def _argparse_answer(argv):
    """vars() of a freshly built parser's namespace, or None where argparse
    exits (help or a usage error)."""
    from contextlib import redirect_stderr, redirect_stdout

    from gkmcalc.cli import _build_parser

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _assert_reader_agrees(argv):
    from gkmcalc.cli import _read_argv

    read = _read_argv(list(argv))
    expected = _argparse_answer(list(argv))
    if read is not None:
        assert vars(read) == expected, argv
    if expected is None:
        assert read is None, argv


@st.composite
def _command_lines(draw):
    from gkmcalc.cli import _GRAMMAR

    command = draw(st.sampled_from([*_GRAMMAR, "bogus"]))
    argv = [command]
    for row in draw(st.permutations(_GRAMMAR.get(command, _GRAMMAR["solve"])[1])):
        if draw(st.integers(0, 7)) == 0:  # leave an item out now and then
            continue
        odd = draw(st.integers(0, 7)) == 0
        value = draw(st.sampled_from(_ODD_VALUES if odd else _FITTING[row[1]]))
        argv += [value] if row[0] == "graph" else [row[0], value]
    if draw(st.integers(0, 2)) == 0:  # and a stray token or two
        for token in draw(st.lists(st.sampled_from(_ODD_TOKENS + _ODD_VALUES), min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=300, deadline=2000)
@given(argv=_command_lines())
def test_cli_reader_agrees_with_argparse(argv):
    _assert_reader_agrees(argv)


@pytest.mark.parametrize(
    "command",
    [
        "",
        "-h",
        "solve -h",
        "fgl --th ordinary",
        "fgl --theory ordinary --p=2",
        "fgl --theory ordinary --trunc ٣",
        "fgl --theory ordinary --trunc ²",
        "fgl --theory mod-p --p -1",
        "fgl --theory ordinary --trunc +8",
        "fgl --theory ordinary --trunc 4 --trunc 6",
        "fgl --theory x --theory ordinary",
        "solve g.json --theory ordinary --qmax 4 --qmax two",
        "fgl --theory ordinary --",
        "solve - --theory ordinary",
        "fgl --theory",
        "fgl --theory ordinary --ell",
        "integrate g.json --theory ordinary --class",
        "integrate g.json --theory ordinary --class -h",
        "integrate g.json --theory ordinary --class --p",
        "integrate g.json --theory ordinary --class -1",
        "solve solve --theory ordinary",
        "integrate fgl --theory mult --class integrate",
        "solve a.json b.json --theory ordinary",
        "fgl g.json --theory ordinary",
        "check-formality --theory morava --p 2 --n 1 g.json --trunc 012",
        # past the interpreter's limit on int digits: the reader declines it
        pytest.param("fgl --theory ordinary --trunc " + "1" * 5000, id="fgl --trunc 5000-digits"),
    ],
)
def test_cli_reader_agrees_with_argparse_on_named_command_lines(command):
    _assert_reader_agrees(command.split(" ") if command else [])


def test_cli_builds_the_parser_once_and_only_for_a_declined_command_line(monkeypatch):
    from contextlib import redirect_stderr

    from gkmcalc import cli

    built = []
    real_build = cli._build_parser

    def counting_build():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counting_build)
    assert run_cli("fgl", "--theory", "ordinary", "--trunc", "4")[0] == 0
    assert built == []
    with redirect_stderr(io.StringIO()):
        assert run_cli("fgl", "--theory", "x")[0] == 2
        assert run_cli("fgl", "--theory", "ordinary", "--ell", "-1")[0] == 0
    assert built == [1]


def test_cli_unindexable_truncation_is_refused_without_traceback():
    import sys

    code, out, err = run_cli("fgl", "--theory", "morava", "--p", "2", "--n", "1", "--trunc", str(10**20))
    assert code == 2 and out == ""
    assert err == (
        f"error: --theory morava: truncation degree {10**20} is above the largest "
        f"supported degree {sys.maxsize}\n"
    )


def test_readme_library_block_runs():
    # a line whose comment starts with a Python literal (up to a colon)
    # states the value of its expression
    import ast

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        expr, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.split(":", 1)[0].strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, namespace) == expected, line
        checked.append(expected)
    assert checked == [(1, 1), True]


def _truncation_alarm(signum, frame):
    raise TimeoutError("a run at a huge --trunc outlived its 10 s deadline")


@pytest.mark.parametrize(
    "name, theory",
    [("cp2.json", ["--theory", "ordinary"]), ("cp1xcp1.json", ["--theory", "mod-p", "--p", "3"])],
    ids=["cp2-ordinary", "cp1xcp1-mod3"],
)
def test_a_huge_truncation_prints_what_a_small_one_does(name, theory):
    # a degree's slice lists only the total degrees it holds, so neither the
    # output nor the work grows with --trunc past what the degrees need
    previous = signal.signal(signal.SIGALRM, _truncation_alarm)
    signal.alarm(10)
    try:
        for command in ("solve", "check-formality"):
            small = run_cli(command, graph_path(name), *theory, "--trunc", "8")
            assert small[0] == 0 and small[1], command
            assert run_cli(command, graph_path(name), *theory, "--trunc", "100000") == small, command
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_nonnegative_mult_series_costs_its_ell_at_any_truncation():
    # C(ell, a) = 0 for a > ell >= 0, so [3]u under mult has three terms and
    # its closed form stops there, also at --trunc 10^12
    previous = signal.signal(signal.SIGALRM, _truncation_alarm)
    signal.alarm(10)
    try:
        small = run_cli("fgl", "--theory", "mult", "--ell", "3", "--trunc", "8")
        assert small[0] == 0 and "[3]u = 3*u - 3*b*u^2 + b^2*u^3\n" in small[1]
        assert run_cli("fgl", "--theory", "mult", "--ell", "3", "--trunc", str(10**12)) == small
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv", [
    ["check-formality", "cp2.json", "--theory", "ordinary", "--qmax", "8"],
    # cp2x2.json has doubled weights, so its lattice edges list multiples
    ["solve", "cp2x2.json", "--theory", "ordinary", "--qmax", "4"],
    ["solve", "cp1xcp1.json", "--theory", "mod-p", "--p", "3"],
], ids=["check-formality-cp2-ordinary", "solve-cp2x2-ordinary", "solve-cp1xcp1-mod3"])
def test_a_slice_asks_the_same_unit_exponents_at_every_truncation(argv, monkeypatch):
    # the solver, the lattice multiples and the formality prediction visit
    # only the total degrees in a slice, so --trunc past them costs nothing
    from gkmcalc.scalars import Theory

    calls = []
    real = Theory.unit_exponent
    monkeypatch.setattr(Theory, "unit_exponent", lambda *a: calls.append(1) or real(*a))
    command, name, *flags = argv
    runs = []
    for trunc in ("8", "1000000"):
        calls.clear()
        runs.append((run_cli(command, graph_path(name), *flags, "--trunc", trunc), len(calls)))
    assert runs[0][0][0] == 0 and runs[0][0][1]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("argv", [
    ["integrate", graph_path("cp2.json"), "--theory", "ordinary", "--class", "H2"],
    ["integrate", graph_path("cp2.json"), "--theory", "mod-p", "--p", "3", "--class", "H2"],
    ["integrate", graph_path("cp2.json"), "--theory", "morava", "--p", "2", "--n", "1", "--class", "H2"],
    ["fgl", "--theory", "morava", "--p", "2", "--n", "1"],
], ids=["integrate-ordinary", "integrate-mod3", "integrate-morava", "fgl-morava"])
def test_cli_out_of_memory_is_refused_without_traceback(argv):
    # a table of sys.maxsize entries cannot be asked for, so each run fails
    # at once, before it allocates anything
    import sys

    assert run_cli(*argv, "--trunc", str(sys.maxsize)) == (2, "", "error: out of memory\n")
