"""The benchmark's workloads: lists of CLI jobs, each with its oracle check.

Solver jobs run at --qmax 6 and at the smallest legal --trunc; integrate jobs
run at the precision budget of the Euler-order rule.  A seed draws a vertex
relabelling for every job and the vertex of each point class.  Solver jobs
are renamed in place: their cost depends on vertex order and coordinates
(the integer path stalls on some orders), so reordering them would make the
seed, not the program, set the time.  No draw changes an oracle answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import corpus
import oracle
from oracle import K1P2, K1P3, K2P2, MOD3, MOD5, MULT, ORDINARY, Theory

QMAX = 6


@dataclass(frozen=True)
class JobSpec:
    command: str  # fgl, solve, check-formality or integrate
    theory: Theory
    graph: str | None = None  # corpus graph name
    cls: str | None = None  # integrate: "pt" or "Hn"
    trunc: int | None = None  # fgl: the truncation degree
    known_failure: str | None = None  # why it fails at the seed commit

    @property
    def id(self) -> str:
        parts = [self.command, self.theory.label]
        if self.graph:
            parts.append(self.graph)
        if self.cls:
            parts.append(self.cls)
        if self.command == "fgl":
            parts.append(f"D{self.trunc}")
        return " ".join(parts)


@dataclass(eq=False)
class Job:
    """A materialized job: the argv for gkmcalc.cli.main and its check."""

    spec: JobSpec
    argv: list[str]
    graph: corpus.Graph | None
    expected: dict[int, int] | None = None

    @property
    def id(self) -> str:
        return self.spec.id

    def check(self, rc: int, out: str) -> str | None:
        """None when the exit code and the output are right, else a reason."""
        spec = self.spec
        if rc != 0:
            return f"exit code {rc}"
        if spec.command == "solve":
            lattice = spec.theory.kind in ("ordinary", "mult")
            return oracle.check_solve(out, self.graph, self.expected, lattice)
        if spec.command == "check-formality":
            return oracle.check_formality(out, self.expected)
        if spec.command == "integrate":
            return oracle.check_integral(out)
        return oracle.check_fgl(out, spec.theory)


# ---------------------------------------------------------------------------
# the job lists

_FIELD_THEORIES = (K1P2, K1P3, K2P2, MOD3)
_FIELD_GRAPHS = ("CP4", "Gr2_4", "Fl3", "CP2", "CP3", "golden-cp1xcp1")
# Fl(4) takes a second or more per job; two theories keep a pass short
# enough for three passes in a run
_FIELD_FL4_THEORIES = (K1P2, MOD3)
# weights scaled by 3 stay formal at p = 2, and their kernel ideals come from
# [3]-series, so the primitive-kernel re-solve runs
_FIELD_SCALED = ("CP2x3", "CP3x3")

_LATTICE_ORDINARY = ("CP4", "Gr2_4", "Fl3", "Fl4")
_LATTICE_SMALL = ("CP2", "CP3", "golden-cp1", "golden-cp2", "golden-cp1xcp1")
_LATTICE_SCALED = ("CP2x2", "CP3x2", "CP2x3", "CP3x3")

_LOCALIZE_GRAPHS = ("CP2", "CP3", "CP4", "Gr2_4", "Fl3", "Fl4")
_LOCALIZE_THEORIES = (ORDINARY, K1P2, K1P3, K2P2, MOD5)
_FGL_LAWS = ((K1P2, 24), (K1P2, 32), (K2P2, 32), (K1P3, 27))

KNOWN_STALL = "integer Smith reduction stalls on the index-3 lattice (coefficient blow-up)"
KNOWN_SWAP_STALL = (
    "integer Smith reduction stalls after a signed coordinate swap (coefficient blow-up)"
)
KNOWN_MULT_SCALARS = "mult scalars are never extended: no unit leading coefficient (exit 4)"
KNOWN_BUDGET = (
    "the precision budget ignores the class's own order: precision exhausted "
    "before exponent 0 (exit 4); D=40 succeeds"
)


def _field_solve() -> list[JobSpec]:
    pairs = [("Fl4", th) for th in _FIELD_FL4_THEORIES]
    pairs += [(g, th) for g in _FIELD_GRAPHS for th in _FIELD_THEORIES]
    pairs += [(g, th) for g in _FIELD_SCALED for th in (K1P2, K2P2)]
    return [JobSpec(cmd, th, g) for cmd in ("solve", "check-formality") for g, th in pairs]


def _lattice_solve() -> list[JobSpec]:
    specs = [JobSpec("solve", ORDINARY, g) for g in _LATTICE_ORDINARY]
    specs += [JobSpec("solve", th, g) for g in _LATTICE_SCALED for th in (ORDINARY, MULT)]
    specs += [JobSpec("solve", th, g) for g in _LATTICE_SMALL for th in (ORDINARY, MULT)]
    specs += [JobSpec("check-formality", th, "CP4") for th in (ORDINARY, MULT)]
    specs.append(JobSpec("solve", ORDINARY, "Fl3-index3"))
    specs.append(JobSpec("solve", MULT, "Fl3-index3", known_failure=KNOWN_STALL))
    specs.append(JobSpec("solve", MULT, "CP3x2-swap", known_failure=KNOWN_SWAP_STALL))
    return specs


def _localize() -> list[JobSpec]:
    specs = []
    for th in _LOCALIZE_THEORIES:
        for g in _LOCALIZE_GRAPHS:
            specs.append(JobSpec("integrate", th, g, "pt"))
        for g in ("CP2", "CP3", "CP4"):
            failure = KNOWN_BUDGET if (th, g) == (K2P2, "CP4") else None
            specs.append(JobSpec("integrate", th, g, "Hn", known_failure=failure))
    for g in _LOCALIZE_GRAPHS:
        specs.append(JobSpec("integrate", MULT, g, "pt", known_failure=KNOWN_MULT_SCALARS))
    specs += [JobSpec("fgl", th, trunc=d) for th, d in _FGL_LAWS]
    return specs


WORKLOADS = {
    "field-solve": _field_solve,
    "lattice-solve": _lattice_solve,
    "localize": _localize,
}


def specs(workload: str, known_failures: bool = False) -> list[JobSpec]:
    """The workload's jobs that pass at the seed commit, or with
    known_failures=True, the ones that fail there."""
    return [s for s in WORKLOADS[workload]() if (s.known_failure is not None) == known_failures]


# ---------------------------------------------------------------------------
# materializing jobs for one seed


def materialize(spec_list: list[JobSpec], seed: int, workdir: Path) -> list[Job]:
    """Draw each job's transforms from the seed and write its graph file."""
    rng = random.Random(seed)
    jobs = []
    for idx, spec in enumerate(spec_list):
        if spec.command == "fgl":
            argv = ["fgl", *spec.theory.flags(spec.trunc), "--ell", str(spec.theory.p)]
            jobs.append(Job(spec, argv, None))
            continue
        g = corpus.graph(spec.graph)
        perm = corpus.random_permutation(rng, len(g.vertices))
        if spec.command == "integrate":
            if spec.cls == "pt":
                cls = corpus.point_class(g, rng.randrange(len(g.vertices)))
            else:
                cls = corpus.hyperplane_power(g)
            degree = cls[0]
            classes = {spec.cls: (degree, corpus.permute_class(cls[1], perm))}
            g = corpus.relabelled(g, perm)
        else:
            # a solver's cost swings several-fold with vertex order and
            # coordinates, so solver jobs are only renamed in place
            classes = {}
            g = corpus.renamed(g, perm)
        path = workdir / f"job{idx}.json"
        path.write_text(json.dumps(g.document(classes)))
        if spec.command == "integrate":
            trunc = oracle.integrate_trunc(spec.theory, g, degree)
            argv = ["integrate", str(path), *spec.theory.flags(trunc), "--class", spec.cls]
            jobs.append(Job(spec, argv, g))
        else:
            trunc = oracle.solver_trunc(spec.theory, g, QMAX)
            argv = [spec.command, str(path), *spec.theory.flags(trunc), "--qmax", str(QMAX)]
            expected = oracle.predicted_ranks(spec.theory, g, trunc, QMAX)
            jobs.append(Job(spec, argv, g, expected))
    return jobs
