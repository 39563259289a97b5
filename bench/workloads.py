"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next item starts when
the previous one has its verdict.  Items come in batches, and a run always
ends on a batch boundary, so every run holds whole copies of the same
multiset of item costs and the seed changes only the order and details of
equal cost.  Each run is its own process, because `oracle._SAT_CACHE`, the
`sym` interning table and the fresh-variable counters are module globals:
a second run in one process would time cache lookups instead of the work.

* session -- repeated `acheck --trace DIR --replay` invocations over
  corpus/plus.thm and the list, order and parity files in theorems/, one
  subprocess at a time.  This is the user's path; start-up, `frontend` and
  `cli` are a large share of it and a small share everywhere else.
* grid -- every `(induction d uA uS)` cell in [0,3]^3 for each theorem of
  corpus/plus.thm, earlier theorems as lemmas, at a fixed step cap.  Kernel
  search does nearly all the work and few cells produce a trace.
* deep -- true and false `plus a b c` and `is_nat n` facts over large
  numerals under `(induction 0 0 K)`.  Search has almost no alternatives
  but traces are long and carry large formulas, so `trace` and `replay`
  dominate.
* ground -- batches of every ground `plus`/`is_nat` query over numerals
  up to 2, each decided by the kernel and by `eval_ground`.  Each batch
  renames the definitions, so its saturations start cold, as in a fresh
  process; the oracle takes nearly all the time.

Known answers never come from the layer under test: session verdicts and
grid cells are frozen from the program this benchmark was written against
(expected/), deep and ground facts are judged by arithmetic.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from outlinecheck import (
    OUTLINE_FPC, UNKNOWN, Accepted, LemmaName, MuAtom, Rejected,
    ResourceLimits, con, sym,
)

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus" / "plus.thm"
SCRATCH = ROOT / ".bench_run"


@dataclass
class Judged:
    verdict: str  # "ok" | "fail" | "budget"
    error: Optional[str] = None


def num(n: int):
    t = con("z")
    for _ in range(n):
        t = con("s", t)
    return t


def certify(L, lemmas, goal, cert_text: str, defs, max_steps: int):
    """Check a goal and, when accepted, serialise, re-parse and replay its
    trace.  Returns the verdict and whether the proof replayed."""
    table = tuple(ix.name for ix, _ in lemmas)
    cert = L.initial_state(L.parse_outline(cert_text), table)
    r = L.check(lemmas, goal, cert, OUTLINE_FPC, ResourceLimits(max_steps))
    if isinstance(r, Accepted):
        lines = L.trace_to_lines(r.trace)
        return "ok", L.verify_trace(lemmas, goal, L.trace_from_lines(lines, defs))
    return ("fail" if isinstance(r, Rejected) else "budget"), None


def judge_certified(raw, expected: str) -> Judged:
    verdict, replayed = raw
    if verdict == "ok" and not replayed:
        return Judged(verdict, "accepted proof does not replay from its text")
    if verdict != "budget" and verdict != expected:
        return Judged(verdict, f"verdict {verdict}, expected {expected}")
    return Judged(verdict)


class Elab:
    """A theorem file elaborated once, with each theorem's goal and the
    earlier theorems as its lemmas."""

    def __init__(self, L, text: str) -> None:
        el = L.elaborate(L.parse_file(text))
        self.defs = el.definitions
        self.names = [t.name for t in el.theorems]
        self.goals = el.goals

    def lemmas(self, names) -> list:
        return [(LemmaName(sym(n)), self.goals[n]) for n in names]


class Workload:
    name = ""
    files: list[Path] = []         # parsed and elaborated at set-up
    setup_module = "outlinecheck"  # imported at set-up
    rss_of = resource.RUSAGE_SELF  # the process that runs the program
    profile_path: Optional[Path] = None

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer

    def prepare(self, L) -> None:
        raise NotImplementedError

    def batches(self, L) -> Iterator[list]:
        raise NotImplementedError

    def run(self, spec, L):
        raise NotImplementedError

    def judge(self, spec, raw, L) -> Judged:
        raise NotImplementedError


# ---------------------------------------------------------------------------


PROFILED_ACHECK = """\
import cProfile, sys
from outlinecheck import cli
prof = cProfile.Profile()
code = prof.runcall(cli.main, sys.argv[2:])
prof.dump_stats(sys.argv[1])
sys.exit(code)
"""


class Session(Workload):
    name = "session"
    files = [CORPUS] + [BENCH / "theorems" / f
                        for f in ("list.thm", "order.thm", "parity.thm")]
    setup_module = "outlinecheck.cli"
    rss_of = resource.RUSAGE_CHILDREN

    def prepare(self, L) -> None:
        with open(BENCH / "expected" / "session.json", encoding="utf-8") as f:
            self.expected = json.load(f)
        self.elab = {}
        for p in self.files:
            self.elab[p.name] = Elab(L, p.read_text(encoding="utf-8"))
        self.tracedir = SCRATCH / f"acheck-{self.name}-{self.seed}"

    def batches(self, L):
        rng = random.Random(self.seed)
        while True:
            order = list(self.files)
            rng.shuffle(order)
            yield [order]

    def run(self, spec, L):
        self.tracedir.mkdir(parents=True, exist_ok=True)
        for p in self.tracedir.iterdir():
            p.unlink()
        args = ["--trace", str(self.tracedir), "--replay"] + [str(p) for p in spec]
        if self.profile_path is not None:
            cmd = [sys.executable, "-c", PROFILED_ACHECK, str(self.profile_path)] + args
        elif self.tracer is None:
            cmd = [sys.executable, "-m", "outlinecheck.cli"] + args
        else:
            spans_out = self.tracedir.with_suffix(".spans.json")
            cmd = [sys.executable, str(BENCH / "acheck_traced.py"),
                   str(spans_out)] + args
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           env=child_env(), timeout=120)
        if self.tracer is not None:
            with open(spans_out, encoding="utf-8") as f:
                self.tracer.extend(json.load(f), self.tracer.item)
        return p.returncode, p.stdout, p.stderr

    def judge(self, spec, raw, L) -> Judged:
        code, out, err = raw
        got: dict[str, dict[str, str]] = {}
        replay: dict[str, str] = {}
        current = None
        for line in out.splitlines():
            if line.startswith("== "):
                current = Path(line[3:]).name
                got[current] = {}
            elif line.startswith("replay: "):
                replay[current] = line[len("replay: "):]
            elif m := re.match(r"(\S+): (\S+)", line):
                # verdict words are compared case-insensitively
                got[current][m.group(1)] = m.group(2).lower()
        verdicts = [v for g in got.values() for v in g.values()]
        verdict = ("budget" if "budget" in verdicts else
                   "ok" if verdicts and all(v == "ok" for v in verdicts) else "fail")
        want_code = 0 if all(v == "ok" for e in self.expected.values()
                             for v in e.values()) else 1
        if code != want_code:
            return Judged(verdict, f"acheck exit {code}, expected {want_code}:"
                                   f" {err.strip()[-200:]}")
        for p in spec:
            want = self.expected[p.name]
            have = got.get(p.name, {})
            if verdict != "budget" and have != want:
                return Judged(verdict, f"{p.name}: verdicts {have}, expected {want}")
            accepted = [n for n, v in have.items() if v == "ok"]
            if replay.get(p.name) != f"{len(accepted)}/{len(accepted)} ok":
                return Judged(verdict, f"{p.name}: replay {replay.get(p.name)}")
            el = self.elab[p.name]
            for n in accepted:
                tf = self.tracedir / f"{p.stem}.{n}.trace"
                lines = tf.read_text(encoding="utf-8").splitlines()
                earlier = [m for m in el.names[:el.names.index(n)] if have.get(m) == "ok"]
                tree = L.trace_from_lines(lines, el.defs)
                if not L.verify_trace(el.lemmas(earlier), el.goals[n], tree):
                    return Judged(verdict, f"{tf.name} does not replay")
        return Judged(verdict)


class Grid(Workload):
    name = "grid"
    files = [CORPUS]
    CAP = 20_000
    BOUND = 3

    def prepare(self, L) -> None:
        self.el = Elab(L, CORPUS.read_text(encoding="utf-8"))
        with open(BENCH / "expected" / "grid.json", encoding="utf-8") as f:
            frozen = json.load(f)
        if frozen["cap"] != self.CAP:
            raise ValueError("expected/grid.json was frozen at another step cap")
        self.expected = {}
        for name, row in frozen["cells"].items():
            cells = itertools.product(range(self.BOUND + 1), repeat=3)
            for cell, v in zip(cells, row.split()):
                self.expected[(name,) + cell] = v

    def batches(self, L):
        rng = random.Random(self.seed)
        cells = [(n, d, a, s) for n in self.el.names
                 for d, a, s in itertools.product(range(self.BOUND + 1), repeat=3)]
        while True:
            rng.shuffle(cells)
            yield list(cells)

    def run(self, spec, L):
        name, d, a, s = spec
        el = self.el
        lemmas = el.lemmas(el.names[:el.names.index(name)])
        return certify(L, lemmas, el.goals[name], f"(induction {d} {a} {s})",
                       el.defs, self.CAP)

    def judge(self, spec, raw, L) -> Judged:
        verdict = raw[0]
        frozen = self.expected[spec]
        if frozen != "budget":
            return judge_certified(raw, frozen)
        # a cell capped at the seed may be decided later, but only in line
        # with budget monotonicity against the frozen decided cells
        name, cell = spec[0], spec[1:]
        for other, v in self.expected.items():
            if other[0] != name:
                continue
            below = all(x <= y for x, y in zip(other[1:], cell))
            above = all(x >= y for x, y in zip(other[1:], cell))
            if verdict == "fail" and v == "ok" and below:
                return Judged(verdict, f"{spec} fails but {other} is accepted")
            if verdict == "ok" and v == "fail" and above:
                return Judged(verdict, f"{spec} is accepted but {other} fails")
        return judge_certified(raw, verdict)


class Deep(Workload):
    name = "deep"
    files = [CORPUS]
    MAX_STEPS = 1_000_000

    def prepare(self, L) -> None:
        self.el = Elab(L, CORPUS.read_text(encoding="utf-8"))

    def batches(self, L):
        # Per batch, by cost: five cheap facts (false plus facts at a = 10..30
        # and a true one at a = 10), four copies of is_nat 30 in the middle,
        # so the median never falls between two sizes, then true plus at
        # a = 20, is_nat 45 and three true plus facts at a = 30, which hold
        # the tail.  Items stay short so that a change of host speed within
        # one item skews little of the run.  Every size is certified by the
        # program this benchmark was written against, which hits the
        # recursion limit on plus at a = 80 and on is_nat at n = 150.
        rng = random.Random(self.seed)
        while True:
            facts = [("plus", a, b, a + b + rng.choice((-1, 1)))
                     for a, b in zip((10, 15, 20, 30), rng.choices(range(4), k=4))]
            facts += [("plus", 10, b, 10 + b) for b in rng.choices(range(4), k=1)]
            facts += [("is_nat", 30)] * 4
            facts += [("plus", 20, b, 20 + b) for b in rng.choices(range(4), k=1)]
            facts += [("is_nat", 45)]
            facts += [("plus", 30, b, 30 + b) for b in rng.sample(range(4), 3)]
            rng.shuffle(facts)
            yield facts

    def run(self, spec, L):
        return certify_fact(L, self.el.defs, spec, self.MAX_STEPS)

    def judge(self, spec, raw, L) -> Judged:
        return judge_certified(raw, "ok" if fact_holds(spec) else "fail")


def fact_atom(defs, spec, suffix: str = "") -> MuAtom:
    return MuAtom(defs[spec[0] + suffix], tuple(num(n) for n in spec[1:]))


def fact_holds(spec) -> bool:
    return spec[0] == "is_nat" or spec[1] + spec[2] == spec[3]


def certify_fact(L, defs, spec, max_steps: int):
    # the first argument bounds the right unfolds a proof needs
    k = spec[1] + 2
    return certify(L, [], fact_atom(defs, spec), f"(induction 0 0 {k})",
                   defs, max_steps)


class Ground(Workload):
    name = "ground"
    files = [CORPUS]
    FUEL = 40
    TOP = 2  # largest numeral in a query

    _rounds = itertools.count()  # fresh definition names across passes

    def prepare(self, L) -> None:
        self.text = CORPUS.read_text(encoding="utf-8")
        n = range(self.TOP + 1)
        self.facts = ([("plus", a, b, c) for a in n for b in n for c in n]
                      + [("is_nat", a) for a in n])

    def batches(self, L):
        # Every batch holds the same queries: all of plus and is_nat over
        # numerals up to TOP.  The first query of each universe {0..n} in
        # the seeded order pays for its cold saturation.
        rng = random.Random(self.seed)
        while True:
            suffix = f"_g{next(self._rounds)}"
            text = re.sub(r"\b(plus|is_nat)\b", rf"\1{suffix}", self.text)
            defs = L.elaborate(L.parse_file(text)).definitions
            batch = [(defs, suffix, f) for f in self.facts]
            rng.shuffle(batch)
            yield batch

    def run(self, spec, L):
        defs, suffix, fact = spec
        atom = fact_atom(defs, fact, suffix)
        kernel = certify(L, [], atom, "(induction 0 0 8)", defs, 1_000_000)
        return kernel, L.eval_ground(list(defs.values()), atom, self.FUEL)

    def judge(self, spec, raw, L) -> Judged:
        kernel, oracle = raw
        truth = fact_holds(spec[2])
        j = judge_certified(kernel, "ok" if truth else "fail")
        if j.error is None and oracle is not UNKNOWN and oracle is not truth:
            return Judged(j.verdict, f"oracle says {oracle} for {spec[2]}")
        if oracle is UNKNOWN:
            return Judged("budget", j.error)
        return j


WORKLOADS = {w.name: w for w in (Session, Grid, Deep, Ground)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def max_certified_n(L, cap: int = 80) -> int:
    """Largest numeral in the series 10, 20, 40, ... up to `cap` at which
    both `plus n 1 n+1` and `is_nat n` are checked, serialised, re-parsed
    and replayed without error.  The series stops at the first failure."""
    el = Elab(L, CORPUS.read_text(encoding="utf-8"))
    best, n = 0, 10
    while n <= cap:
        for spec in (("plus", n, 1, n + 1), ("is_nat", n)):
            try:
                verdict, replayed = certify_fact(L, el.defs, spec, 10_000_000)
            except Exception:  # RecursionError among others: the limit found
                return best
            if verdict != "ok" or not replayed:
                return best
        best, n = n, n * 2
    return best
