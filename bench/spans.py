"""Spans around calls into outlinecheck's public functions.

A span records name, start, end, parent span and item id.  Spans live in
memory and are written out once, when the run ends.  They are recorded
only at the public entry point of each layer, from the benchmark's own
code: in-process by calling wrapped functions, and in an `acheck`
subprocess by rebinding the module attributes the CLI and the session
driver look up at call time.  Work below an entry point (unify, syntax,
fpc, and trace finalisation inside `kernel.check`) counts as that layer's
self time.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import outlinecheck
from outlinecheck import UNKNOWN

# span name -> the per-layer metric its self time is added to
SPAN_METRIC = {
    "cli.main": "cli.process_ms",
    "frontend.parse_file": "frontend.parse_ms",
    "frontend.elaborate": "frontend.elaborate_ms",
    "outline.parse_outline": "outline.cert_ms",
    "outline.initial_state": "outline.cert_ms",
    "kernel.check": "kernel.check_ms",
    "trace.trace_to_lines": "trace.to_lines_ms",
    "trace.trace_from_lines": "trace.from_lines_ms",
    "replay.verify_trace": "replay.verify_ms",
    "replay.explain_failure": "replay.verify_ms",
    "oracle.eval_ground": "oracle.eval_ms",
}


def count_records(node) -> int:
    """Nodes of a trace tree, counted without recursion."""
    n, stack = 0, [node]
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(x.children)
    return n


def _universe(atom) -> int:
    seen, stack = set(), list(atom.args)
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(getattr(t, "args", ()))
    return len(seen)


# what each span notes about its call, computed after the span has ended
def _note_parse(args, out):
    return {"bytes": len(args[0].encode("utf-8"))}


def _note_check(args, out):
    return {"outcome": type(out).__name__, "steps": out.steps}


def _note_to_lines(args, out):
    return {"records": len(out), "bytes": sum(len(s) + 1 for s in out)}


def _note_from_lines(args, out):
    return {"records": len(args[0]), "bytes": sum(len(s) + 1 for s in args[0])}


def _note_verify(args, out):
    ok = out if isinstance(out, bool) else out is None
    return {"records": count_records(args[2]), "ok": ok}


def _note_eval(args, out):
    defs = tuple(sorted(d.name.name for d in args[0]))
    return {"universe": [list(defs), _universe(args[1])],
            "unknown": out is UNKNOWN}


# (span name, module, function, note) for every public entry point timed
ENTRY_POINTS = [
    ("frontend.parse_file", "frontend", "parse_file", _note_parse),
    ("frontend.elaborate", "frontend", "elaborate", None),
    ("outline.parse_outline", "outline", "parse_outline", None),
    ("outline.initial_state", "outline", "initial_state", None),
    ("kernel.check", "kernel", "check", _note_check),
    ("trace.trace_to_lines", "trace", "trace_to_lines", _note_to_lines),
    ("trace.trace_from_lines", "trace", "trace_from_lines", _note_from_lines),
    ("replay.verify_trace", "replay", "verify_trace", _note_verify),
    ("replay.explain_failure", "replay", "explain_failure", _note_verify),
    ("oracle.eval_ground", "oracle", "eval_ground", _note_eval),
]


class Tracer:
    """Records spans; `item` is stamped on every span opened while set."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, item, note]
        self._stack: list[int] = []
        self.item = None

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, out)
            return out

        return traced

    def extend(self, spans: list[list], item) -> None:
        """Append spans recorded by another process, re-rooted and stamped
        with this process's item id."""
        base = len(self.spans)
        for name, start, end, parent, _, note in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, item, note])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def layers(tracer: Tracer | None = None) -> SimpleNamespace:
    """The public entry points, wrapped in spans when a tracer is given."""
    ns = SimpleNamespace()
    for name, mod, fn, note in ENTRY_POINTS:
        f = getattr(getattr(outlinecheck, mod), fn)
        setattr(ns, fn, tracer.wrap(name, f, note) if tracer else f)
    return ns


def instrument_cli(tracer: Tracer):
    """Rebind the names `acheck` calls through to span-recording wrappers
    and return the wrapped `cli.main`."""
    from outlinecheck import cli, frontend, kernel
    wrapped = {name: tracer.wrap(name, getattr(getattr(outlinecheck, mod), fn), note)
               for name, mod, fn, note in ENTRY_POINTS}
    cli.parse_file = wrapped["frontend.parse_file"]
    cli.trace_to_lines = wrapped["trace.trace_to_lines"]
    cli.explain_failure = wrapped["replay.explain_failure"]
    frontend.elaborate = wrapped["frontend.elaborate"]
    frontend.parse_outline = wrapped["outline.parse_outline"]
    frontend.initial_state = wrapped["outline.initial_state"]
    kernel.check = wrapped["kernel.check"]
    return tracer.wrap("cli.main", cli.main)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], items: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass over `items` items.

    Times are self times and, like counts, are given per item.  The ratios
    kernel.capped_steps_frac (steps in checks that hit the cap) and
    kernel.records_per_step (records in accepted traces) both have all
    kernel steps of the pass as their base.  trace.records and trace.bytes
    count what trace_to_lines writes plus what trace_from_lines reads.
    """
    own = self_times(spans)
    ms = {m: 0.0 for m in SPAN_METRIC.values()}
    steps = capped_steps = records_accepted = 0
    outcomes = {"Accepted": 0, "Rejected": 0, "OutOfBudget": 0}
    ser_records = ser_bytes = 0
    parse_bytes = 0
    rep_records = rep_rejected = 0
    queries = unknown = 0
    universes = set()
    for (name, _, _, _, _, note), t in zip(spans, own):
        ms[SPAN_METRIC[name]] += t * 1e3
        note = note or {}
        if name == "frontend.parse_file":
            parse_bytes += note["bytes"]
        elif name == "kernel.check":
            outcomes[note["outcome"]] += 1
            steps += note["steps"]
            if note["outcome"] == "OutOfBudget":
                capped_steps += note["steps"]
        elif name == "trace.trace_to_lines":
            records_accepted += note["records"]
            ser_records += note["records"]
            ser_bytes += note["bytes"]
        elif name == "trace.trace_from_lines":
            ser_records += note["records"]
            ser_bytes += note["bytes"]
        elif name.startswith("replay."):
            rep_records += note["records"]
            rep_rejected += not note["ok"]
        elif name == "oracle.eval_ground":
            queries += 1
            unknown += note["unknown"]
            universes.add(json.dumps(note["universe"]))
    n = max(items, 1)
    ser_ms = ms["trace.to_lines_ms"] + ms["trace.from_lines_ms"]
    out = {k: v / n for k, v in ms.items()}
    out.update({
        "kernel.steps": steps / n,
        "kernel.steps_per_s": steps / (ms["kernel.check_ms"] / 1e3) if steps else 0.0,
        "kernel.accepted": outcomes["Accepted"] / n,
        "kernel.rejected": outcomes["Rejected"] / n,
        "kernel.capped": outcomes["OutOfBudget"] / n,
        "kernel.capped_steps_frac": capped_steps / steps if steps else 0.0,
        "kernel.records_per_step": records_accepted / steps if steps else 0.0,
        "trace.records": ser_records / n,
        "trace.bytes": ser_bytes / n,
        "trace.bytes_per_s": ser_bytes / (ser_ms / 1e3) if ser_bytes else 0.0,
        "replay.records_per_s": (rep_records / (ms["replay.verify_ms"] / 1e3)
                                 if rep_records else 0.0),
        "replay.rejected": rep_rejected,
        "oracle.queries": queries / n,
        "oracle.universes": len(universes) / n,
        "oracle.unknown": unknown,
        "frontend.bytes_per_s": (parse_bytes / (ms["frontend.parse_ms"] / 1e3)
                                 if parse_bytes else 0.0),
    })
    return out
