"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Three items per batch, one set-up, a probe that stops at 10, and no
    pinning of the test process."""
    monkeypatch.setattr(run, "pin_one_core", lambda: (1, 0))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    probe = workloads.max_certified_n
    monkeypatch.setattr(workloads, "max_certified_n", lambda L: probe(L, cap=10))
    for W in workloads.WORKLOADS.values():
        def first_three(self, L, batches=W.batches):
            return (b[:3] for b in batches(self, L))
        monkeypatch.setattr(W, "batches", first_three)


def bench(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units(capsys, workload, trace):
    out = bench(capsys, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_planted_wrong_verdict_is_an_error(capsys, monkeypatch):
    prepare = workloads.Session.prepare

    def planted(self, L):
        prepare(self, L)
        self.expected["plus.thm"]["plus_total"] = "fail"

    monkeypatch.setattr(workloads.Session, "prepare", planted)
    out = bench(capsys, "session", 0)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] == 1
    assert out["metrics"]["correct_frac"]["value"] == 0


def test_exception_is_counted_not_raised(capsys, monkeypatch):
    run_item = workloads.Deep.run
    calls = []

    def flaky(self, spec, L):
        calls.append(spec)
        if len(calls) == 1:
            raise RecursionError("planted")
        return run_item(self, spec, L)

    monkeypatch.setattr(workloads.Deep, "run", flaky)
    out = bench(capsys, "deep", 0)
    assert (out["failed"], out["attempted"]) == (1, 3)
    assert out["metrics"]["correct_frac"]["value"] == pytest.approx(2 / 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(SPEC["command"] + ["--workload", "grid", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


# theorems/list.thm names its empty list `empty` for this reason
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a constructor named nil is written as the"
                   " absent-field marker, so its trace does not re-parse")
def test_constructor_named_nil_round_trips():
    from outlinecheck import (
        elaborate, parse_file, run_session, trace_from_lines, trace_to_lines,
        verify_trace,
    )
    text = (BENCH / "theorems" / "list.thm").read_text(encoding="utf-8")
    file = parse_file(text.replace("empty", "nil"))
    defs = elaborate(file).definitions
    for r in run_session(file):
        if r.outcome == "ok":
            tree = trace_from_lines(trace_to_lines(r.trace), defs)
            assert verify_trace(r.lemmas, r.goal, tree), r.name
