"""The acheck command line: verdict lines, flags, exit codes."""

from __future__ import annotations

import re

import pytest

from outlinecheck import cli, trace_from_lines, verify_trace, elaborate, parse_file

from _util import CORPUS


OK_LINE = re.compile(
    r"^\w+: ok \(decides=\d+, unfoldL=\d+, unfoldR=\d+, steps=\d+\)$")


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def test_corpus_all_ok_exit_zero(capsys):
    code, lines, _ = run(capsys, CORPUS)
    assert code == 0
    assert len(lines) == 5
    assert all(OK_LINE.match(ln) for ln in lines)
    assert [ln.split(":")[0] for ln in lines] == [
        "plus_total", "plus_determ", "plus0com", "plusscom", "pluscom"]


def test_replay_flag_reports_count(capsys):
    code, lines, _ = run(capsys, CORPUS, "--replay")
    assert code == 0
    assert lines[-1] == "replay: 5/5 ok"


def test_trace_files_written_and_verifiable(capsys, tmp_path):
    code, _, _ = run(capsys, CORPUS, "--trace", tmp_path)
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [f"plus.{n}.trace" for n in sorted(
        ["plus_total", "plus_determ", "plus0com", "plusscom", "pluscom"])]
    el = elaborate(parse_file(CORPUS.read_text()))
    lines = (tmp_path / "plus.plus_total.trace").read_text().splitlines()
    tr = trace_from_lines(lines, el.definitions)
    assert verify_trace((), el.goals["plus_total"], tr)


def test_unwritable_trace_path_exit_two(capsys, tmp_path):
    # a --trace directory that names a file fails before any check; a
    # trace file that names a directory fails after the verdicts, which
    # stand; either way one line names the path
    taken = tmp_path / "taken"
    taken.write_text("")
    code, lines, err = run(capsys, CORPUS, "--trace", taken)
    assert code == 2 and lines == []
    assert err.count("\n") == 1 and str(taken) in err
    blocked = tmp_path / "traces" / "plus.plus_total.trace"
    blocked.mkdir(parents=True)
    code, lines, err = run(capsys, CORPUS, "--trace", blocked.parent)
    assert code == 2 and len(lines) == 5
    assert err.count("\n") == 1 and str(blocked) in err


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "does-not-exist.thm")
    assert code == 2
    assert "no such file" in err


def test_parse_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.thm"
    bad.write_text("Kind nat type\n")
    code, _, err = run(capsys, bad)
    assert code == 2
    assert "bad.thm" in err


def test_bad_file_keeps_earlier_verdicts(capsys, tmp_path):
    bad = tmp_path / "bad.thm"
    bad.write_text("Kind nat type\n")
    code, lines, err = run(capsys, CORPUS, bad)
    assert code == 2
    assert lines[0] == f"== {CORPUS}"
    assert len(lines) == 6
    assert all(OK_LINE.match(ln) for ln in lines[1:])
    assert err.count("\n") == 1 and "bad.thm" in err


def test_non_utf8_file_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.thm"
    bad.write_bytes(b"\xff\xfeKind nat type.\n")
    code, _, err = run(capsys, bad)
    assert code == 2
    assert err.count("\n") == 1 and "bad.thm" in err


def test_recursion_overflow_exit_two(capsys, tmp_path):
    deep = tmp_path / "deep.thm"
    deep.write_text("Kind nat type.\nType z nat.\nType s nat -> nat.\n"
                    "Define is_nat : nat -> prop by\n"
                    "  is_nat z ;\n  is_nat (s N) := is_nat N.\n"
                    f"Theorem deep : is_nat {'(s ' * 200}z{')' * 200}.\n"
                    'ship "(induction 0 0 202)".\n')
    code, _, err = run(capsys, deep)
    assert code == 2
    assert err.count("\n") == 1 and "deep.thm" in err


def test_failing_theorem_exit_one(capsys, tmp_path):
    f = tmp_path / "f.thm"
    f.write_text("Kind nat type.\nType z nat.\n"
                 'Theorem t : z = z.\nship "(induction 0 0 0)".\n'
                 'Theorem bad : forall X, X = z.\nship "(induction 3 3 3)".\n')
    code, lines, _ = run(capsys, f)
    assert code == 1
    assert lines[0].startswith("t: ok")
    assert lines[1].startswith("bad: fail")


def test_budget_verdict(capsys):
    code, lines, _ = run(capsys, CORPUS, "--max-steps", "50")
    assert code == 1
    assert any(ln.endswith(": budget") for ln in lines)


def test_bad_flags_exit_two(capsys):
    assert run(capsys, CORPUS, "--max-steps", "0")[0] == 2


def test_stop_on_failure_stops(capsys, tmp_path):
    f = tmp_path / "f.thm"
    f.write_text("Kind nat type.\nType z nat.\n"
                 'Theorem bad : forall X, X = z.\nship "(induction 3 3 3)".\n'
                 'Theorem t : z = z.\nship "(induction 0 0 0)".\n')
    code, lines, _ = run(capsys, f, "--stop-on-failure")
    assert code == 1
    assert len(lines) == 1


def test_multiple_files_get_headers_and_jobs(capsys, tmp_path):
    g = tmp_path / "g.thm"
    g.write_text("Kind nat type.\nType z nat.\n"
                 'Theorem t : z = z.\nship "(induction 0 0 0)".\n')
    code, lines, _ = run(capsys, CORPUS, g)
    assert code == 0
    assert sum(1 for ln in lines if ln.startswith("== ")) == 2


def test_verdicts_are_deterministic(capsys):
    first = run(capsys, CORPUS)
    second = run(capsys, CORPUS)
    assert first == second
