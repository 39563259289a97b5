"""The acheck command line: verdict lines, flags, exit codes."""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import outlinecheck
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


# -- the trace files of the four theorem files, byte for byte.  Eigenvariable
# numbers depend on everything checked before in the process, so the files
# are written by one fresh interpreter, checked in this order.

_PINNED_FILES = ("corpus/plus.thm", "bench/theorems/list.thm",
                 "bench/theorems/order.thm", "bench/theorems/parity.thm")
_PINNED_SHA256 = {
    "list.app_assoc.trace":
        "6cb2391a89d0cf79698dba574538829e51e962e81b8ee84effa9aa0ebdc33128",
    "list.app_determ.trace":
        "c19ca8eccda01ba8a0f340959b75763c09c09c7188658cf185068ceaa8b8f1b5",
    "list.app_nil.trace":
        "ba8670c9cb29512534640efdffd8d8bb9c3f5b1f3f60edb0969aa773eece9a19",
    "list.app_total.trace":
        "82a527c52df9a71a5077c78459126f229c5c8c4dd392a74c514755d879e65263",
    "order.le_refl.trace":
        "e2216572c0a9dd129d988621355682d4fa130c124238db72e914d2ee775ca550",
    "order.le_trans.trace":
        "7f17cd3acf6f16b576d63aa7e1c982f0f81edba7231aa243b100a5995808dd40",
    "order.lt_irrefl.trace":
        "3471cffa6f0bfe1458c29e3c249c1ebf14af0123d1c9150319441412d72ac838",
    "order.lt_le.trace":
        "b34a73e7e860eca54f7a470bd82501bb22e880c50fad469ec654438109467a18",
    "order.lt_succ.trace":
        "a025ec4682c5ec9a359c0542d082dfad8d845d78d7ba2d73ec03913c4b323f84",
    "order.lt_trans.trace":
        "d06fa3c94221f934be22df30c5a0dfa213d138d12fc13e5d10b15ea736ad6646",
    "order.lt_z_false.trace":
        "7f6c6e7734e90793239816c5dd3d6c50a6ac8dbf55970912d2b97b35981028ae",
    "parity.even_is_nat.trace":
        "d04ba4bdcb63935984e975ce88c0c1ad07d32e5f0da2816a4744ceaa2917284e",
    "parity.even_odd_false.trace":
        "e2539003169b1d08a78cd4526cfcf4c754e7e5ebefae111dc4ade3c19b28faba",
    "parity.even_or_odd.trace":
        "ff1e8fb8caffbe70306cc326c37c684025ad996b76cf6b62944d45b621b47d3a",
    "parity.even_s_odd.trace":
        "79aec34fe891232a2668f6c52073127ad3ca85704ce96f68fc2c91d2db134fc4",
    "parity.odd_s_even.trace":
        "0736cf7337c597ef92bd74b8b1b7c9453d21d0c7c3c0af4ca5cbb409e4ccb045",
    "plus.plus0com.trace":
        "51b761e81707b6e463130e53b0f40af25514cb7e9f631e1da650aa88e6d31afd",
    "plus.plus_determ.trace":
        "ecca3cbe83361ce0ff1a349be37b436f38958dfa1e2380e896315daa7394018e",
    "plus.plus_total.trace":
        "12b18e12b7675f0c9f72917e9e15c3f8a533081f8d07f1dc0a15d906db537213",
    "plus.pluscom.trace":
        "cf84f68b057463ea192d9b975a2794cdbc718782f2c661d8f8da8cf05ed1c1dc",
    "plus.plusscom.trace":
        "9a02090325662e7450439c47b4e715ce2faaee541a0744a1aa37361bb6a07095",
}


# what the same run prints, `== FILE` headers cut to the file name: the
# verdict lines in order, with their step counts and both negative controls
_PINNED_STDOUT = """\
== plus.thm
plus_total: ok (decides=1, unfoldL=0, unfoldR=2, steps=56)
plus_determ: ok (decides=2, unfoldL=2, unfoldR=0, steps=144)
plus0com: ok (decides=2, unfoldL=0, unfoldR=3, steps=147)
plusscom: ok (decides=2, unfoldL=0, unfoldR=2, steps=6801)
pluscom: ok (decides=4, unfoldL=2, unfoldR=0, steps=3102)
== list.thm
app_total: ok (decides=1, unfoldL=0, unfoldR=2, steps=58)
app_determ: ok (decides=2, unfoldL=2, unfoldR=0, steps=148)
app_nil: ok (decides=2, unfoldL=0, unfoldR=3, steps=154)
app_assoc: ok (decides=2, unfoldL=1, unfoldR=3, steps=648)
app_comm_bad: fail no proof within the certificate
== order.thm
lt_trans_starved: fail no proof within the certificate
lt_trans: ok (decides=2, unfoldL=2, unfoldR=2, steps=189)
lt_succ: ok (decides=1, unfoldL=0, unfoldR=2, steps=105)
lt_irrefl: ok (decides=1, unfoldL=0, unfoldR=0, steps=41)
lt_z_false: ok (decides=0, unfoldL=0, unfoldR=0, steps=25)
le_refl: ok (decides=2, unfoldL=0, unfoldR=3, steps=166)
lt_le: ok (decides=2, unfoldL=0, unfoldR=3, steps=208)
le_trans: ok (decides=2, unfoldL=1, unfoldR=3, steps=541)
== parity.thm
even_s_odd: ok (decides=1, unfoldL=0, unfoldR=2, steps=37)
odd_s_even: ok (decides=2, unfoldL=0, unfoldR=4, steps=96)
even_odd_false: ok (decides=2, unfoldL=2, unfoldR=0, steps=104)
even_is_nat: ok (decides=2, unfoldL=0, unfoldR=4, steps=181)
even_or_odd: ok (decides=5, unfoldL=0, unfoldR=3, steps=728)
"""


def test_trace_bytes_pinned(tmp_path):
    root = CORPUS.parent.parent
    src = pathlib.Path(outlinecheck.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "outlinecheck.cli", "--trace", str(tmp_path),
         *(str(root / f) for f in _PINNED_FILES)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1 and not proc.stderr, proc.stderr  # two negative controls
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(_PINNED_SHA256)
    for name, digest in _PINNED_SHA256.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} differs from its pinned bytes"
    out = ["== " + pathlib.Path(ln[3:]).name if ln.startswith("== ") else ln
           for ln in proc.stdout.splitlines()]
    assert out == _PINNED_STDOUT.splitlines()
