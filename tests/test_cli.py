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


# -- the trace files of the four theorem files, byte for byte.  A check
# numbers its variables above its own inputs' ids, so a trace depends only
# on its file up to its theorem: the bytes do not move with what else a run
# checks, in which order, or with --replay.

_PINNED_FILES = ("corpus/plus.thm", "bench/theorems/list.thm",
                 "bench/theorems/order.thm", "bench/theorems/parity.thm")
_PINNED_SHA256 = {
    "list.app_assoc.trace":
        "f88b813e94d80ffe3224b25465057fe1871c0ac9a8ecb188cc9e3a78802a3bd0",
    "list.app_determ.trace":
        "f6447f3097aef98dc88aa30b252fdce596ef1e97b96b9e666605bbea953d2ad8",
    "list.app_nil.trace":
        "67e8047300968c18b321c35684d62613e0adb3bc274f0002caadf36153f4c141",
    "list.app_total.trace":
        "901fc8339921881feaab68a7ae3193e4012a9523208c6d9f584f9304d0f10022",
    "order.le_refl.trace":
        "11d33663b5cb58fbd966ff4a09d52ef6589188f3de8b142f1ee93a1896472603",
    "order.le_trans.trace":
        "90d5a1776459590982d5f731a676bd0df025b0d24a69d913ce657e30d0039423",
    "order.lt_irrefl.trace":
        "b46fc5194a8b7e2a2b41fd0f751e1fb05a7856b0d211464834ed99f76606d128",
    "order.lt_le.trace":
        "a06c0a27fd31bc4de9cc4d2408166d31e4a719b969990a6b8f6f4e64d69127ff",
    "order.lt_succ.trace":
        "188f8e82b153da2f2d4e6661783462f88c8975b3739277200bcd7f6523367e76",
    "order.lt_trans.trace":
        "905ff34ca3fcc94e5a66b14c65eb3d2e74423862cb752c4925d9c902f1076572",
    "order.lt_z_false.trace":
        "7030f224184e91b0fb2adbb2739c743cf2810b25a2eb16da5984d2060706dbe2",
    "parity.even_is_nat.trace":
        "2f0eec40a9a1ba75d51e54c5f3ae144f6ee1da42efaf7afae31f3029747c7f04",
    "parity.even_odd_false.trace":
        "2f70c202f14984cb79975c67806d945dad4dc32094793591241d2c5989f059f4",
    "parity.even_or_odd.trace":
        "aef329d1edf7cc528dffbe74d4abee985fce49833b469510d4a1c72c718992de",
    "parity.even_s_odd.trace":
        "da3fb9cd6d157d54a6bb124e6b38b9fd924258ab235470ff7370af2c188ed688",
    "parity.odd_s_even.trace":
        "3e38e511ee3da2489ed12200ca82ea1b239a257562e243e358b383f29a4e4347",
    "plus.plus0com.trace":
        "525f7cebb566727bba187d94a7ad81b73f91e59b86018d703d85261542c6a9f9",
    "plus.plus_determ.trace":
        "653ff434490960b3123de19b9c78b4cad9b57796d7b46804bdca54d87ac728e8",
    "plus.plus_total.trace":
        "42a75180a643e1c90f205057c34ed1f151cd12bc163bda1dd6480f2887ff4ee4",
    "plus.pluscom.trace":
        "814e463f8c28c7ae80061040fcd51dfedeb7056a48735c0d0fe56be0af51282b",
    "plus.plusscom.trace":
        "e8742bb3a8cd5c43422f35c5e58200c1ccab925f91de44deb4563e50cb38b753",
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


def _acheck(*argv):
    src = pathlib.Path(outlinecheck.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "outlinecheck.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode in (0, 1) and not proc.stderr, proc.stderr
    return proc


def test_trace_bytes_pinned(tmp_path):
    root = CORPUS.parent.parent
    files = [root / f for f in _PINNED_FILES]
    proc = _acheck("--trace", tmp_path / "together", *files)
    assert proc.returncode == 1  # two negative controls
    out = ["== " + pathlib.Path(ln[3:]).name if ln.startswith("== ") else ln
           for ln in proc.stdout.splitlines()]
    assert out == _PINNED_STDOUT.splitlines()
    for f in files:
        _acheck("--trace", tmp_path / "alone", f)
    proc = _acheck("--trace", tmp_path / "reversed", "--replay", *reversed(files))
    replays = [ln for ln in proc.stdout.splitlines() if ln.startswith("replay")]
    assert len(replays) == 4
    assert all(re.fullmatch(r"replay: (\d+)/\1 ok", ln) for ln in replays), replays
    for shape in ("together", "alone", "reversed"):
        written = sorted(p.name for p in (tmp_path / shape).iterdir())
        assert written == sorted(_PINNED_SHA256), shape
        for name, digest in _PINNED_SHA256.items():
            got = hashlib.sha256((tmp_path / shape / name).read_bytes()).hexdigest()
            assert got == digest, f"{name} differs from its pinned bytes ({shape})"
