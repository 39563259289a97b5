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

from _util import CORPUS, check_outline


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


def test_trace_refuses_two_files_with_one_stem(capsys, tmp_path):
    # both would write plus.NAME.trace: the second file's traces used to
    # overwrite the first's, and nothing says the two files agree
    a, b = tmp_path / "a" / "plus.thm", tmp_path / "b" / "plus.thm"
    for path in (a, b):
        path.parent.mkdir()
        path.write_text(CORPUS.read_text())
    traces = tmp_path / "traces"
    code, lines, err = run(capsys, "--trace", traces, a, b)
    assert code == 2 and lines == []
    assert err.count("\n") == 1 and str(a) in err and str(b) in err
    assert not traces.exists()
    code, lines, _ = run(capsys, a, b)
    assert code == 0 and len(lines) == 12


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
    # 300 layers: the front end reads them, the kernel's nested focus
    # generators do not
    text = ("Kind nat type.\nType z nat.\nType s nat -> nat.\n"
            "Define is_nat : nat -> prop by\n"
            "  is_nat z ;\n  is_nat (s N) := is_nat N.\n"
            f"Theorem deep : is_nat {'(s ' * 300}z{')' * 300}.\n"
            'ship "(induction 0 0 302)".\n')
    el = elaborate(parse_file(text))
    with pytest.raises(RecursionError):
        check_outline(el, el.goals["deep"], "(induction 0 0 302)")
    deep = tmp_path / "deep.thm"
    deep.write_text(text)
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
        "d11521279ff877080197313cce75ceaf8fea4c62bc8fa842e074af3b08a338d4",
    "list.app_determ.trace":
        "44bb2b36e9201316748e737298276d40a00d0262fdfefc31bbd5fd07ce21b802",
    "list.app_nil.trace":
        "0fb81cc3eeaf709334f38e214bf6843b37afdb2b01104121865f95750fb9a42a",
    "list.app_total.trace":
        "3b1c3a09aea5e323a6b96ba1afba3a1dea398fcde0d2a6cca6aebe16b8a6bfdb",
    "order.le_refl.trace":
        "62927a772bd0cc5ab7901bbff4a083f6bdcfc7bbc105866b3caa6bdcda8ffa6e",
    "order.le_trans.trace":
        "2015ba5af7755b02775605a045c981ada4ad08916dfa8f149763232af2f4e128",
    "order.lt_irrefl.trace":
        "9f5493eeef84123c93e76533f3e9e816e8983f9db660ddb9236cb3065ee5ae97",
    "order.lt_le.trace":
        "a720199e864239e76655cb5c9c85a8ebf6f9e14073131d7a97afeb46c6feafda",
    "order.lt_succ.trace":
        "fd9f9113cb2f66a4ce0218f38b5039ce9c5ebab67832f2eb2b937dac6aa26da6",
    "order.lt_trans.trace":
        "a497ee9fe7944d18b685a733f507d2780510d573b8f3f1dc3e785760080c0fb3",
    "order.lt_z_false.trace":
        "205c00d30e838f13651e12a90e8e3bb2c97eb6998f9342de1e97b819cbfa0ce3",
    "parity.even_is_nat.trace":
        "13411c86a98f0d73a8fac3748f104a7f73af082cbc6eb3d26f72a4534cd3f7ed",
    "parity.even_odd_false.trace":
        "a66760b72090895becdd470921e2bc3da2c951202f611ddcc25d4eb0e7dc5c46",
    "parity.even_or_odd.trace":
        "f5163c1de0e6bbfad58fe4fa959dcc27edaef923d645a4f5c5827e76f70edcb3",
    "parity.even_s_odd.trace":
        "1b302dba2651945d911dfdc15ff76ea131ee6e755ddd0a863310857f4cad0020",
    "parity.odd_s_even.trace":
        "477481d97a07cbb5009aa36848033671f12d6419ad330db0bb88309e69fd40dd",
    "plus.plus0com.trace":
        "6958e7e327aa04310ecc353bd779bf9fcfd4ec7c68cfa2ac933045c00e3a765d",
    "plus.plus_determ.trace":
        "2b0ac8fc6d16b39e522cb08e197f758e3d964802991555764dd249757e5d7eed",
    "plus.plus_total.trace":
        "64d71cf3ade715fcbddff587e150eea498f9226fb07a77c376715bd632bcbf4b",
    "plus.pluscom.trace":
        "892c89776e59710f83216fb3f0d7e8b71588e97deffc997a3b66ebbd86ed32ea",
    "plus.plusscom.trace":
        "93e10245ec4f825c399d1572d978c5d23b10fe3a6dccd80b609c412af3c8fb9c",
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
    # records carry choices, not principal formulas: the 21 files took
    # 137,819 bytes while they held them
    total = sum(p.stat().st_size for p in (tmp_path / "together").iterdir())
    assert total <= 0.3 * 137_819, total
