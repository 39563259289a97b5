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
from outlinecheck import Accepted, cli, trace_from_lines, verify_trace, elaborate, parse_file

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
    tr = trace_from_lines(lines)
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


def _is_nat_theorem(layers: int) -> str:
    return ("Kind nat type.\nType z nat.\nType s nat -> nat.\n"
            "Define is_nat : nat -> prop by\n"
            "  is_nat z ;\n  is_nat (s N) := is_nat N.\n"
            f"Theorem deep : is_nat {'(s ' * layers}z{')' * layers}.\n"
            f'ship "(induction 0 0 {layers + 2})".\n')


def test_recursion_overflow_exit_two(capsys, tmp_path):
    # 300 layers: the front end reads them and the kernel's loop checks them
    text = _is_nat_theorem(300)
    el = elaborate(parse_file(text))
    assert isinstance(check_outline(el, el.goals["deep"], "(induction 0 0 302)"), Accepted)
    deep = tmp_path / "deep.thm"
    deep.write_text(text)
    code, lines, _ = run(capsys, deep)
    assert code == 0 and OK_LINE.match(lines[0]) and lines[0].startswith("deep: ok")
    # 2,000 layers: the front end's recursive term parser refuses them
    deep.write_text(_is_nat_theorem(2000))
    code, lines, err = run(capsys, deep)
    assert code == 2 and not lines
    assert err.count("\n") == 1 and "deep.thm" in err
    assert "nested too deeply for this checker" in err


def test_numerals_differing_deep_down_fail_exit_one(capsys, tmp_path):
    # unfolding plus z N M leaves the equation N = M of two ground
    # numerals, equal down to their last layer; comparing them is a loop
    text = CORPUS.read_text()
    decls = text[:text.index("Theorem")]
    numeral = lambda n: "(s " * n + "z" + ")" * n
    f = tmp_path / "off.thm"
    f.write_text(decls + f"Theorem off_by_one : plus z {numeral(420)} {numeral(419)}.\n"
                 'ship "(induction 0 0 1)".\n')
    code, lines, err = run(capsys, f)
    assert (code, lines, err) == (1, ["off_by_one: fail no proof within the certificate"], "")


def test_negative_recursion_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.thm"
    bad.write_text("Kind nat type.\nType z nat.\n"
                   "Define bad : nat -> prop by\n  bad N := bad N -> false.\n")
    code, lines, err = run(capsys, bad)
    assert code == 2 and not lines
    assert err.count("\n") == 1 and "bad recurses in a negative position" in err
    assert "bad.thm" in err and "Traceback" not in err


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


def test_multiple_files_get_headers(capsys, tmp_path):
    g = tmp_path / "g.thm"
    g.write_text("Kind nat type.\nType z nat.\n"
                 'Theorem t : z = z.\nship "(induction 0 0 0)".\n')
    code, lines, _ = run(capsys, CORPUS, g)
    assert code == 0
    assert sum(1 for ln in lines if ln.startswith("== ")) == 2


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # records are plain slotted classes: building dataclasses, and importing
    # inspect for them, would be most of start-up; -S keeps a site .pth file
    # from loading either
    src = pathlib.Path(outlinecheck.__file__).resolve().parent.parent
    code = ("import sys; import outlinecheck.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_verdicts_are_deterministic(capsys):
    first = run(capsys, CORPUS)
    second = run(capsys, CORPUS)
    assert first == second


# -- the trace files of the four theorem files, byte for byte.  A check
# numbers its variables above its own inputs' ids, so a trace depends only
# on its file up to its theorem: the bytes do not move with what else a run
# checks, in which order, or with --replay.  An induction record names its
# invariant by flavour: these are the bytes of the files that spelled the
# invariant out, with only that field rewritten, except plusscom's, whose
# proof takes the bare invariant since the kernel tries it first.

_PINNED_FILES = ("corpus/plus.thm", "bench/theorems/list.thm",
                 "bench/theorems/order.thm", "bench/theorems/parity.thm")
_PINNED_SHA256 = {
    "list.app_assoc.trace":
        "21748ed970c128a1d0c7fa178bb3da75d417c75e4e90d9684aaa79fde03fe01c",
    "list.app_determ.trace":
        "82cc8ac65473dee859f1fb9612146a37e1e370ad01eb71cc1a733fff3f367042",
    "list.app_nil.trace":
        "b81e208c37637127e32b82a72d3fc6a78d067a56b52f968675f1aaf35f071f9d",
    "list.app_total.trace":
        "801ae0251a104d49e9592c2a8a34ff7ee18e2f4c759435e9ac2f1154f2327fb2",
    "order.le_refl.trace":
        "2d22da078d2e429b3bc2138c2334ae87e87c471690f662694889acf798a804ef",
    "order.le_trans.trace":
        "5543297f074b494da376b7204e84aa4b6644fce8862aa7e7b4d132d6ebcffb84",
    "order.lt_irrefl.trace":
        "4700ddc86112312f8989b358432c7f376edce47626c5d9e2f1f3fc87c4ff79c9",
    "order.lt_le.trace":
        "59f62e5da526e85fb513cec041b7bd6a6edef053ae60c1e69674e14a740f46c6",
    "order.lt_succ.trace":
        "84c82155ebf65089f8aae9dc963aadeb970fe6ed56f02bfad7a1e4a22c1f68aa",
    "order.lt_trans.trace":
        "bd7931fc0df639fd3959d2ebbf6eb61103f1dffdfac2e826dff75f47be37f91d",
    "order.lt_z_false.trace":
        "86753dde5f3f6b086c627fd8396a021137ff376613b7ea317d3b5b731b74a557",
    "parity.even_is_nat.trace":
        "f2bed0b62552c32f9c0abdab977a52d2bb62dd034edfbea9a10aa0e6221e7363",
    "parity.even_odd_false.trace":
        "09fccc7e7c5b30303e4f38de7c51eda99b906b603fa56c77f694ae7edd9f8ab7",
    "parity.even_or_odd.trace":
        "e62b0d91e969b6e26ed48bc110cdab7af29a0110784cb36cd4ecc5fcd4d3a947",
    "parity.even_s_odd.trace":
        "e786f41d2118c75c7a7548faa1a84da180ec740b50abfadf5f156cc4408af37b",
    "parity.odd_s_even.trace":
        "89efdefb784f3284efdf25e5ad20500cba3a091031f0690a1c1500efc8ff4cfb",
    "plus.plus0com.trace":
        "78e8ff1382e29dbb9b1af43d4e1d21318080667de74c739babf103d689bcd6c5",
    "plus.plus_determ.trace":
        "89d2e5d895bcc05aeac68701553400bcc68321a412af9233b4fd52118d963153",
    "plus.plus_total.trace":
        "ceca4a9e0aa17dbadef73334f3603e89b26a610255b8d5756c7ee46a70be120c",
    "plus.pluscom.trace":
        "ef0214d1930f32c489f36961ad4a266c44793121040bcb9d13462bc19311fb7e",
    "plus.plusscom.trace":
        "a411178c40545ed7bfbc3dc95b59d16ba36723cd4ff213e21a76fdb7878206cf",
}


# what the same run prints, `== FILE` headers cut to the file name: the
# verdict lines in order, with their step counts and both negative controls
_PINNED_STDOUT = """\
== plus.thm
plus_total: ok (decides=1, unfoldL=0, unfoldR=2, steps=56)
plus_determ: ok (decides=2, unfoldL=2, unfoldR=0, steps=144)
plus0com: ok (decides=2, unfoldL=0, unfoldR=3, steps=147)
plusscom: ok (decides=2, unfoldL=0, unfoldR=2, steps=1115)
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
