"""The `acheck` executable: parse theorem files, check them, report verdicts.

One verdict line per theorem, machine-parseable and stable:

    NAME: ok (decides=D, unfoldL=A, unfoldR=S, steps=N)
    NAME: fail <reason>
    NAME: budget

Exit status: 0 when every theorem of every file is accepted (and, with
--replay, every trace replays); 1 when any theorem is rejected or runs out
of steps; 2 on usage, file, parse or trace-writing errors, including a
file that is not UTF-8 or nests too deeply for the checker's recursion.
A --trace directory that cannot be made, or two files with the same stem,
whose traces would overwrite each other's, are reported before any file is
checked.  Files are checked and reported one at a time, so any other such
error, printed with the path, keeps the verdicts of the files before it
and skips the files after.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .frontend import ElabError, ParseError, TheoremResult, parse_file, run_session
from .kernel import ResourceLimits
from .replay import explain_failure
from .trace import count_rule, trace_to_lines


def _verdict_line(r: TheoremResult) -> str:
    if r.outcome == "ok":
        assert r.trace is not None
        return (f"{r.name}: ok (decides={count_rule(r.trace, 'decideL')},"
                f" unfoldL={count_rule(r.trace, 'unfoldL')},"
                f" unfoldR={count_rule(r.trace, 'unfoldR')},"
                f" steps={r.steps})")
    if r.outcome == "budget":
        return f"{r.name}: budget"
    return f"{r.name}: fail {r.detail}"


def _error(msg: str) -> int:
    print(f"acheck: {msg}", file=sys.stderr)
    return 2


def _trace_error(e: OSError, trace_dir: Path) -> int:
    return _error(f"cannot write trace {e.filename or trace_dir}: {e.strerror or e}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="acheck",
        description="Check proof outlines in theorem files.")
    ap.add_argument("files", nargs="+", metavar="FILE", type=Path)
    ap.add_argument("--trace", metavar="DIR", type=Path,
                    help="write a replayable trace per accepted theorem")
    ap.add_argument("--replay", action="store_true",
                    help="re-verify every accepted proof from its trace")
    ap.add_argument("--max-steps", metavar="N", type=int,
                    default=ResourceLimits.max_steps,
                    help="per-theorem search step limit (default %(default)s)")
    ap.add_argument("--stop-on-failure", action="store_true",
                    help="stop a file at its first non-accepted theorem")
    args = ap.parse_args(argv)

    if args.max_steps <= 0:
        return _error("--max-steps must be positive")
    for path in args.files:
        if not path.is_file():
            return _error(f"no such file: {path}")
    if args.trace:
        stems: dict[str, Path] = {}
        for path in args.files:
            first = stems.setdefault(path.stem, path)
            if first is not path:
                return _error(f"--trace: {first} and {path} would write the same trace files")
        try:
            args.trace.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            return _trace_error(e, args.trace)

    limits = ResourceLimits(max_steps=args.max_steps)
    failed = False
    for path in args.files:
        try:
            results = run_session(parse_file(path.read_text(encoding="utf-8")),
                                  limits, args.stop_on_failure)
        except (ParseError, ElabError, OSError) as e:
            return _error(f"{path}: {e}")
        except UnicodeDecodeError as e:
            return _error(f"{path}: not UTF-8 text (byte {e.start})")
        except RecursionError:
            return _error(f"{path}: nested too deeply for this checker")

        if len(args.files) > 1:
            print(f"== {path}")
        for r in results:
            print(_verdict_line(r))
        failed = failed or any(r.outcome != "ok" for r in results)

        accepted = [r for r in results if r.outcome == "ok"]
        if args.trace:
            try:
                for r in accepted:
                    assert r.trace is not None
                    out = args.trace / f"{path.stem}.{r.name}.trace"
                    out.write_text("\n".join(trace_to_lines(r.trace)) + "\n",
                                   encoding="utf-8")
            except OSError as e:
                return _trace_error(e, args.trace)
        if args.replay:
            bad = []
            for r in accepted:
                assert r.trace is not None
                reason = explain_failure(r.lemmas, r.goal, r.trace)
                if reason is not None:
                    bad.append((r.name, reason))
            print(f"replay: {len(accepted) - len(bad)}/{len(accepted)} ok")
            for name, reason in bad:
                print(f"replay mismatch in {name}: {reason}")
                failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
