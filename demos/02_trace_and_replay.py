"""Produce a proof trace, replay it, and show that tampering is caught.

Every accepted check returns a preorder trace of the full proof.  The
replayer re-runs the proof without any search: it computes the formula
each record acts on, and the record must name the rule that applies and
the choices it made, so a verifier can audit an accepted run in one
linear pass.  A rejection names the record by its line.  Run from the
repository root:

    python3 demos/02_trace_and_replay.py
"""

import pathlib

from outlinecheck import (
    ResourceLimits, TraceNode, con, explain_failure, parse_file, run_session,
    trace_to_lines, verify_trace,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "plus.thm"


def main() -> None:
    results = run_session(parse_file(CORPUS.read_text()),
                          ResourceLimits(max_steps=1_000_000))
    r = next(res for res in results if res.name == "plus0com")

    print(f"trace for {r.name} ({sum(1 for _ in r.trace.walk())} records):\n")
    for line in trace_to_lines(r.trace):
        print("  " + line)

    print("\nreplay of the honest trace:",
          "accepted" if verify_trace(r.lemmas, r.goal, r.trace) else "rejected")

    # Tamper with one field: claim a different witness on the first witness
    # record of each branch.  Replay fails where a wrong witness shows.
    def tamper(node: TraceNode) -> TraceNode:
        if node.rule in ("exR", "allL"):
            return node._replace(term=con("s", node.term))
        return node._replace(children=tuple(tamper(c) for c in node.children))

    bad = tamper(r.trace)
    print("replay of the tampered trace:",
          "accepted" if verify_trace(r.lemmas, r.goal, bad) else "rejected")
    print("reason:", explain_failure(r.lemmas, r.goal, bad))


if __name__ == "__main__":
    main()
