"""Check every theorem in the bundled corpus and report budgets and steps.

Run from the repository root:

    python3 demos/01_check_corpus.py
"""

import pathlib
from collections import Counter

from outlinecheck import ResourceLimits, parse_file, run_session

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "plus.thm"


def main() -> None:
    results = run_session(parse_file(CORPUS.read_text()),
                          ResourceLimits(max_steps=1_000_000))
    print(f"{CORPUS.name}: {len(results)} theorems\n")
    for r in results:
        if r.outcome != "ok":
            print(f"  {r.name}: {r.outcome} ({r.detail})")
            continue
        n = Counter(node.rule for node in r.trace.walk())
        print(f"  {r.name}: ok  decides={n['decideL']} unfoldL={n['unfoldL']} "
              f"unfoldR={n['unfoldR']} steps={r.steps}")
    print("\nThe same run is available as:  acheck corpus/plus.thm")


if __name__ == "__main__":
    main()
