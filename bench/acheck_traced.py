"""`acheck` with spans around its calls into each layer.

    python3 bench/acheck_traced.py SPANS.json [acheck arguments ...]

runs the CLI in this process and writes the spans, as JSON, to SPANS.json
when it ends.  Needs `src` on PYTHONPATH.
"""

import sys

from spans import Tracer, instrument_cli

if __name__ == "__main__":
    tracer = Tracer()
    main = instrument_cli(tracer)
    try:
        code = main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
