"""Traced CLI op: ``python3 bench/cli_child.py OUT_DIR OP_ID -- ARGS...``.

Imports ``starsplit.cli``, wraps the package's callables with the
benchmark tracer, runs ``starsplit.cli.main(ARGS)`` and writes the span
aggregates to ``OUT_DIR/op-<OP_ID>.stats.json`` and the spans to
``OUT_DIR/op-<OP_ID>.spans.jsonl``.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    out_dir, op_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py OUT_DIR OP_ID -- ARGS...")
    import starsplit.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(int(op_id))
    try:
        return starsplit.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        base = os.path.join(out_dir, f"op-{op_id}")
        with open(base + ".stats.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.export_stats(), fh)
        tracer.write_spans(base + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main())
