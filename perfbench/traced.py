"""One majlab command, run in-process in a fresh process (started by run.py).

Usage: ``traced.py --trace 0|1 --out PREFIX -- <majlab CLI arguments>``

Imports ``majlab.cli`` first so its import time is measured on a cold
process, then calls ``majlab.cli.main(argv)`` once, with every layer wrapped
by the tracer when ``--trace 1``.  A fresh process per command starts with
majlab's module-level memos empty, as a CLI invocation does.  Writes
``PREFIX.json`` (import time, wall time, exit code, span names, counters)
and ``PREFIX.npz`` (the spans).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

_t0 = perf_counter()
import majlab.cli  # noqa: E402  (timed: this is the import a CLI process pays)

IMPORT_S = perf_counter() - _t0

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    if args.trace:
        tracer.install()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = majlab.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed operation, not a dead run
        traceback.print_exc()
        rc = 1
    wall = perf_counter() - start
    np.savez(f"{args.out}.npz", **tracer.spans())
    report = {"import_s": IMPORT_S, "wall_s": wall, "rc": rc, "names": tracer.names, "counters": tracer.counters}
    with open(f"{args.out}.json", "w", encoding="utf-8") as sink:
        json.dump(report, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
