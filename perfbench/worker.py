"""Runs budgetfd CLI operations, one after another, in a single process.

Started by ``run.py`` as ``python3 worker.py SRC_DIR`` with the operations'
input directory as working directory.  It reads one JSON request per line
and answers each with one JSON line, after a first line naming the
closure kernel in use:

* ``{"run": argv}`` runs ``budgetfd.cli.main(argv)`` with stdout and stderr
  captured and answers the exit code, both streams, the wall time and the
  times of ``calibrate()`` run just before and just after it;
* ``{"calibrate": n}`` runs ``calibrate()`` n times and answers the times;
* ``{"trace": true}`` installs the tracer for every later operation;
* ``{"finish": spans_path}`` answers the peak resident memory and the
  tracer's per-layer report, writes the spans and exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction


def _calibration_instance():
    rng = random.Random("calibration")
    edges = []
    for _ in range(40):
        tail = frozenset(rng.sample(range(16), rng.randint(0, 2)))
        head = frozenset(rng.sample(range(16), rng.randint(1, 2)))
        edges.append((tail, head, Fraction(rng.randint(1, 6), 2)))
    return edges


CALIBRATION_EDGES = _calibration_instance()


def calibrate() -> float:
    """Time a fixed piece of pure-Python work shaped like the program's own
    (set closures over a small hypergraph, Fraction sums, dict lookups).  It
    does not touch budgetfd, so only the machine's speed moves its time:
    about 0.35 ms on an idle core, and up to twice that while other load
    shares the machine."""
    t0 = time.perf_counter()
    seen: dict = {}
    for start in range(16):
        closed = {start}
        cost = Fraction(0)
        changed = True
        while changed:
            changed = False
            for tail, head, price in CALIBRATION_EDGES:
                if tail <= closed and not head <= closed:
                    closed |= head
                    cost += price
                    changed = True
        seen[frozenset(closed)] = cost
    json.dumps(sorted((sorted(k), str(v)) for k, v in seen.items()))
    return time.perf_counter() - t0


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    from budgetfd import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"budgetfd imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    reply_to = sys.stdout
    from budgetfd import kernels

    hello = {
        "compiled_available": kernels.compiled_available(),
        "kernel": type(kernels.closure_kernel([], [], 0)).__module__,
    }
    reply_to.write(json.dumps(hello) + "\n")
    reply_to.flush()
    tracer = None
    traced = 0
    for line in sys.stdin:
        request = json.loads(line)
        if "run" in request:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op_id = traced
                traced += 1
            before = calibrate()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(request["run"])
                except Exception:  # an internal error is a failed operation, not a crash
                    code = -1
                    traceback.print_exc()
                elapsed = time.perf_counter() - t0
            reply = {"code": code, "out": out.getvalue(), "err": err.getvalue(), "s": elapsed,
                     "cal": [before, calibrate()]}
        elif "calibrate" in request:
            reply = {"s": [calibrate() for _ in range(request["calibrate"])]}
        elif "trace" in request:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            reply = {"ok": True}
        elif "finish" in request:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply = {"peak_rss_mib": peak_kib / 1024}
            if tracer is not None:
                reply["layers"] = tracer.report(max(1, traced))
                tracer.write_spans(request["finish"])
            reply_to.write(json.dumps(reply) + "\n")
            reply_to.flush()
            return 0
        else:
            raise ValueError(f"unknown request {request!r}")
        reply_to.write(json.dumps(reply) + "\n")
        reply_to.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
