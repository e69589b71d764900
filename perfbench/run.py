"""End-to-end benchmark of the budgetfd command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prove --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --workload prove --seed 1 --dump 7   # replay one operation

Each operation is one ``budgetfd.cli.main(argv)`` call on generated input
files, made by a single worker process, one operation after another (a
closed loop with one caller).  The runner checks every output against
references computed apart from the program (``checks.py``, ``refs.py``).
A run repeats whole rounds of the workload's operations: at least
``MIN_ROUNDS``, then more while another round of the mean length still
fits in ``--seconds`` of the operations' own wall time.  The end-to-end
times are scaled to the machine's speed when they were taken (see
``CALIBRATION_REF_S``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of the traced rounds (``tracer.py``: every round after the first two) plus
the tracing overhead against the warm untraced second round, and the spans
are written to ``.bench_work/spans-<workload>-<seed>.jsonl``.  With
``--workload all`` the last line combines the workloads: ``correct`` holds
only if it holds for each, ``attempted`` and ``failed`` are sums, and
``workloads`` maps each name to its own result; the exit code is 1 when
an output was wrong or an operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 2  # each operation's time is the median of at least two repetitions
UNTRACED_ROUNDS = 2  # a traced run's first rounds (cold, then the warm baseline)
SETUP_SAMPLES = 12  # fresh-interpreter set-up measurements, spread over --seconds
# Reported times are scaled to the machine's speed at the moment they were
# taken: a time divided by the calibration time measured around it (see
# worker.calibrate), times calibrate()'s time on an idle core of the
# reference machine.  So other load on the machine, which changes its speed
# from one moment and one minute to the next, cancels out.
CALIBRATION_REF_S = 350e-6
SETUP_CALIBRATIONS = 4  # calibrations just before and just after each set-up sample


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Worker:
    """The process that runs the operations; answers one JSON line per request."""

    def __init__(self, src: str, workdir: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), src],
            cwd=workdir, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            _fail(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _timed_subprocess(argv: list[str], src: str, workdir: str) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - t0
    if done.returncode not in (0, 1):
        _fail(f"{' '.join(argv)} exited with {done.returncode}: {done.stderr.strip()}")
    return elapsed, done.stdout


IMPORT_SCRIPT = ("import time; t = time.perf_counter(); import budgetfd.cli; "
                 "print(time.perf_counter() - t)")


class Runner:
    """Runs whole rounds of a workload's operations on the worker, checks
    every output, and spreads fresh-interpreter set-up measurements evenly
    over the run so that they see the same machine as the operations."""

    def __init__(self, workload: gen.Workload, worker: Worker, src: str, workdir: str,
                 trace: bool, seconds: float):
        self.workload = workload
        self.worker = worker
        self.src, self.workdir, self.trace = src, workdir, trace
        self.cache: dict = {}  # op index -> that operation's reference answers
        self.verdicts: dict = {}  # (op index, exit code, output digest) -> reason or None
        self.times: list[list[float]] = [[] for _ in workload.ops]
        self.setup_times: list[float] = []
        self.out_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.spent = 0.0  # operations' wall time so far
        self.round_scaled: list[float] = []  # each round's scaled operation time
        self.next_setup = 0.0
        self.setup_gap = seconds / SETUP_SAMPLES
        self.calibrations: list[float] = []

    def setup_once(self) -> None:
        if self.trace:
            _, out = _timed_subprocess([sys.executable, "-c", IMPORT_SCRIPT],
                                       self.src, self.workdir)
            self.setup_times.append(float(out))
            return
        argv = [sys.executable, "-m", "budgetfd.cli", *self.workload.setup.argv]
        before = self.worker.ask({"calibrate": SETUP_CALIBRATIONS})["s"]
        elapsed, out = _timed_subprocess(argv, self.src, self.workdir)
        after = self.worker.ask({"calibrate": SETUP_CALIBRATIONS})["s"]
        json.loads(out)
        self.setup_times.append(_scaled(elapsed, before + after))

    def round(self) -> float:
        """One pass over every operation; returns the operations' wall time."""
        spent = scaled = 0.0
        for index, op in enumerate(self.workload.ops):
            if len(self.setup_times) < SETUP_SAMPLES and self.spent >= self.next_setup:
                self.setup_once()
                self.next_setup += self.setup_gap
            reply = self.worker.ask({"run": op.argv})
            self.attempted += 1
            code, out = reply["code"], reply["out"]
            if code not in (checks.YES, checks.NO):
                self.failed += 1
                print(f"op {index} ({op.kind}) failed with code {code}: "
                      f"{reply['err'].strip()[-500:]}", file=sys.stderr)
                continue
            spent += reply["s"]
            self.spent += reply["s"]
            self.times[index].append(_scaled(reply["s"], reply["cal"]))
            scaled += self.times[index][-1]
            self.calibrations.extend(reply["cal"])
            self.out_bytes += len(out.encode())
            key = (index, code, hashlib.sha256(out.encode()).digest())
            if key not in self.verdicts:
                self.verdicts[key] = checks.check(op, code, out, self.cache.setdefault(index, {}))
            reason = self.verdicts[key]
            if reason is not None:
                self.wrong.append(f"op {index} ({op.kind}): {reason}")
        self.round_scaled.append(scaled)
        return spent

    def per_op(self) -> list[float]:
        """Each operation's median scaled time over the run's rounds."""
        return [statistics.median(t) for t in self.times if t]


def _scaled(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` at the reference machine's speed (see CALIBRATION_REF_S)."""
    return seconds / statistics.fmean(calibrations) * CALIBRATION_REF_S


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    src = os.path.join(root, "src")
    work_root = os.path.join(root, ".bench_work")
    workdir = os.path.join(work_root, f"run-{name}-{seed}-{os.getpid()}")
    workload = gen.build(name, seed)
    os.makedirs(workdir, exist_ok=True)
    worker = None
    try:
        for fname, text in workload.files.items():
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        worker = Worker(src, workdir)
        worker.ask({"run": workload.setup.argv})  # warm-up, untimed
        runner = Runner(workload, worker, src, workdir, trace, seconds)
        rounds: list[float] = []
        min_rounds = UNTRACED_ROUNDS + 1 if trace else MIN_ROUNDS
        while len(rounds) < min_rounds or sum(rounds) + statistics.fmean(rounds) <= seconds:
            if trace and len(rounds) == UNTRACED_ROUNDS:
                worker.ask({"trace": True})
            rounds.append(runner.round())
        spans_path = os.path.join(work_root, f"spans-{name}-{seed}.jsonl")
        final = worker.ask({"finish": spans_path})
        worker.proc.wait(timeout=60)
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": name, "seed": seed, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "ops_per_round": len(workload.ops),
        "round_s": "/".join(f"{r:.2f}" for r in rounds),
        "calibration_ms": round(statistics.median(runner.calibrations) * 1e3, 4),
        "compiled_available": worker.hello["compiled_available"],
        "kernel": worker.hello["kernel"],
        "BUDGETFD_PURE": os.environ.get("BUDGETFD_PURE", ""),
    }
    for reason in runner.wrong[:20]:
        print(f"wrong output: {reason}", file=sys.stderr)
    per_op = runner.per_op()
    if trace:
        layers = final["layers"]
        below_main = layers.pop("below_main_s")
        layers["cli.import_s"] = statistics.median(runner.setup_times)
        layers["cli.json_bytes"] = runner.out_bytes / (runner.attempted - runner.failed)
        traced = rounds[UNTRACED_ROUNDS:]
        scaled = runner.round_scaled
        layers["trace.overhead_ratio"] = (statistics.fmean(scaled[UNTRACED_ROUNDS:])
                                          / scaled[UNTRACED_ROUNDS - 1])
        layers["trace.accounted_share"] = below_main / sum(traced)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(runner.setup_times), "unit": "s"},
            "query_s_p50": {"value": statistics.median(per_op), "unit": "s"},
            "query_s_p90": {"value": statistics.quantiles(per_op, n=10)[-1], "unit": "s"},
            "queries_per_s": {"value": len(per_op) / sum(per_op), "unit": "1/s"},
            "peak_rss_mib": {"value": final["peak_rss_mib"], "unit": "MiB"},
        }
    return {
        "info": info,
        "result": {
            "correct": not runner.wrong,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        },
    }


def _unit(metric: str) -> str:
    if metric.endswith("_ratio") or metric == "trace.accounted_share":
        return "ratio"
    if metric == "cli.import_s":
        return "s"
    if metric == "cli.json_bytes":
        return "B/op"
    if metric.endswith("_s"):
        return "s/op"
    return "count/op"


def dump_op(name: str, seed: int, index: int, out_dir: str, root: str) -> None:
    """Write one operation's input files and print the command that replays it."""
    workload = gen.build(name, seed)
    op = workload.ops[index]
    os.makedirs(out_dir, exist_ok=True)
    for fname in op.files():
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(workload.files[fname])
    args = " ".join(shlex.quote(a) for a in op.argv)
    print(f"cd {shlex.quote(os.path.abspath(out_dir))} && "
          f"PYTHONPATH={shlex.quote(os.path.join(root, 'src'))} python3 -m budgetfd.cli {args}")


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the budgetfd CLI.")
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", type=int, metavar="INDEX",
                        help="write operation INDEX's inputs to .bench_work/op-<workload>-"
                             "<seed>-<INDEX>/ and print the command that replays it")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "budgetfd", "cli.py")):
        _fail("run from the root of a budgetfd checkout (src/budgetfd/cli.py not found)")
    if args.dump is not None:
        out = os.path.join(root, ".bench_work", f"op-{args.workload}-{args.seed}-{args.dump}")
        dump_op(args.workload, args.seed, args.dump, out, root)
        return 0
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        info, result = outcome["info"], outcome["result"]
        print(" ".join(f"{k}={v}" for k, v in info.items()))
        print(f"  attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] and not combined["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
