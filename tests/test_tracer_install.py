"""perfbench/tracer.py wraps budgetfd's functions by name, so renaming one
breaks ``perfbench/run.py --trace 1``.  Installing the tracer patches
modules for the whole process, so it runs in a subprocess here, against
this checkout's ``src/``, around one traced ``counterexample``."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_RUN = r"""
import contextlib, io, json, os, sys
src, perfbench, formula = sys.argv[1:]
sys.path[:0] = [src, perfbench]
from tracer import Tracer
from budgetfd import cli
assert os.path.abspath(cli.__file__).startswith(src + os.sep), cli.__file__
tracer = Tracer()
tracer.install()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["--json", "counterexample", "--formula", formula])
print(json.dumps({"code": code, "out": out.getvalue(), "report": tracer.report(1)}))
"""


def test_tracer_installs_and_reports_a_counterexample(tmp_path):
    formula = tmp_path / "formula.txt"
    formula.write_text(
        "attrs: a,b\n{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})\n")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench"), str(formula)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 1
    package = json.loads(result["out"])["package"]
    records = sum(len(ref["witnesses"]) for ref in package["false_atoms"])
    report = result["report"]
    assert records > 0 and report["synth.witness_records"] == records
    for layer in ("cli.command_s", "entailment.decide_s", "synth.counterexample_s",
                  "synth.verify_s", "proofs.build_s"):
        assert report[layer] > 0, layer
    assert report["kernels.built"] >= 1
    # the countermodel is cyclic: its checks read flip-vector supports only
    assert report["synth.enumerate_paths_calls"] == 0
    assert report["synth.paths_enumerated"] == 0
