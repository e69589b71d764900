"""Per-layer spans and counts around budgetfd's cross-module calls.

``Tracer.install`` replaces, inside the running process only, the public
functions one budgetfd module calls in another.  Functions imported by
name (``entailment.build_proof``, ``cli.reachability_cut``, ...) are
replaced in the importing module's namespace; functions called through a
module attribute (``entailment.entails``, ``search.find_witness``, ...) are
replaced on that module.  The program itself is not changed.

Every wrapped call is a span (name, start, end, parent span, operation id)
kept in memory.  The two hottest calls, kernel closures and formula
evaluations, are counted and timed without a span of their own; their time
still counts as child time of the enclosing span.  A span's self time is
its duration minus its children's, and self times are summed per metric
bucket.  ``cli.main`` is a bucket of its own: its self time is the argument
parsing and dispatch, plus any time spent in code no wrapper covers
outside the ``cmd_*`` functions, so the share of the operations' wall time
the other buckets cover shows how much of it the layers account for.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class _CountingKernel:
    """Stands in for a closure kernel; counts and times ``closure`` calls."""

    def __init__(self, kernel, tracer: "Tracer"):
        self._kernel = kernel
        self._closure = kernel.closure
        self._tracer = tracer

    def closure(self, edge_mask: int, start: int) -> int:
        t0 = perf_counter()
        result = self._closure(edge_mask, start)
        dt = perf_counter() - t0
        tracer = self._tracer
        tracer.leaf_calls["kernels.closure"] += 1
        tracer.leaf_s["kernels.closure"] += dt
        if tracer.stack:
            tracer.stack[-1][2] += dt
        return result

    def __getattr__(self, name):
        return getattr(self._kernel, name)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [bucket, start, child seconds, span id]
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.leaf_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.op_id = 0

    # -- wrappers --------------------------------------------------------------

    def span(self, bucket: str, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result, parent_bucket)`` counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [bucket, 0.0, 0.0, span_id]
            stack.append(frame)
            t0 = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.self_s[bucket] += (t1 - t0) - frame[2]
                tracer.calls[bucket] += 1
                if parent is not None:
                    parent[2] += t1 - t0
                tracer.spans[span_id] = (
                    span_id, name, t0, t1, parent[3] if parent else None, tracer.op_id
                )
            if after is not None:
                after(args, result, parent[0] if parent else None)
            return result

        return wrapper

    def leaf(self, bucket: str, fn, after=None):
        """Count and time ``fn`` without recording a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            tracer.leaf_calls[bucket] += 1
            tracer.leaf_s[bucket] += dt
            stack = tracer.stack
            if stack:
                stack[-1][2] += dt
            if after is not None:
                after(args, result, stack[-1][0] if stack else None)
            return result

        return wrapper

    def patch(self, module, attr: str, bucket: str, after=None) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.span(bucket, name, fn, after))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from budgetfd import cli, entailment, gf2, infomodel, kernels, proofs, search, synth

        tracer = self
        counts = self.counts

        # cli: the entry point, each subcommand, and the parsers it imports.
        self.patch(cli, "main", "cli.main")
        for attr in dir(cli):
            if attr.startswith("cmd_"):
                self.patch(cli, attr, "cli.command")
        for attr in ("parse_atom", "parse_formula", "parse_attr_set"):
            self.patch(cli, attr, "formula.parse")

        # formula: evaluations made by the assignment enumeration.
        def evaluated(args, result, parent):
            if parent == "entailment.decide":
                counts["entailment.assignments"] += 1
                counts["entailment.satisfying"] += bool(result)

        entailment.evaluate = self.leaf("formula.evaluate", entailment.evaluate, evaluated)

        # hypergraph: builds and closure-style queries from other modules.
        def built(args, result, parent):
            if parent == "entailment.decide":
                counts["entailment.realizability_checks"] += 1

        self.patch(entailment, "canonical_hypergraph", "hypergraph.build", built)
        for module, attrs in (
            (entailment, ("closure", "closure_trace", "crossing_edges", "reachability_cut")),
            (synth, ("crossing_edges", "reachability_cut")),
            (cli, ("reachability_cut",)),
        ):
            for attr in attrs:
                self.patch(module, attr, "hypergraph.closure")

        # kernels: every kernel built is wrapped in a counting proxy.
        build_kernel = kernels.closure_kernel

        def closure_kernel(*args, **kwargs):
            return _CountingKernel(build_kernel(*args, **kwargs), tracer)

        kernels.closure_kernel = self.span(
            "kernels.build", "kernels.closure_kernel", closure_kernel)

        # entailment
        self.patch(entailment, "min_budget", "entailment.min_budget")
        self.patch(entailment, "entails", "entailment.entails")
        synth.entails = entailment.entails
        self.patch(entailment, "check_refutation", "entailment.refutation_check")
        self.patch(entailment, "decide_satisfiable", "entailment.decide")
        self.patch(entailment, "decide_valid", "entailment.decide")
        self.patch(entailment, "eval_formula_hypergraph", "entailment.eval")
        synth.eval_formula_hypergraph = entailment.eval_formula_hypergraph
        self.patch(synth, "hyper_eval_atom", "entailment.eval")

        # proofs
        def proof_built(args, result, parent):
            stack = [result]
            while stack:
                node = stack.pop()
                counts["proofs.nodes"] += 1
                for attr in ("sub", "left", "right"):
                    child = getattr(node, attr, None)
                    if child is not None:
                        stack.append(child)

        self.patch(entailment, "build_proof", "proofs.build", proof_built)
        self.patch(proofs, "check_proof", "proofs.check")

        # synth
        def enumerated(args, result, parent):
            _, origin, maxlen = args
            counts["synth.paths_enumerated"] += len(result)
            tracer.distinct["synth.enumerations"].add((tracer.op_id, origin, maxlen))

        def chose(args, result, parent):
            _, cut, root = args
            counts["synth.witness_records"] += 1
            tracer.distinct["synth.cuts"].add((tracer.op_id, cut.left.mask, root))

        self.patch(synth, "counterexample_for", "synth.counterexample")
        self.patch(synth, "enumerate_paths", "synth.enumerate_paths", enumerated)
        self.patch(synth, "choice_function", "synth.counterexample", chose)
        for attr in ("verify_equations_sampled", "verify_equations_random",
                     "check_flip_claims", "_agreement_ok"):
            self.patch(synth, attr, "synth.verify")
        for attr in ("materialize_acyclic", "eval_atom_linear"):
            self.patch(synth, attr, "synth.materialize")
        self.patch(gf2, "nullspace", "gf2.nullspace")

        # infomodel and search
        self.patch(infomodel, "load_model_csv", "infomodel.load")
        from_json = infomodel.InfoModel.from_json_dict.__func__
        infomodel.InfoModel.from_json_dict = classmethod(
            self.span("infomodel.load", "infomodel.InfoModel.from_json_dict", from_json)
        )
        self.patch(infomodel, "mine_dependencies", "infomodel.mine")
        self.patch(infomodel, "eval_formula_model", "infomodel.check_model")

        def feasible_result(args, result, parent):
            counts["search.feasible_hits"] += bool(result)

        for attr in ("find_witness", "min_cost_subset"):
            search_fn = getattr(search, attr)

            def searched(costs, budget, feasible, _search=search_fn):
                return _search(costs, budget, self.span(
                    "search.feasible", "search.feasible", feasible, feasible_result))

            setattr(search, attr, self.span("search.search", f"search.{attr}", searched))

    # -- results ---------------------------------------------------------------

    def report(self, ops: int) -> dict:
        """Per-operation means of the per-layer metrics the tracer measures;
        the runner adds ``cli.import_s``, ``cli.json_bytes`` and ``trace.*``."""
        s, calls, counts = self.self_s, self.calls, self.counts
        leaf_calls, leaf_s = self.leaf_calls, self.leaf_s

        def ratio(part, whole):
            return part / whole if whole else 0.0

        total = {
            "cli.main_s": s["cli.main"],
            "cli.command_s": s["cli.command"],
            "formula.parse_s": s["formula.parse"],
            "formula.evaluate_calls": leaf_calls["formula.evaluate"],
            "formula.evaluate_s": leaf_s["formula.evaluate"],
            "hypergraph.built": calls["hypergraph.build"],
            "hypergraph.build_s": s["hypergraph.build"],
            "hypergraph.closure_calls": calls["hypergraph.closure"],
            "hypergraph.closure_s": s["hypergraph.closure"],
            "kernels.built": calls["kernels.build"],
            "kernels.build_s": s["kernels.build"],
            "kernels.closure_calls": leaf_calls["kernels.closure"],
            "kernels.closure_s": leaf_s["kernels.closure"],
            "entailment.min_budget_s": s["entailment.min_budget"],
            "entailment.entails_calls": calls["entailment.entails"],
            "entailment.entails_s": s["entailment.entails"],
            "entailment.decide_s": s["entailment.decide"],
            "entailment.eval_s": s["entailment.eval"],
            "entailment.assignments": counts["entailment.assignments"],
            "entailment.realizability_checks": counts["entailment.realizability_checks"],
            "entailment.refutation_check_s": s["entailment.refutation_check"],
            "proofs.build_s": s["proofs.build"],
            "proofs.check_s": s["proofs.check"],
            "proofs.nodes": counts["proofs.nodes"],
            "synth.counterexample_s": s["synth.counterexample"],
            "synth.enumerate_paths_calls": calls["synth.enumerate_paths"],
            "synth.enumerate_paths_s": s["synth.enumerate_paths"],
            "synth.paths_enumerated": counts["synth.paths_enumerated"],
            "synth.verify_s": s["synth.verify"],
            "synth.witness_records": counts["synth.witness_records"],
            "synth.materialize_s": s["synth.materialize"],
            "gf2.nullspace_s": s["gf2.nullspace"],
            "infomodel.load_s": s["infomodel.load"],
            "infomodel.mine_s": s["infomodel.mine"],
            "infomodel.check_model_s": s["infomodel.check_model"],
            "search.calls": calls["search.search"],
            "search.search_s": s["search.search"],
            "search.feasible_calls": calls["search.feasible"],
            "search.feasible_s": s["search.feasible"],
        }
        out = {name: value / ops for name, value in total.items()}
        out["entailment.skeleton_hit_ratio"] = ratio(
            counts["entailment.satisfying"], counts["entailment.assignments"])
        out["synth.path_reuse_ratio"] = ratio(
            len(self.distinct["synth.enumerations"]), calls["synth.enumerate_paths"])
        out["synth.distinct_cut_ratio"] = ratio(
            len(self.distinct["synth.cuts"]), counts["synth.witness_records"])
        out["search.feasible_hit_ratio"] = ratio(
            counts["search.feasible_hits"], calls["search.feasible"])
        out["below_main_s"] = sum(s.values()) - s["cli.main"] + sum(leaf_s.values())
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
