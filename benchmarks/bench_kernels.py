"""Benchmark the compiled closure kernel against its pure-Python twin.

Both kernels run the same worklist algorithm (``closure`` is ``extend`` from
the empty set once the tail-less edges have fired), so the comparison
measures C against Python, not one algorithm against another.

Three workloads:
  * raw closure calls on random instances (the kernel inner loop);
  * exhaustive min-budget scans (the brute-force oracle), which spend
    nearly all their time inside the kernel;
  * search steps, shaped like the closed-set search's transitions on the
    prove benchmark's larger premise sets: a set closed under the free
    edges plus the head of one purchase, answered by ``extend(free, closed,
    head)`` and, for comparison, by ``closure(free, closed | head)`` from
    scratch.

Every row is timed over ``PASSES`` passes, each on freshly built kernels,
and reports the best and the median pass: a single pass swings up to 2x
between runs of the same code on a loaded 2-core machine.
Every kernel present must return, in every pass and call for call, the
closure that the round-based fixpoint ``hypergraph.closure_rounds``
computes on the same masks; the script stops with an assertion error
otherwise.

The compiled kernel is benchmarked when it is built; build it in place
from the hand-written ``src/budgetfd/_closure_c.c`` (a C compiler is
enough) with

      python3 setup.py build_ext --inplace

Run:  python3 benchmarks/bench_kernels.py [--edges N] [--vertices N]
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from budgetfd import AttrSet, Hypergraph, Universe, _closure_py, kernels  # noqa: E402
from budgetfd.hypergraph import closure_rounds  # noqa: E402

PASSES = 5


def random_instance(rng, n_vertices, n_edges):
    full = (1 << n_vertices) - 1
    tails = [rng.randrange(full + 1) for _ in range(n_edges)]
    heads = [rng.randrange(full + 1) for _ in range(n_edges)]
    return tails, heads


def scan_queries(tails):
    return [(mask, 1) for mask in range(1 << len(tails))]


# Premise sets shaped like the prove benchmark's larger ones: purchases of
# one vertex with no tail or one, and free edges with one or two tails and
# heads.
STEP_VERTICES, STEP_PURCHASES, STEP_FREE = 24, 24, 24


def step_workload(rng, count):
    """A step instance and ``count`` steps ``(free edges, closed, head)``:
    ``closed`` is the free edges' closure of a source and a few purchased
    heads, as the closed-set search's states are."""
    def pick(most):
        mask = 0
        for _ in range(rng.randint(1, most)):
            mask |= 1 << rng.randrange(STEP_VERTICES)
        return mask

    tails = ([0 if rng.random() < 0.6 else pick(1) for _ in range(STEP_PURCHASES)]
             + [pick(2) for _ in range(STEP_FREE)])
    heads = [pick(1) for _ in range(STEP_PURCHASES)] + [pick(2) for _ in range(STEP_FREE)]
    free = ((1 << STEP_FREE) - 1) << STEP_PURCHASES
    kernel = _closure_py.ClosureKernel(tails, heads, STEP_VERTICES)
    steps = []
    for _ in range(count):
        start = pick(2)
        for head in rng.sample(heads[:STEP_PURCHASES], rng.randint(0, 4)):
            start |= head
        closed = kernel.closure(free, start)
        steps.append((free, closed, rng.choice(heads[:STEP_PURCHASES])))
    return (tails, heads, STEP_VERTICES), steps


def bench(kernel_cls, instances, queries, method, expected):
    """Time every query on freshly built kernels, ``PASSES`` times, checking
    each pass's answers against ``expected``; return the best and the median
    seconds of a pass."""
    times = []
    for _ in range(PASSES):
        results = []
        start = time.perf_counter()
        for (tails, heads, n_vertices), asks in zip(instances, queries):
            call = getattr(kernel_cls(tails, heads, n_vertices), method)
            for ask in asks:
                results.append(call(*ask))
        times.append(time.perf_counter() - start)
        assert results == expected, f"{kernel_cls} disagrees with the round-based fixpoint"
    return min(times), statistics.median(times)


def reference(instances, queries):
    """The same queries answered by the round-based fixpoint."""
    results = []
    for (tails, heads, n_vertices), asks in zip(instances, queries):
        u = Universe([f"v{i}" for i in range(n_vertices)])
        h = Hypergraph(u, [(AttrSet(u, t), AttrSet(u, s), 0) for t, s in zip(tails, heads)])
        for edge_mask, start_mask in asks:
            results.append(closure_rounds(h, AttrSet(u, start_mask), h.edge_ids(edge_mask)).mask)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=6)
    parser.add_argument("--edges", type=int, default=12)
    parser.add_argument("--instances", type=int, default=60)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    instances = []
    raw_queries = []
    for _ in range(args.instances):
        tails, heads = random_instance(rng, args.vertices, args.edges)
        instances.append((tails, heads, args.vertices))
        full_v = (1 << args.vertices) - 1
        full_e = (1 << args.edges) - 1
        raw_queries.append(
            [(rng.randrange(full_e + 1), rng.randrange(full_v + 1))
             for _ in range(args.queries)]
        )

    compiled = kernels.compiled_available()
    kernel_classes = [("pure", _closure_py.ClosureKernel)]
    if compiled:
        if args.vertices > 64 or args.edges > 64:
            parser.error("the compiled kernel takes at most 64 vertices and 64 edges")
        kernel_classes.append(("compiled", kernels.closure_kernel))
    else:
        print("compiled kernel not built; benchmarking the pure kernel only")

    step_instances, steps = zip(*(step_workload(rng, args.queries)
                                  for _ in range(args.instances)))
    workloads = [
        ("raw", f"raw closure: {args.instances} graphs x {args.queries} queries "
                f"({args.vertices} vertices, {args.edges} edges)",
         "closure", instances, raw_queries),
        ("scan", f"brute-force scan: {args.instances} graphs x 2^{args.edges} edge subsets",
         "closure", instances, [scan_queries(tails) for tails, _, _ in instances]),
        ("step", f"search steps by extend: {args.instances} graphs x {args.queries} steps "
                 f"({STEP_VERTICES} vertices, {STEP_PURCHASES} purchases, {STEP_FREE} free edges)",
         "extend", step_instances, steps),
        ("step-closure", "the same steps by closure from scratch",
         "closure", step_instances,
         [[(free, closed | new) for free, closed, new in asks] for asks in steps]),
    ]
    results = {}
    for workload, title, method, graphs, queries in workloads:
        print(f"\n{title}")
        # a step's answer is the closure of the union, which the fixpoint gives
        expected = reference(graphs, [[(ask[0], ask[-1] | ask[1]) for ask in asks]
                                      for asks in queries])
        for name, cls in kernel_classes:
            best, median = bench(cls, graphs, queries, method, expected)
            results[(workload, name)] = best
            rate = len(expected) / best / 1e6
            print(f"  {name:9s} best {best:7.3f}s  median {median:7.3f}s  "
                  f"{rate:6.2f} M calls/s at best")

    print(f"\nbest of {PASSES} passes:")
    if compiled:
        for workload in ("raw", "scan"):
            speedup = results[(workload, "pure")] / results[(workload, "compiled")]
            print(f"{workload}: compiled is {speedup:.1f}x faster")
    for name, _ in kernel_classes:
        step, scratch = results[("step", name)], results[("step-closure", name)]
        print(f"step, {name}: extend {step:.3f}s, closure from scratch {scratch:.3f}s "
              f"({scratch / step:.1f}x)")


if __name__ == "__main__":
    main()
