"""Benchmark the compiled closure kernel against the pure-Python fallback.

Two workloads:
  * raw closure calls on random instances (the kernel inner loop);
  * exhaustive min-budget scans (the brute-force oracle), which spend
    nearly all their time inside the kernel.

Every kernel present must return, call for call, the closure that the
round-based fixpoint ``hypergraph.closure_rounds`` computes on the same
masks; the script stops with an assertion error otherwise.

The compiled kernel is benchmarked when it is built; build it in place
from the committed C file (a C compiler is enough, no Cython) with

      python3 setup.py build_ext --inplace

Run:  python3 benchmarks/bench_kernels.py [--edges N] [--vertices N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from budgetfd import AttrSet, Hypergraph, Universe, _closure_py  # noqa: E402
from budgetfd.hypergraph import closure_rounds  # noqa: E402

try:
    from budgetfd import _closure_c
except ImportError:
    _closure_c = None


def random_instance(rng, n_vertices, n_edges):
    full = (1 << n_vertices) - 1
    tails = [rng.randrange(full + 1) for _ in range(n_edges)]
    heads = [rng.randrange(full + 1) for _ in range(n_edges)]
    return tails, heads


def scan_queries(tails):
    return [(mask, 1) for mask in range(1 << len(tails))]


def bench(kernel_cls, instances, queries):
    """Time every query on a freshly built kernel; return (seconds, results)."""
    results = []
    start = time.perf_counter()
    for (tails, heads, n_vertices), asks in zip(instances, queries):
        kernel = kernel_cls(tails, heads, n_vertices)
        for edge_mask, start_mask in asks:
            results.append(kernel.closure(edge_mask, start_mask))
    return time.perf_counter() - start, results


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

    kernels = [("pure", _closure_py.ClosureKernel)]
    if _closure_c is not None:
        kernels.append(("compiled", _closure_c.ClosureKernel))
    else:
        print("compiled kernel not built; benchmarking the pure kernel only")

    workloads = [
        ("raw", f"raw closure: {args.instances} graphs x {args.queries} queries "
                f"({args.vertices} vertices, {args.edges} edges)", raw_queries),
        ("scan", f"brute-force scan: {args.instances} graphs x 2^{args.edges} edge subsets",
         [scan_queries(tails) for tails, _, _ in instances]),
    ]
    results = {}
    for workload, title, queries in workloads:
        print(f"\n{title}")
        expected = reference(instances, queries)
        for name, cls in kernels:
            elapsed, got = bench(cls, instances, queries)
            assert got == expected, f"{name} kernel disagrees with the round-based fixpoint"
            results[(workload, name)] = elapsed
            rate = len(got) / elapsed / 1e6
            print(f"  {name:9s} {elapsed:7.3f}s   {rate:6.2f} M closures/s")

    if _closure_c is not None:
        for workload, _, _ in workloads:
            speedup = results[(workload, "pure")] / results[(workload, "compiled")]
            print(f"\n{workload}: compiled is {speedup:.1f}x faster")


if __name__ == "__main__":
    main()
