"""Benchmark the `prove` path around the search: premise load, hypergraph
build and refutation check.

Premise sets are shaped like the prove benchmark's: 16 vertices with 32
premises (20 priced) and 24 vertices with 48 (24 priced), priced purchases
``{} |p {x}`` or ``{y} |p {x}`` and free dependencies ``{a,b} |0 {c,d}``.
Each set is written to a premise file, and three layers are timed over all
of them in turn:

  * ``cli.load_premises``, which reads the file and parses every line
    straight to a ``(lhs mask, rhs mask, budget)`` triple;
  * ``entailment.canonical_hypergraph`` on those triples;
  * ``entailment.check_refutation`` on the certificates of goals that do
    not follow (found by ``entails``, untimed).

Every triple the loader returns must hold the masks and the budget of the
atom the grammar parser (``formula._Parser``) builds from the same line,
and every certificate must pass the check; the script stops with an
assertion error otherwise.  The
refutation check uses the compiled closure kernel when it is built (see
the README's Compiled kernel section).

Run:  python3 benchmarks/bench_load.py [--sets N] [--reps N] [--seed N]
"""

import argparse
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from budgetfd import Atom, cli, entailment, kernels  # noqa: E402
from budgetfd.formula import _Parser  # noqa: E402

SHAPES = [(16, 32, 20), (24, 48, 24)]  # vertices, premises, priced premises
PRICES = ["1/2", "1", "3/2", "2", "5/2", "3", "4", "5"]
GOALS_PER_SET = 12


def premise_file(rng, n_vertices, n_premises, priced):
    names = [f"v{i}" for i in range(n_vertices)]

    def some(most):
        return "{" + ",".join(rng.sample(names, rng.randint(1, most))) + "}"

    lines = []
    for k in range(n_premises):
        if k < priced:
            tails = "{}" if rng.random() < 0.6 else some(1)
            lines.append(f"{tails} |{rng.choice(PRICES)} {some(1)}")
        else:
            lines.append(f"{some(2)} |0 {some(2)}")
    rng.shuffle(lines)
    return names, "attrs: " + ",".join(names) + "\n" + "\n".join(lines) + "\n"


def grammar_atom(text, universe):
    parser = _Parser(text, universe)
    out = parser.atom()
    parser.take("end")
    return out


def refutations(rng, premises, universe, names):
    """Goals ``{x} |p {y,...}`` that do not follow, with their certificates."""
    out = []
    for _ in range(GOALS_PER_SET):
        lhs = universe.set_of(rng.sample(names, rng.randint(1, 2)))
        rhs = universe.set_of(rng.sample(names, rng.randint(1, 3)))
        goal = Atom(lhs, rhs, Fraction(rng.choice(PRICES)))
        answer = entailment.entails(premises, goal)
        if not answer.entailed:
            out.append((answer.hypergraph, goal, answer.refutation))
    return out


def timed(reps, calls):
    """Seconds per call of the fastest of ``reps`` passes over ``calls``."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for call in calls:
            call()
        best = min(best, time.perf_counter() - start)
    return best / len(calls)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=40, help="premise sets per shape")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'compiled' if kernels.compiled_available() else 'pure'} closure kernel")
    with tempfile.TemporaryDirectory() as tmp:
        for n_vertices, n_premises, priced in SHAPES:
            paths, loaded, checks = [], [], []
            for i in range(args.sets):
                names, text = premise_file(rng, n_vertices, n_premises, priced)
                path = Path(tmp) / f"premises-{n_vertices}-{i}.txt"
                path.write_text(text)
                universe, premises = cli.load_premises(str(path), None)
                for line, premise in zip(text.splitlines()[1:], premises, strict=True):
                    atom = grammar_atom(line, universe)
                    assert premise == (atom.lhs.mask, atom.rhs.mask, atom.budget), line
                paths.append(str(path))
                loaded.append((universe, premises))
                checks += refutations(rng, premises, universe, names)
            for h, goal, cert in checks:
                assert entailment.check_refutation(h, goal, cert), goal

            load = timed(args.reps, [lambda p=p: cli.load_premises(p, None) for p in paths])
            build = timed(args.reps, [lambda u=u, ps=ps: entailment.canonical_hypergraph(ps, u)
                                      for u, ps in loaded])
            check = timed(args.reps, [lambda c=c: entailment.check_refutation(*c)
                                      for c in checks])
            mean_family = sum(len(cert.family) for *_, cert in checks) / len(checks)
            print(f"\n{n_vertices} vertices x {n_premises} premises, {args.sets} files, "
                  f"{len(checks)} refutations (mean family {mean_family:.1f})")
            print(f"  load_premises          {load * 1e6:8.1f} us/file")
            print(f"  canonical_hypergraph   {build * 1e6:8.1f} us/set")
            print(f"  check_refutation       {check * 1e6:8.1f} us/certificate")


if __name__ == "__main__":
    main()
