"""Seeded input generators for the two workloads.

``prove`` holds the prove and min-budget operations; ``formulas-models``
holds the sat/valid, counterexample and mine/check-model operations.  Each
workload is a list of operations plus the input files they read.  An
operation is one ``budgetfd`` CLI invocation; ``spec`` keeps the structured
input the checks in ``checks.py`` compare its output against.  The same
seed always gives the same operations and files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import refs

PRICES = [Fraction(x) for x in ("1/2", "1", "3/2", "2", "5/2", "3", "4", "5")]


@dataclass
class Op:
    kind: str
    argv: list[str]
    spec: dict = field(default_factory=dict)

    def files(self) -> list[str]:
        """Input files the operation reads, as named in ``argv``."""
        return [a for a in self.argv if a.endswith((".txt", ".json", ".csv", ".costs"))]


@dataclass
class Workload:
    ops: list[Op]
    files: dict[str, str]
    setup: Op  # the small fixed query each fresh interpreter answers for setup_s


def _pick(rng: random.Random, n: int, lo: int, hi: int) -> int:
    return sum(1 << i for i in rng.sample(range(n), rng.randint(lo, hi)))


def premise_text(names: list[str], atoms) -> str:
    lines = ["attrs: " + ",".join(names)]
    lines += [refs.atom_text(names, a) for a in atoms]
    return "\n".join(lines) + "\n"


def formula_file(names: list[str], f) -> str:
    return "attrs: " + ",".join(names) + "\n" + refs.formula_text(names, f) + "\n"


# -- prove ---------------------------------------------------------------------
#
# Premise sets follow the paper's examples: priced purchases (``{} |p {x}``
# or ``{y} |p {x}``) plus free dependencies (``{a,b} |0 {c,d}``).  The
# branch-and-bound cost of a query grows with the number of purchase sets
# cheaper than its minimum, so queries are drawn in fixed quotas per band
# of log2(1 + that count), counted by the generator from the reference
# minimum.  The mix is then the same for every seed and the heavy tail is
# present in every run in the same proportion.

PROVE_CLASSES = [
    # vertices, edges, priced edges, unreachable quota, quota per band, bands
    (16, 32, 20, 33, 66, range(0, 8)),
    (24, 48, 24, 33, 66, range(0, 10)),
]
QUERIES_PER_PREMISE_SET = 12


def _premises(rng: random.Random, nv: int, ne: int, priced: int) -> list:
    atoms = []
    for k in range(ne):
        if k < priced:
            tails = 0 if rng.random() < 0.6 else _pick(rng, nv, 1, 1)
            atom = (tails, _pick(rng, nv, 1, 1), rng.choice(PRICES))
        else:
            atom = (_pick(rng, nv, 1, 2), _pick(rng, nv, 1, 2), Fraction(0))
        atoms.append(atom)
    rng.shuffle(atoms)
    return refs.dedup(atoms)


def weight_counts(weights, limit: Fraction) -> list[int]:
    """``counts[k]``: subsets of ``weights`` (multiples of 1/2) weighing k/2,
    for k/2 up to ``limit``."""
    top = int(limit * 2)
    counts = [1] + [0] * top
    for weight in weights:
        w = int(weight * 2)
        for total in range(top, w - 1, -1):
            counts[total] += counts[total - w]
    return counts


def cheaper_purchase_sets(edges, source: int, minimum: Fraction) -> int:
    """Sets of priced edges adding something to ``source`` that weigh less
    than ``minimum``."""
    priced = [w for tails, heads, w in edges if w != 0 and heads & ~source]
    return sum(weight_counts(priced, minimum)[:int(minimum * 2)])


def prove_workload(rng: random.Random) -> Workload:
    ops: list[Op] = []
    files: dict[str, str] = {}
    for nv, ne, priced, unreachable, per_band, bands in PROVE_CLASSES:
        names = [f"v{i}" for i in range(nv)]
        need = {-1: unreachable, **{b: per_band for b in bands}}
        while any(need.values()):
            edges = _premises(rng, nv, ne, priced)
            fname = f"premises{len(files)}.txt"
            used = False
            for _ in range(QUERIES_PER_PREMISE_SET):
                source = _pick(rng, nv, 1, 2)
                target = _pick(rng, nv, 1, 3)
                minimum = refs.min_budget(edges, source, target)
                if minimum is None:
                    band = -1
                else:
                    band = int(math.log2(1 + cheaper_purchase_sets(edges, source, minimum)))
                if need.get(band, 0) == 0:
                    continue
                need[band] -= 1
                used = True
                ops.append(_prove_op(rng, names, fname, edges, source, target, minimum, len(ops)))
            if used:
                files[fname] = premise_text(names, edges)
    rng.shuffle(ops)
    setup_names = ["a", "b", "c"]
    files["setup_premises.txt"] = premise_text(
        setup_names, [(0, 1, Fraction(3)), (0, 2, Fraction(5)), (0, 4, Fraction(4)),
                      (5, 2, Fraction(0)), (6, 1, Fraction(0))]
    )
    setup = Op("prove", ["--json", "prove", "--premises", "setup_premises.txt",
                         "--goal", "{a} |4 {b}"])
    return Workload(ops, files, setup)


def _prove_op(rng, names, fname, edges, source, target, minimum, k) -> Op:
    spec = {"names": names, "premises": edges, "source": source, "target": target,
            "minimum": minimum}
    if k % 3 == 2:
        return Op("min-budget", ["--json", "min-budget", "--premises", fname,
                                 "--from", refs.set_text(names, source),
                                 "--to", refs.set_text(names, target)], spec)
    if minimum is None:
        budget = rng.choice(PRICES)
    elif k % 3 == 0 or minimum == 0:
        budget = minimum + rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
    else:
        budget = max(Fraction(0), minimum - rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))
    goal = (source, target, budget)
    spec["goal"] = goal
    return Op("prove", ["--json", "prove", "--premises", fname,
                        "--goal", refs.atom_text(names, goal)], spec)


# -- sat-valid -------------------------------------------------------------------
#
# Chains "P1 & ... & P(n-1) => G" cost 2^n formula evaluations when valid and
# about half that or more when invalid, so their cost is set by n.
# Disjunctions "(A1 & !B1) | ... | (Ak & !Bk)" where every Bi follows from
# Ai have only unrealizable satisfying assignments: deciding them takes one
# realizability check per satisfying assignment.  With one pair whose B does
# not follow from its A, the formula becomes satisfiable.

SV_NAMES = list("abcdef")
CHAIN_QUOTA = {10: 12, 11: 9, 12: 4, 13: 2, 14: 1}  # per verdict, per round
DISJUNCTION_QUOTA = {4: 17, 5: 4}  # per op kind and verdict, per round


def _atom(rng: random.Random, n: int, free_ok: bool = True):
    budgets = ([Fraction(0)] if free_ok else []) + PRICES
    return (_pick(rng, n, 0, 2), _pick(rng, n, 1, 2), rng.choice(budgets))


def _chain(rng: random.Random, n: int, valid: bool):
    names = SV_NAMES
    while True:
        premises = refs.dedup(_atom(rng, len(names)) for _ in range(n - 1))
        if len(premises) < n - 1:
            continue
        lhs, rhs = _pick(rng, len(names), 1, 2), _pick(rng, len(names), 1, 2)
        if rhs & ~lhs == 0:
            continue
        minimum = refs.min_budget(premises, lhs, rhs)
        if valid:
            if minimum is None:
                continue
            budget = minimum + rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
        elif minimum is None:
            budget = rng.choice(PRICES)
        elif minimum >= 1:
            budget = minimum - rng.choice([Fraction(1, 2), Fraction(1)])
        else:
            continue
        goal = (lhs, rhs, budget)
        if goal in premises:
            continue
        premises_f = ("and", [("atom", a) for a in premises])
        return ("imp", premises_f, ("atom", goal))


def _derived(rng: random.Random, a):
    """An atom that follows from ``a`` alone (weaker right side or more budget)."""
    lhs, rhs, budget = a
    while True:
        smaller = rhs & _pick(rng, len(SV_NAMES), 1, len(SV_NAMES)) or rhs
        extra = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
        b = (lhs, smaller, budget + extra)
        if b != a:
            return b


def _disjunction(rng: random.Random, k: int, blocked_all: bool):
    while True:
        firsts = [_atom(rng, len(SV_NAMES), free_ok=False) for _ in range(k)]
        seconds = [_derived(rng, a) for a in firsts]
        if not blocked_all:
            seconds[-1] = _atom(rng, len(SV_NAMES))
        atoms = firsts + seconds
        if len(set(atoms)) < 2 * k:
            continue
        if not blocked_all:
            lone = {a: a == firsts[-1] for a in atoms}
            if not refs.realizable(lone):  # keep the formula satisfiable
                continue
        order = list(range(k))
        rng.shuffle(order)
        return ("or", [("and", [("atom", firsts[i]), ("not", ("atom", seconds[i]))])
                       for i in order])


def _sat_valid_ops(rng: random.Random, files: dict[str, str]) -> list[Op]:
    names = SV_NAMES
    ops: list[Op] = []

    def add(kind: str, f) -> None:
        fname = f"formula{len(files)}.txt"
        files[fname] = formula_file(names, f)
        ops.append(Op(kind, ["--json", kind, fname], {"names": names, "formula": f}))

    for n, count in CHAIN_QUOTA.items():
        for _ in range(count):
            add("valid", _chain(rng, n, valid=True))
            add("valid", _chain(rng, n, valid=False))
    for k, count in DISJUNCTION_QUOTA.items():
        for _ in range(count):
            for blocked_all in (True, False):
                f = _disjunction(rng, k, blocked_all)
                add("sat", f)
                add("valid", ("not", f))
    return ops


# -- counterexample --------------------------------------------------------------
#
# "P1 & ... & Pk => G1 | G2" with neither goal following from the premises
# has exactly one falsifying assignment, so the countermodel is the premise
# hypergraph itself.  The package's cost is about (purchase sets within the
# goals' budgets) x (edge-initiated paths up to the verification depth), so
# cyclic instances are drawn in fixed quotas per band of log2 of that
# product; acyclic instances (exact GF(2) materialization) have a quota of
# their own.

CX_PRICES = [Fraction(x) for x in ("1/2", "1", "3/2", "2", "3")]
CX_DEPTH = 6  # the CLI's default --depth
# Dimensions 11 and 12 are left out: their packages print 2048 or 4096 model
# rows, and one of them alone moves peak memory by several MiB.
CX_ACYCLIC_BANDS = {"d<=8": 15, "d9-10": 21, "d>=13": 9}
CX_CYCLIC_BANDS = {5: 15, 6: 15, 7: 15, 8: 15, 9: 15, 10: 14, 11: 14, 12: 12, 13: 6, 14: 3}


def _paths(edges, n: int, ending: list[int], steps: int) -> int:
    """Paths counted by their last vertex (``ending``), extended ``steps`` times."""
    total = sum(ending)
    for _ in range(steps):
        nxt = [0] * n
        for tails, heads, _ in edges:
            flow = sum(ending[u] for u in range(n) if tails >> u & 1)
            for v in range(n):
                if heads >> v & 1:
                    nxt[v] += flow
        ending = nxt
        total += sum(ending)
    return total


def edge_paths(edges, n: int, depth: int) -> int:
    """Edge-initiated paths with at most ``depth`` edges."""
    return _paths(edges, n, [sum(1 for e in edges if e[1] >> v & 1) for v in range(n)],
                  depth - 1)


def vertex_paths(edges, n: int) -> int:
    """Vertex-initiated paths with at most ``n`` edges: the dimension of the
    materialized model of an acyclic hypergraph (each edge-initiated path
    adds one coordinate and one independent equation)."""
    return _paths(edges, n, [1] * n, n)


def _dimension_band(dim: int) -> str | None:
    if dim <= 8:
        return "d<=8"
    if dim <= 10:
        return "d9-10"
    return "d>=13" if dim >= 13 else None


def purchase_sets(edges, budget: Fraction) -> int:
    """Edge sets of total weight within ``budget``."""
    return sum(weight_counts([w for _, _, w in edges], budget))


def _cx_instance(rng: random.Random, acyclic: bool):
    n = rng.randint(4, 6)
    order = list(range(n))
    rng.shuffle(order)
    premises = []
    for _ in range(rng.randint(5, 8)):
        head = rng.randrange(n)
        if acyclic:  # tails strictly before the head in a fixed vertex order
            before = order[:order.index(head)]
            tails = sum(1 << v for v in rng.sample(before, min(len(before), rng.randint(0, 2))))
        else:
            tails = _pick(rng, n, 0, 2)
        premises.append((tails, 1 << head, rng.choice(CX_PRICES)))
    premises = refs.dedup(premises)
    goals = []
    for _ in range(2):
        lhs, rhs = _pick(rng, n, 0, 1), _pick(rng, n, 1, 1)
        minimum = refs.min_budget(premises, lhs, rhs)
        if rhs & ~lhs == 0 or (minimum is not None and minimum < 1):
            return None
        budget = rng.choice(CX_PRICES) if minimum is None else minimum - Fraction(1, 2)
        goals.append((lhs, rhs, budget))
    if len(set(goals)) < 2 or set(goals) & set(premises):
        return None
    return n, premises, goals


def _counterexample_ops(rng: random.Random, files: dict[str, str]) -> list[Op]:
    ops: list[Op] = []
    need = {**CX_ACYCLIC_BANDS, **CX_CYCLIC_BANDS}
    while any(need.values()):
        acyclic = rng.random() < 0.5
        found = _cx_instance(rng, acyclic)
        if found is None:
            continue
        n, premises, goals = found
        if acyclic:
            if refs.is_cyclic(premises, n):
                continue
            band = _dimension_band(vertex_paths(premises, n))
        else:
            if not refs.is_cyclic(premises, n):
                continue
            sets = sum(purchase_sets(premises, g[2]) for g in goals)
            work = edge_paths(premises, n, CX_DEPTH) * sets
            band = int(math.log2(work))
        if need.get(band, 0) == 0:
            continue
        need[band] -= 1
        names = list("abcdef")[:n]
        f = ("imp", ("and", [("atom", a) for a in premises]),
             ("or", [("atom", g) for g in goals]))
        fname = f"formula{len(files)}.txt"
        files[fname] = formula_file(names, f)
        ops.append(Op("counterexample",
                      ["--json", "counterexample", "--formula", fname, "--materialize"],
                      {"names": names, "formula": f, "premises": premises}))
    return ops


def formulas_models_workload(rng: random.Random) -> Workload:
    files: dict[str, str] = {}
    ops = _sat_valid_ops(rng, files) + _counterexample_ops(rng, files) + _models_ops(rng, files)
    rng.shuffle(ops)
    files["setup_formula.txt"] = "attrs: a,b,c\n{a} |4 {b} => {} |4 {b}\n"
    setup = Op("counterexample", ["--json", "counterexample", "--formula",
                                  "setup_formula.txt", "--materialize"])
    return Workload(ops, files, setup)


# -- models ------------------------------------------------------------------------
#
# Tables whose columns are either free (a few values drawn at random) or
# functions of one or two earlier columns, so that dependencies exist to be
# mined.  Prices are rational, some are inf.  ``mine`` scans rows once per
# candidate purchase set of every left side; ``check-model`` does the same
# scan per atom of a formula, through the same row-scan code.

MINED_TABLES = [(n, rows) for n in (6, 7, 8) for rows in (500, 1000)] * 3
MINE_SETTINGS = [(Fraction(3), 2), (Fraction(4), 1)]  # (--cap, --max-lhs)
CHECKED_TABLES = [(n, rows) for n in (9, 10) for rows in (2000, 2500, 3000)]
CHECKS_PER_TABLE = 7
FORMULA_ATOMS = 4


def _table(rng: random.Random, n: int, rows: int):
    """Half the columns after the first two are functions of one or two
    earlier columns; the others are free, with 2, 3 or 4 values.  One
    attribute costs inf, the others take distinct prices."""
    names = [f"c{i}" for i in range(n)]
    costs = rng.sample(PRICES + [Fraction(6), Fraction(7)], n - 1) + [None]
    rng.shuffle(costs)
    derived = set(rng.sample(range(2, n), (n - 2) // 2))
    columns: list[list[str]] = []
    for i in range(n):
        if i in derived:
            sources = rng.sample(range(i), rng.randint(1, 2))
            mapping: dict = {}
            columns.append([
                mapping.setdefault(tuple(columns[c][r] for c in sources), str(rng.randrange(3)))
                for r in range(rows)
            ])
        else:
            domain = 2 + i % 3
            columns.append([str(rng.randrange(domain)) for _ in range(rows)])
    return names, costs, [tuple(col[r] for col in columns) for r in range(rows)]


def _model_formula(rng: random.Random, n: int):
    atoms = [(_pick(rng, n, 0, 2), _pick(rng, n, 1, 1), rng.choice([Fraction(0)] + PRICES))
             for _ in range(FORMULA_ATOMS)]
    node = ("atom", atoms[0])
    for a in atoms[1:]:
        kind = rng.choice(["and", "or", "imp"])
        node = ("imp", node, ("atom", a)) if kind == "imp" else (kind, [node, ("atom", a)])
    return node


def _models_ops(rng: random.Random, files: dict[str, str]) -> list[Op]:
    ops: list[Op] = []
    shapes = [(n, rows, MINE_SETTINGS) for n, rows in MINED_TABLES]
    shapes += [(n, rows, []) for n, rows in CHECKED_TABLES]
    for n, rows, mines in shapes:
        names, costs, table_rows = _table(rng, n, rows)
        base = f"table{len(files)}"
        lines = [",".join(names)] + [",".join(r) for r in table_rows]
        files[base + ".csv"] = "\n".join(lines) + "\n"
        files[base + ".costs"] = "".join(
            f"{name}={'inf' if c is None else c}\n" for name, c in zip(names, costs))
        files[base + ".json"] = json.dumps({
            "attributes": [{"name": name, "cost": "inf" if c is None else str(c)}
                           for name, c in zip(names, costs)],
            "tuples": [list(r) for r in table_rows],
        })
        spec = {"names": names, "table": refs.Table(names, costs, table_rows)}
        for cap, max_lhs in mines:
            ops.append(Op("mine", ["--json", "mine", "--csv", base + ".csv", "--costs",
                                   base + ".costs", "--cap", str(cap), "--max-lhs", str(max_lhs)],
                          dict(spec, cap=cap, max_lhs=max_lhs)))
        for _ in range(CHECKS_PER_TABLE):
            f = _model_formula(rng, n)
            fname = f"formula{len(files)}.txt"
            files[fname] = formula_file(names, f)
            ops.append(Op("check-model", ["--json", "check-model", "--model", base + ".json",
                                          "--formula", fname], dict(spec, formula=f)))
    return ops


WORKLOADS = {
    "prove": prove_workload,
    "formulas-models": formulas_models_workload,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
