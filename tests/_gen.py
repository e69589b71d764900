"""Random instance generators shared across the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from budgetfd import (
    Atom,
    Formula,
    Hypergraph,
    Implies,
    InfoModel,
    Not,
    Universe,
    conj,
    disj,
)
from budgetfd.infomodel import INF

WEIGHT_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
BUDGET_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(4)]
# Weights whose denominators have the lcm 210, and budgets that sums of them
# hit (1/3, 1) or miss (1/4, 7/10): the search's integer costs and its
# floored bound must agree with exact sums.
ODD_WEIGHT_GRID = [Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(5, 6),
                   Fraction(1)]
ODD_BUDGET_GRID = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(7, 10), Fraction(1),
                   Fraction(3, 2)]

NAMES = "abcdefghijkl"


def random_universe(rng: random.Random, max_size: int = 6, min_size: int = 2) -> Universe:
    return Universe(NAMES[: rng.randint(min_size, max_size)])


def random_attr_set(rng: random.Random, universe: Universe):
    mask = rng.randrange(1 << len(universe))
    from budgetfd import AttrSet

    return AttrSet(universe, mask)


def random_hypergraph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 12,
    max_tails: int = 2,
    max_heads: int = 2,
    weights=WEIGHT_GRID,
) -> Hypergraph:
    universe = random_universe(rng, max_vertices)
    names = universe.names
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        tails = rng.sample(names, rng.randint(0, min(max_tails, len(names))))
        heads = rng.sample(names, rng.randint(1, min(max_heads, len(names))))
        edges.append((tails, heads, rng.choice(weights)))
    return Hypergraph(universe, edges)


def random_atom(rng: random.Random, universe: Universe, budgets=BUDGET_GRID) -> Atom:
    return Atom(
        random_attr_set(rng, universe),
        random_attr_set(rng, universe),
        rng.choice(budgets),
    )


def random_formula(
    rng: random.Random,
    universe: Universe,
    max_atoms: int = 4,
    budgets=BUDGET_GRID,
    max_depth: int = 3,
) -> Formula:
    pool = [random_atom(rng, universe, budgets) for _ in range(rng.randint(1, max_atoms))]

    def build(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(pool)
        shape = rng.randrange(4)
        if shape == 0:
            return Not(build(depth - 1))
        if shape == 1:
            return Implies(build(depth - 1), build(depth - 1))
        if shape == 2:
            return conj(build(depth - 1), build(depth - 1))
        return disj(build(depth - 1), build(depth - 1))

    return build(rng.randint(1, max_depth))


def random_model(
    rng: random.Random,
    max_attrs: int = 5,
    max_rows: int = 6,
    costs=WEIGHT_GRID,
    allow_inf: bool = False,
) -> InfoModel:
    n = rng.randint(1, max_attrs)
    universe = Universe(NAMES[:n])
    chosen = []
    for _ in range(n):
        if allow_inf and rng.random() < 0.15:
            chosen.append(INF)
        else:
            chosen.append(rng.choice(costs))
    rows = set()
    for _ in range(rng.randint(1, max_rows)):
        rows.add(tuple(str(rng.randint(0, 2)) for _ in range(n)))
    return InfoModel(universe, tuple(chosen), tuple(sorted(rows)))
