"""Budget-bounded subset search.

Feasibility is assumed monotone: if a subset works, every superset works.
Costs may be exact rationals or +inf; items costing more than the budget
are dropped up front.

Nothing in the package calls it: explicit-row and linear models decide
their atoms with ``infomodel.cheapest_purchase`` over
``entailment.closed_set_search``.  The module stays only because
``perfbench/tracer.py`` imports both of its names for its ``search.*``
metrics, and the tests use both in their subset-scan oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence


def _affordable(costs: Sequence, budget) -> list[int]:
    order = [i for i in range(len(costs)) if costs[i] <= budget]
    order.sort(key=lambda i: (costs[i], i))
    return order


def find_witness(
    costs: Sequence, budget, feasible: Callable[[tuple[int, ...]], bool]
) -> tuple[int, ...] | None:
    """Smallest subset (by cardinality, then cheapest-first discovery order)
    with total cost within budget and ``feasible`` true; None if there is none."""
    order = _affordable(costs, budget)

    def grow(start: int, need: int, chosen: list[int], left) -> tuple[int, ...] | None:
        if need == 0:
            picked = tuple(sorted(chosen))
            return picked if feasible(picked) else None
        for at in range(start, len(order) - need + 1):
            cost = costs[order[at]]
            if cost > left:
                break  # sorted by cost: nothing later fits either
            chosen.append(order[at])
            hit = grow(at + 1, need - 1, chosen, left - cost)
            chosen.pop()
            if hit is not None:
                return hit
        return None

    for size in range(len(order) + 1):
        hit = grow(0, size, [], budget)
        if hit is not None:
            return hit
    return None


def min_cost_subset(
    costs: Sequence, budget, feasible: Callable[[tuple[int, ...]], bool]
):
    """Cheapest feasible subset within budget: (total_cost, indices) or None."""
    order = _affordable(costs, budget)
    best: tuple[Fraction, tuple[int, ...]] | None = None

    def dfs(start: int, chosen: list[int], acc) -> None:
        nonlocal best
        if best is not None and acc >= best[0]:
            return
        if feasible(tuple(sorted(chosen))):
            best = (acc, tuple(sorted(chosen)))
            return  # supersets only cost more
        for at in range(start, len(order)):
            cost = costs[order[at]]
            if acc + cost > budget or (best is not None and acc + cost >= best[0]):
                break  # sorted by cost
            chosen.append(order[at])
            dfs(at + 1, chosen, acc + cost)
            chosen.pop()

    dfs(0, [], Fraction(0))
    return best
