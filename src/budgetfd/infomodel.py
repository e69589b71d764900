"""Finite informational models with explicit legitimate-tuple sets.

A model assigns every attribute a value domain and a price (exact rational
or +inf for "not for sale"), and lists the legitimate value vectors
explicitly — one row per admissible combination.  An atom ``A |p B`` holds
when some purchase set C with total price at most p makes A∪C determine B
across all rows.  The explicit row list keeps the checker exact and makes
CSV ingestion natural (each data row is a legitimate vector).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Iterable, Mapping, Sequence, Union

from . import search
from .errors import BudgetFDError, CapExceededError, field, read_text
from .formula import (
    AttrSet,
    Atom,
    Formula,
    Universe,
    evaluate_lazily,
    format_budget,
    parse_budget,
)

INF = float("inf")
Cost = Union[Fraction, float]

AFFORDABLE_ATTR_CAP = 24


def parse_cost(text: str) -> Cost:
    text = text.strip()
    if text in ("inf", "+inf", "infinity"):
        return INF
    return parse_budget(text)


def format_cost(cost: Cost) -> str:
    return "inf" if cost == INF else format_budget(cost)


@dataclass(frozen=True)
class InfoModel:
    universe: Universe
    costs: tuple[Cost, ...]
    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self):
        n = len(self.universe)
        if len(self.costs) != n:
            raise ValueError("one cost per attribute required")
        for c in self.costs:
            if c != INF and (not isinstance(c, Fraction) or c < 0):
                raise ValueError(f"bad attribute cost {c!r}")
        if not self.rows:
            raise ValueError("a model needs at least one legitimate vector")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("every row must assign a value to every attribute")

    def domain(self, index: int) -> frozenset:
        return frozenset(row[index] for row in self.rows)

    def cost_of(self, name: str) -> Cost:
        return self.costs[self.universe.index(name)]

    def to_json_dict(self) -> dict:
        return {
            "attributes": [
                {"name": name, "cost": format_cost(cost)}
                for name, cost in zip(self.universe.names, self.costs)
            ],
            "tuples": [[str(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "InfoModel":
        specs = field(data, "attributes", "model")
        names = [field(spec, "name", "model attribute") for spec in specs]
        costs = tuple(parse_cost(str(field(spec, "cost", "model attribute")))
                      for spec in specs)
        rows = tuple(tuple(row) for row in field(data, "tuples", "model"))
        return cls(Universe(names), costs, rows)


def make_model(
    names: Sequence[str],
    costs: Sequence,
    rows: Iterable[Sequence],
) -> InfoModel:
    parsed = tuple(
        c if c == INF else Fraction(c) for c in costs
    )
    return InfoModel(Universe(names), parsed, tuple(tuple(r) for r in rows))


def agrees_on(row1: Sequence, row2: Sequence, attrs: AttrSet) -> bool:
    """Pointwise equality of two rows on the given attributes."""
    return all(row1[i] == row2[i] for i in attrs.indices())


def set_cost(m: InfoModel, attrs: AttrSet) -> Cost:
    """Total price of an attribute set; +inf absorbs."""
    total: Cost = Fraction(0)
    for i in attrs.indices():
        if m.costs[i] == INF:
            return INF
        total += m.costs[i]
    return total


def _determines(m: InfoModel, key_mask: int, target_mask: int) -> bool:
    key_idx = _mask_indices(key_mask)
    target_idx = _mask_indices(target_mask)
    seen: dict[tuple, tuple] = {}
    for row in m.rows:
        key = tuple(row[i] for i in key_idx)
        val = tuple(row[i] for i in target_idx)
        prev = seen.setdefault(key, val)
        if prev != val:
            return False
    return True


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _affordable_indices(m: InfoModel, atom: Atom, cap: int) -> list[int]:
    candidates = [
        i
        for i in range(len(m.universe))
        if not atom.lhs.mask >> i & 1 and m.costs[i] <= atom.budget
    ]
    if len(candidates) > cap:
        raise CapExceededError(
            f"{len(candidates)} affordable attributes exceeds the cap {cap}"
        )
    return candidates


def atom_witness(
    m: InfoModel, atom: Atom, cap: int = AFFORDABLE_ATTR_CAP
) -> tuple[bool, AttrSet | None]:
    """Evaluate one atom; on success also return the purchase set found.

    The witness is minimal under inclusion: subsets are tried in order of
    increasing cardinality, so no proper subset of the returned set is
    itself a witness.  Attributes already on the left side are never
    bought (they change nothing).
    """
    if atom.universe != m.universe:
        raise BudgetFDError(f"atom {atom} over a different universe")
    candidates = _affordable_indices(m, atom, cap)
    costs = [m.costs[i] for i in candidates]

    def feasible(picked: tuple[int, ...]) -> bool:
        extra = 0
        for k in picked:
            extra |= 1 << candidates[k]
        return _determines(m, atom.lhs.mask | extra, atom.rhs.mask)

    hit = search.find_witness(costs, atom.budget, feasible)
    if hit is None:
        return False, None
    mask = 0
    for k in hit:
        mask |= 1 << candidates[k]
    return True, AttrSet(m.universe, mask)


def eval_atom_model(m: InfoModel, atom: Atom, cap: int = AFFORDABLE_ATTR_CAP) -> bool:
    return atom_witness(m, atom, cap)[0]


def eval_formula_model(m: InfoModel, f: Formula, cap: int = AFFORDABLE_ATTR_CAP) -> bool:
    return evaluate_lazily(f, lambda atom: eval_atom_model(m, atom, cap))


def truncate_costs(m: InfoModel, r: Fraction) -> InfoModel:
    """Cap every attribute price at ``r``; rows and domains are untouched.

    The result has no infinite prices, and evaluation of any formula whose
    rank is below ``r`` is unchanged.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("truncation level must be non-negative")
    capped = tuple(c if c != INF and c <= r else r for c in m.costs)
    return InfoModel(m.universe, capped, m.rows)


def mine_dependencies(
    m: InfoModel,
    budget_cap: Fraction,
    max_lhs: int,
    cap: int = AFFORDABLE_ATTR_CAP,
) -> list[Atom]:
    """All minimal dependencies ``A |p {b}`` holding in the model.

    For each single-attribute target b and each non-trivial left side A of
    at most ``max_lhs`` attributes, p is the cheapest purchase-set cost (a
    sum of attribute prices, at most ``budget_cap``) making A∪C determine
    b.  Output keeps only inclusion-minimal left sides: an atom is dropped
    when dropping one of its attributes leaves the budget unchanged.
    """
    budget_cap = Fraction(budget_cap)
    n = len(m.universe)
    if n > cap:
        raise CapExceededError(f"{n} attributes exceeds the cap {cap}")

    minima: dict[tuple[int, tuple[int, ...]], Fraction | None] = {}
    for b in range(n):
        others = [i for i in range(n) if i != b]
        for size in range(min(max_lhs, len(others)) + 1):
            for lhs in combinations(others, size):
                lhs_mask = 0
                for i in lhs:
                    lhs_mask |= 1 << i
                candidates = [
                    i for i in range(n) if not lhs_mask >> i & 1 and m.costs[i] <= budget_cap
                ]
                costs = [m.costs[i] for i in candidates]

                def feasible(picked: tuple[int, ...]) -> bool:
                    extra = 0
                    for k in picked:
                        extra |= 1 << candidates[k]
                    return _determines(m, lhs_mask | extra, 1 << b)

                found = search.min_cost_subset(costs, budget_cap, feasible)
                minima[(b, lhs)] = None if found is None else found[0]

    out: list[Atom] = []
    for (b, lhs), price in minima.items():
        if price is None:
            continue
        smaller = (
            minima[(b, tuple(x for x in lhs if x != drop))] for drop in lhs
        )
        if any(p is not None and p <= price for p in smaller):
            continue
        lhs_mask = 0
        for i in lhs:
            lhs_mask |= 1 << i
        out.append(
            Atom(AttrSet(m.universe, lhs_mask), AttrSet(m.universe, 1 << b), price)
        )
    return sorted(out, key=Atom.sort_key)


# -- CSV ingestion ----------------------------------------------------------

def load_model_csv(csv_path: str, costs_path: str) -> InfoModel:
    """CSV rows as legitimate vectors; prices from a ``name=cost`` sidecar."""
    costs_by_name: dict[str, Cost] = {}
    for lineno, raw in enumerate(read_text(costs_path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BudgetFDError(f"{costs_path}:{lineno}: expected 'name=cost'")
        name, cost = line.split("=", 1)
        costs_by_name[name.strip()] = parse_cost(cost)

    reader = csv.reader(io.StringIO(read_text(csv_path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise BudgetFDError(f"{csv_path}: empty file") from None
    rows = [tuple(row) for row in reader if row]

    universe = Universe(name.strip() for name in header)
    missing = [name for name in universe.names if name not in costs_by_name]
    if missing:
        raise BudgetFDError(f"{costs_path}: no cost for attributes {missing}")
    costs = tuple(costs_by_name[name] for name in universe.names)
    return InfoModel(universe, costs, tuple(rows))
