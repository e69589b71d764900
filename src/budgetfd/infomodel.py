"""Finite informational models with explicit legitimate-tuple sets.

A model assigns every attribute a value domain and a price (exact rational
or +inf for "not for sale"), and lists the legitimate value vectors
explicitly — one row per admissible combination.  An atom ``A |p B`` holds
when some purchase set C with total price at most p makes A∪C determine B
across all rows.  The explicit row list keeps the checker exact and makes
CSV ingestion natural (each data row is a legitimate vector).

"Determines" is a closure operator: ``cl(X)`` is X plus every attribute
constant within each group of rows that agree on X, and X determines B
exactly when B lies in ``cl(X)``.  So a model's atom is the hypergraph's
cheapest-purchase question under another closure operator, and
``cheapest_purchase`` answers it with ``entailment.closed_set_search``: its
states are ``cl``-closed sets, and buying an affordable attribute at its
price is a transition.  The same function decides the atoms of
``synth.LinearModel``, under that model's GF(2) ``cl``.  ``cl`` is
computed row by row, each row compared with the first row of its group,
and memoised per query.  ``mine`` runs one search per left side; the first
popped cost of a state holding ``b`` is the minimum budget for every target
``b`` at once.  More than ``AFFORDABLE_ATTR_CAP`` affordable attributes
raise ``CapExceededError``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from .entailment import closed_set_search
from .errors import BudgetFDError, CapExceededError, field, read_text
from .formula import (
    AttrSet,
    Atom,
    CompiledFormula,
    Formula,
    Universe,
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
        specs = field(data, "attributes", "model", list)
        names = [field(spec, "name", "model attribute", str) for spec in specs]
        costs = tuple(parse_cost(str(field(spec, "cost", "model attribute")))
                      for spec in specs)
        rows = field(data, "tuples", "model", list)
        if not all(isinstance(row, list) for row in rows):
            raise ValueError("model tuples must be lists")
        rows = tuple(tuple(row) for row in rows)
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


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _determined(rows: Sequence[Sequence], key_mask: int, test_mask: int) -> int:
    """The attributes of ``test_mask`` constant within every group of rows
    that agree on ``key_mask``.

    Each row is compared with the first row of its group, and the attributes
    it differs on are dropped; the scan stops once none is left.
    """
    test = _mask_indices(test_mask)
    if not test:
        return 0
    key_idx = _mask_indices(key_mask)
    key_of = itemgetter(*key_idx) if key_idx else (lambda row: None)
    values = itemgetter(*test)
    first: dict = {}
    for row in rows:
        ref = first.setdefault(key_of(row), row)
        if ref is not row and values(row) != values(ref):
            test = tuple(i for i in test if row[i] == ref[i])
            if not test:
                return 0
            values = itemgetter(*test)
    return sum(1 << i for i in test)


def _closure_operator(m: InfoModel, test_mask: int) -> Callable[..., int]:
    """The model's ``cl`` restricted to ``test_mask``, memoised per call.

    ``cl(X)`` is X plus every attribute constant within each group of rows
    agreeing on X.  Attributes X already determines split none of X's
    groups, so a closed set's restriction carries all that matters for
    whether the attributes of ``test_mask`` are determined.  ``close(X,
    heads)`` is ``cl(X | heads)``, the step ``closed_set_search`` takes.
    """
    rows = m.rows
    memo: dict[int, int] = {}

    def close(mask: int, heads: int = 0) -> int:
        mask |= heads
        found = memo.get(mask)
        if found is None:
            found = memo[mask] = mask | _determined(rows, mask, test_mask & ~mask)
        return found

    return close


def _purchases(costs: Sequence[Cost], lhs_mask: int, budget) -> list[tuple]:
    """One transition per attribute outside the left side priced within the
    budget: buying it adds it to the state at its price."""
    bought = [
        (1 << i, 0, 1 << i, cost)
        for i, cost in enumerate(costs)
        if not lhs_mask >> i & 1 and cost <= budget
    ]
    if len(bought) > AFFORDABLE_ATTR_CAP:
        raise CapExceededError(
            f"{len(bought)} affordable attributes exceeds the cap {AFFORDABLE_ATTR_CAP}"
        )
    return bought


def cheapest_purchase(
    close: Callable[..., int], costs: Sequence[Cost], lhs: int, rhs: int, budget
) -> int | None:
    """The attributes bought on the way to the first popped state covering
    ``rhs``: a cheapest purchase within ``budget`` making ``lhs`` determine
    ``rhs`` under the closure operator ``close``, or None.

    Attribute ``i`` is bit ``i`` and costs ``costs[i]``; attributes already
    on the left side are never bought (they change nothing).
    """
    purchases = _purchases(costs, lhs, budget)
    affordable = sum(bit for bit, *_ in purchases)
    if rhs & ~close(lhs | affordable):
        return None  # not even buying everything affordable helps
    for _, state, bought in closed_set_search(close, purchases, close(lhs), budget):
        if rhs & ~state == 0:
            return bought
    return None


def atom_witness(m: InfoModel, atom: Atom) -> tuple[bool, AttrSet | None]:
    """Evaluate one atom; on success also return the purchase set found.

    ``cheapest_purchase`` finds the cheapest purchase whose closure covers
    the right side; each bought attribute the rest make redundant is then
    dropped, so the witness is minimal under inclusion.  ``cl`` only tests
    the right side and the affordable attributes, the ones the search can
    observe.
    """
    if atom.universe != m.universe:
        raise BudgetFDError(f"atom {atom} over a different universe")
    lhs, rhs = atom.lhs.mask, atom.rhs.mask
    affordable = sum(1 << i for i, cost in enumerate(m.costs) if cost <= atom.budget)
    close = _closure_operator(m, rhs | affordable)
    bought = cheapest_purchase(close, m.costs, lhs, rhs, atom.budget)
    if bought is None:
        return False, None
    for drop in _mask_indices(bought):
        if rhs & ~close(lhs | bought & ~(1 << drop)) == 0:
            bought &= ~(1 << drop)
    return True, AttrSet(m.universe, bought)


def eval_atom_model(m: InfoModel, atom: Atom) -> bool:
    return atom_witness(m, atom)[0]


def eval_formula_model(m: InfoModel, f: Formula) -> bool:
    return CompiledFormula(f).value(ask=lambda atom: eval_atom_model(m, atom))


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
    if n > AFFORDABLE_ATTR_CAP:
        raise CapExceededError(f"{n} attributes exceeds the cap {AFFORDABLE_ATTR_CAP}")

    full = (1 << n) - 1
    close = _closure_operator(m, full)
    minima: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for size in range(min(max_lhs, n - 1) + 1):
        for lhs in combinations(range(n), size):
            lhs_mask = sum(1 << i for i in lhs)
            purchases = _purchases(m.costs, lhs_mask, budget_cap)
            targets = full & ~lhs_mask
            start = close(lhs_mask)
            for cost, state, _ in closed_set_search(close, purchases, start, budget_cap):
                for b in _mask_indices(state & targets):
                    minima[(b, lhs)] = cost
                targets &= ~state
                if not targets:
                    break

    out: list[Atom] = []
    for (b, lhs), price in minima.items():
        smaller = (
            minima.get((b, tuple(x for x in lhs if x != drop))) for drop in lhs
        )
        if any(p is not None and p <= price for p in smaller):
            continue
        lhs_mask = sum(1 << i for i in lhs)
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
