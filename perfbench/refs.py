"""Reference answers computed apart from budgetfd.

Everything here works on the structured inputs the generator wrote, never
on budgetfd objects, and shares no code with the program:

* attribute sets are int bitmasks over a list of names;
* an atom is ``(lhs_mask, rhs_mask, Fraction budget)``;
* a formula is a nested tuple: ``("atom", atom)``, ``("not", f)``,
  ``("and", [f, ...])``, ``("or", [f, ...])`` or ``("imp", f, g)``;
* a premise hypergraph is a list of atoms used as edges
  (tails = lhs, heads = rhs, weight = budget).

The minimum-budget solver is a Dijkstra search over closed vertex sets, a
different algorithm from the program's branch and bound.  The proof walker
re-derives every conclusion from the JSON proof tree with the paper's three
axioms.  The informational-model checks group rows by counting distinct
projections instead of scanning for conflicting key tuples.
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction
from itertools import combinations

# -- attribute sets and atom text ---------------------------------------------

def mask_of(names: list[str], chosen) -> int:
    index = {name: i for i, name in enumerate(names)}
    mask = 0
    for name in chosen:
        mask |= 1 << index[name]
    return mask


def set_text(names: list[str], mask: int) -> str:
    return "{" + ",".join(names[i] for i in range(len(names)) if mask >> i & 1) + "}"


def atom_text(names: list[str], atom) -> str:
    lhs, rhs, budget = atom
    return f"{set_text(names, lhs)} |{budget} {set_text(names, rhs)}"


_ATOM = re.compile(r"^\{([^{}]*)\}\s*\|([0-9./]+)\s*\{([^{}]*)\}$")


def parse_set(names: list[str], text: str) -> int:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not an attribute set: {text!r}")
    inner = [part.strip() for part in text[1:-1].split(",") if part.strip()]
    return mask_of(names, inner)


def parse_atom(names: list[str], text: str):
    match = _ATOM.match(text.strip())
    if match is None:
        raise ValueError(f"not an atom: {text!r}")
    lhs = [p.strip() for p in match.group(1).split(",") if p.strip()]
    rhs = [p.strip() for p in match.group(3).split(",") if p.strip()]
    return (mask_of(names, lhs), mask_of(names, rhs), Fraction(match.group(2)))


def formula_text(names: list[str], f) -> str:
    kind = f[0]
    if kind == "atom":
        return atom_text(names, f[1])
    if kind == "not":
        return "!(" + formula_text(names, f[1]) + ")"
    if kind == "and":
        return "(" + " & ".join(formula_text(names, g) for g in f[1]) + ")"
    if kind == "or":
        return "(" + " | ".join(formula_text(names, g) for g in f[1]) + ")"
    if kind == "imp":
        return "(" + formula_text(names, f[1]) + " => " + formula_text(names, f[2]) + ")"
    raise ValueError(f"not a formula node: {kind!r}")


def formula_atoms(f) -> list:
    out: dict = {}

    def walk(node):
        if node[0] == "atom":
            out.setdefault(node[1])
        elif node[0] == "not":
            walk(node[1])
        elif node[0] in ("and", "or"):
            for g in node[1]:
                walk(g)
        else:
            walk(node[1])
            walk(node[2])

    walk(f)
    return list(out)


# -- closures and minimum budgets ----------------------------------------------

def dedup(atoms) -> list:
    """Premises in first-occurrence order without repeats (edge ids follow it)."""
    return list(dict.fromkeys(atoms))


def closure(edges, start: int, allowed=None) -> int:
    """Vertices reached from ``start`` by firing edges (all, or the ids in ``allowed``)."""
    pending = [edges[i] for i in allowed] if allowed is not None else list(edges)
    reached = start
    while True:
        rest = []
        grew = False
        for edge in pending:
            tails, heads = edge[0], edge[1]
            if tails & ~reached:
                rest.append(edge)
            elif heads & ~reached:
                reached |= heads
                grew = True
        if not grew:
            return reached
        pending = rest


def min_budget(edges, source: int, target: int):
    """Exact minimum total weight of edges closing ``source`` over ``target``.

    Returns None when even every edge leaves part of the target unreached.
    States are closed vertex sets (closed under the free edges); firing an
    enabled edge costs its weight.  Every edge set that closes the source
    over the target contains a firing sequence of no greater weight, so the
    cheapest path in this state graph is the minimum budget.  Weights are
    scaled to integers by their common denominator.
    """
    if target & ~closure(edges, source):
        return None
    scale = math.lcm(1, *(e[2].denominator for e in edges))
    free = [(e[0], e[1]) for e in edges if e[2] == 0]
    priced = [(e[0], e[1], int(e[2] * scale)) for e in edges if e[2] != 0]
    start = closure(free, source)
    best = {start: 0}
    heap = [(0, start)]
    while heap:
        cost, state = heapq.heappop(heap)
        if best[state] < cost:
            continue
        if target & ~state == 0:
            return Fraction(cost, scale)
        for tails, heads, weight in priced:
            if tails & ~state == 0 and heads & ~state:
                nxt = closure(free, state | heads)
                step = cost + weight
                if step < best.get(nxt, step + 1):
                    best[nxt] = step
                    heapq.heappush(heap, (step, nxt))
    raise AssertionError("the target is reachable, so the search reaches it")


def min_budget_text(value) -> str:
    return "unreachable" if value is None else str(value)


def holds_in(edges, atom) -> bool:
    """Hypergraph semantics of one atom."""
    found = min_budget(edges, atom[0], atom[1])
    return found is not None and found <= atom[2]


def is_cyclic(edges, n: int) -> bool:
    """Some vertex reaches itself through tail-to-head steps."""
    succ = [0] * n
    for tails, heads, _ in edges:
        for u in range(n):
            if tails >> u & 1:
                succ[u] |= heads
    for v in range(n):
        seen, frontier = 0, succ[v]
        while frontier & ~seen:
            seen |= frontier
            nxt = 0
            for u in range(n):
                if frontier >> u & 1:
                    nxt |= succ[u]
            frontier = nxt
        if seen >> v & 1:
            return True
    return False


# -- formulas, satisfiability and validity -------------------------------------

def evaluate(f, truth) -> bool:
    """Classical evaluation; ``truth`` maps an atom to a bool."""
    kind = f[0]
    if kind == "atom":
        return truth(f[1])
    if kind == "not":
        return not evaluate(f[1], truth)
    if kind == "and":
        return all(evaluate(g, truth) for g in f[1])
    if kind == "or":
        return any(evaluate(g, truth) for g in f[1])
    return (not evaluate(f[1], truth)) or evaluate(f[2], truth)


def _partial(f, values: dict):
    """Three-valued evaluation: True, False or None (undetermined)."""
    kind = f[0]
    if kind == "atom":
        return values.get(f[1])
    if kind == "not":
        inner = _partial(f[1], values)
        return None if inner is None else not inner
    if kind in ("and", "or"):
        stop = kind == "or"  # the value that decides the connective
        unknown = False
        for g in f[1]:
            v = _partial(g, values)
            if v is stop:
                return stop
            if v is None:
                unknown = True
        return None if unknown else not stop
    left = _partial(f[1], values)
    right = _partial(f[2], values)
    if left is False or right is True:
        return True
    if left is True and right is False:
        return False
    return None


def realizes(edges, assignment: dict) -> bool:
    """The hypergraph makes exactly the assignment's true atoms true."""
    return all(holds_in(edges, atom) == value for atom, value in assignment.items())


def realizable(assignment: dict) -> bool:
    """Some hypergraph realizes the assignment (see ``satisfiable``)."""
    return realizes(dedup(a for a, v in assignment.items() if v), assignment)


def satisfiable(f) -> bool:
    """Some assignment satisfies ``f`` and is realized by some hypergraph.

    An assignment is realizable exactly when its true atoms, taken as a
    hypergraph, make none of its false atoms true: that hypergraph is the
    weakest one making every true atom hold.  Making more atoms true only
    adds edges, so a partial assignment whose true atoms already make one
    of its false atoms true is pruned, as is one that decides ``f`` false.
    """
    alist = formula_atoms(f)
    values: dict = {}

    def extend(i: int) -> bool:
        if _partial(f, values) is False:
            return False
        if i == len(alist):
            return True
        atom = alist[i]
        for choice in (False, True):
            values[atom] = choice
            edges = dedup(a for a, v in values.items() if v)
            if choice:
                blocked = any(holds_in(edges, a) for a, v in values.items() if not v)
            else:
                blocked = holds_in(edges, atom)
            if not blocked and extend(i + 1):
                return True
            del values[atom]
        return False

    return extend(0)


def valid(f) -> bool:
    return not satisfiable(("not", f))


# -- proof objects -------------------------------------------------------------

def walk_proof(names: list[str], node: dict, premises) -> tuple:
    """Re-derive a JSON proof tree; return its conclusion or raise ValueError.

    Rules, following the paper: a premise must be assumed; reflexivity
    concludes A |p B only for B inside A; augmentation turns A |p B into
    A∪C |p B∪C; transitivity joins A |p B and B |q C into A |p+q C.  Every
    node's stated conclusion must equal the derived one.
    """
    allowed = set(premises)
    stack = [(node, False)]
    done: dict[int, tuple] = {}
    while stack:
        current, expanded = stack.pop()
        rule = current.get("rule")
        kids = {"Aug": ("sub",), "Trans": ("left", "right")}.get(rule, ())
        if not expanded and kids:
            stack.append((current, True))
            stack.extend((current[k], False) for k in kids)
            continue
        stated = parse_atom(names, current["concludes"])
        if rule == "Premise":
            if stated not in allowed:
                raise ValueError(f"premise {current['concludes']} is not assumed")
            derived = stated
        elif rule == "Refl":
            if stated[1] & ~stated[0]:
                raise ValueError(f"reflexivity needs B inside A: {current['concludes']}")
            derived = stated
        elif rule == "Aug":
            a, b, p = done.pop(id(current["sub"]))
            added = parse_set(names, current["add"])
            derived = (a | added, b | added, p)
        elif rule == "Trans":
            a, b, p = done.pop(id(current["left"]))
            b2, c, q = done.pop(id(current["right"]))
            if b != b2:
                raise ValueError("transitivity middle sets differ")
            derived = (a, c, p + q)
        else:
            raise ValueError(f"unknown rule {rule!r}")
        if derived != stated:
            raise ValueError(
                f"node states {current['concludes']} but derives "
                f"{atom_text(names, derived)}"
            )
        done[id(current)] = derived
    return done[id(node)]


# -- informational models ------------------------------------------------------

class Table:
    """Rows of string values with per-attribute prices (None = +inf).

    ``classes(mask)`` is the number of distinct projections of the rows
    onto ``mask``; X determines Y exactly when adding Y to X splits no
    class, i.e. ``classes(X) == classes(X | Y)``.  Prices are scaled to
    integers by the common denominator so that subset sums stay exact.
    """

    def __init__(self, names: list[str], costs: list, rows: list[tuple]):
        self.names = list(names)
        self.rows = list(rows)
        self.scale = math.lcm(1, *(c.denominator for c in costs if c is not None))
        self.icost = [None if c is None else int(c * self.scale) for c in costs]
        self._labels: dict[int, list[int]] = {0: [0] * len(self.rows)}
        self._classes: dict[int, int] = {0: 1 if self.rows else 0}

    def _label(self, mask: int) -> list[int]:
        if mask not in self._labels:
            top = mask.bit_length() - 1
            base = self._label(mask & ~(1 << top))
            ids: dict = {}
            self._labels[mask] = [
                ids.setdefault((b, row[top]), len(ids)) for b, row in zip(base, self.rows)
            ]
            self._classes[mask] = len(ids)
        return self._labels[mask]

    def classes(self, mask: int) -> int:
        if mask not in self._classes:
            self._label(mask)
        return self._classes[mask]

    def determines(self, key: int, target: int) -> bool:
        return self.classes(key) == self.classes(key | target)

    def cheapest_purchase(self, lhs: int, target: int, budget: Fraction):
        """Least price of a set C outside ``lhs`` within ``budget`` with
        lhs∪C determining target; None if no such set exists."""
        cap = math.floor(budget * self.scale)
        buyable = [
            i for i, c in enumerate(self.icost)
            if not lhs >> i & 1 and c is not None and c <= cap
        ]
        best = None
        for size in range(len(buyable) + 1):
            for picked in combinations(buyable, size):
                cost = sum(self.icost[i] for i in picked)
                if cost > cap or (best is not None and cost >= best):
                    continue
                if self.determines(lhs | sum(1 << i for i in picked), target):
                    best = cost
        return None if best is None else Fraction(best, self.scale)

    def holds(self, atom) -> bool:
        lhs, rhs, budget = atom
        return self.cheapest_purchase(lhs, rhs, budget) is not None

    def mine(self, cap: Fraction, max_lhs: int) -> set[str]:
        """Inclusion-minimal ``A |p {b}`` with p the cheapest price within ``cap``."""
        n = len(self.names)
        minima: dict = {}
        for b in range(n):
            others = [i for i in range(n) if i != b]
            for size in range(min(max_lhs, len(others)) + 1):
                for lhs in combinations(others, size):
                    lhs_mask = sum(1 << i for i in lhs)
                    minima[(b, lhs)] = self.cheapest_purchase(lhs_mask, 1 << b, cap)
        out = set()
        for (b, lhs), price in minima.items():
            if price is None:
                continue
            shorter = [minima[(b, tuple(x for x in lhs if x != drop))] for drop in lhs]
            if any(p is not None and p <= price for p in shorter):
                continue
            out.add(atom_text(self.names, (sum(1 << i for i in lhs), 1 << b, price)))
        return out
