"""Decision procedures: minimum budgets, entailment, satisfiability, validity.

The premise hypergraph has one edge per premise atom (tails = left side,
heads = right side, weight = budget).  An atomic goal ``A |p B`` follows
from the premises exactly when some edge subset of total weight at most
``p`` closes ``A`` over ``B``.  One Dijkstra over vertex sets closed under
the zero-weight edges, ``closed_set_search``, answers all of it: the
cheapest path to a set covering ``B`` gives the minimum and a proof, and
the sets reached within ``p`` refute a goal that does not follow; their
maximal members are the stuck closures counterexample packages witness.
The search starts from a closed set and takes each transition with a step
``(closed, heads) -> closure``: for hypergraphs the kernel's ``extend``,
which looks only at zero-weight edges with a tail among the vertices the
heads add.  Inside the search, costs are integers in units of the lcm of
the weights' denominators; it yields them as exact fractions.
An exhaustive subset scan is kept as the oracle.  The same search, given
an informational model's closure operator and one purchase per attribute,
decides the model's atoms (``infomodel``): the two semantics answer one
cheapest-purchase query under two closure operators.

Boolean satisfiability/validity searches for a realizable truth assignment
over a formula's atoms that satisfies it.  An assignment is realizable when
no false atom is entailed by the true ones; the hypergraph built from the
true atoms then satisfies exactly the assignment, which decides the formula
over every hypergraph on the same universe — and, through the completeness
results, over every informational model.  The search is depth-first over
partial assignments.  The hypergraph of the true atoms forces every atom
it satisfies true, and a three-valued evaluation of the formula prunes
branches it already decides.  A formula shaped like an entailment, premises
implying a goal, takes about one hypergraph build per atom; a disjunction
whose every branch the budget theory blocks still takes exponential time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import floor, inf, lcm
from typing import Iterable, Sequence, Union

from .errors import CapExceededError
from .formula import (
    AttrSet,
    Atom,
    Formula,
    Not,
    Universe,
    atoms,
    evaluate,  # unused here; perfbench/tracer.py wraps it by this name
    evaluate_lazily,
    evaluate_partial,
    universe_of,
)
from .hypergraph import (
    Cut,
    Hypergraph,
    closure,
    closure_trace,
    crossing_edges,  # unused here; perfbench/tracer.py wraps it by this name
    reachability_cut,
)
from .proofs import Proof, build_proof

BRUTEFORCE_EDGE_CAP = 20
ATOM_CAP = 20
STATE_CAP = 100_000


class Unreachable:
    """Target not reachable with any edge subset; distinct from any budget."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = Unreachable()

MinBudget = Union[Fraction, Unreachable]


def dedup_premises(premises: Iterable[Atom]) -> tuple[Atom, ...]:
    seen: dict[Atom, None] = {}
    for atom in premises:
        seen.setdefault(atom)
    return tuple(seen)


def canonical_hypergraph(premises: Iterable[Atom], universe: Universe) -> Hypergraph:
    """One edge per premise atom: tails = lhs, heads = rhs, weight = budget."""
    edges = []
    for atom in dedup_premises(premises):
        if atom.lhs.universe is not universe and atom.universe != universe:
            raise ValueError(f"premise {atom} over a different universe")
        edges.append((atom.lhs, atom.rhs, atom.budget))
    return Hypergraph(universe, edges)


def _split_edges(h: Hypergraph) -> tuple[int, list[tuple[int, int, int, Fraction]]]:
    """The mask of the zero-weight edges, and (bit, tails, heads, weight) for the rest."""
    zero_mask, positive = 0, []
    for e in h.edges:
        if e.weight.numerator:
            positive.append((1 << e.index, e.tails.mask, e.heads.mask, e.weight))
        else:
            zero_mask |= 1 << e.index
    return zero_mask, positive


def _units(value, scale: int) -> int:
    """``value * scale`` for a rational ``value`` whose denominator divides ``scale``."""
    return value.numerator * (scale // value.denominator)


def _integer_weights(transitions, *values) -> tuple[int, list[tuple]]:
    """``scale``, the lcm of the denominators of the transitions' weights and
    of ``values``, and the transitions with their weights in units of
    ``1/scale``."""
    scale = lcm(*(weight.denominator for *_, weight in transitions),
                *(value.denominator for value in values))
    return scale, [(bit, tails, heads, _units(weight, scale))
                   for bit, tails, heads, weight in transitions]


def closed_set_search(step, transitions, start: int, bound=None):
    """Dijkstra over the sets a closure operator fixes, cheapest first.

    ``start`` is a closed set and ``step(closed, heads)`` the closure of a
    closed set and the heads it buys.  A transition ``(bit, tails, heads,
    weight)`` leads from a state S holding its tails and missing a head, at
    its weight, to ``step(S, heads)``; none is taken past ``bound``.  Yields
    ``(cost, state, fired)`` for each state as it is popped at its least
    cost, from ``start`` at cost 0 on; ``fired`` ors the bits of the
    transitions on the path found.  More than ``STATE_CAP`` states raise
    ``CapExceededError``.  Hypergraphs close under their zero-weight edges
    and step along the others; informational models close under
    ``infomodel``'s ``cl`` and step by buying an attribute.

    Costs are kept as integers in units of ``1/scale``, ``scale`` the lcm of
    the weights' denominators, so the heap compares ints; a step stays
    within ``bound`` when it is at most ``floor(bound * scale)`` units.  The
    costs yielded are the exact fractions.
    """
    scale, scaled = _integer_weights(transitions)
    limit = inf if bound is None else floor(bound * scale)
    best = {start: 0}
    heap = [(0, start, 0)]  # (cost in 1/scale units, state, fired transition bits)
    while heap:
        cost, state, fired = heapq.heappop(heap)
        if cost > best[state]:
            continue
        yield Fraction(cost, scale), state, fired
        if len(best) > STATE_CAP:
            raise CapExceededError(f"closed-set search exceeds the cap of {STATE_CAP} states")
        for bit, tails, heads, weight in scaled:
            if tails & ~state or not heads & ~state:
                continue
            cost_after = cost + weight
            if cost_after > limit:
                continue
            nxt = step(state, heads)
            if nxt not in best or cost_after < best[nxt]:
                best[nxt] = cost_after
                heapq.heappush(heap, (cost_after, nxt, fired | bit))


def search_hypergraph(h: Hypergraph, source_mask: int, target_mask: int, budget=None):
    """The cheapest edge set closing the source over the target, and what
    ``closed_set_search`` reached on the way.

    Returns ``(found, family)``: ``found`` is ``(weight, edge_mask)`` of the
    first popped state covering the target, or None; ``family`` maps each
    state popped at cost at most ``budget`` to ``(cost, edge_mask)`` in pop
    order, complete when the minimum exceeds the budget.  An edge mask holds
    the fired positive edges and every zero-weight edge.
    """
    kernel = h.closure_kernel()
    family: dict[int, tuple[Fraction, int]] = {}
    reachable = not target_mask & ~kernel.closure(h.all_edges_mask, source_mask)
    if not reachable and budget is None:
        return None, family
    # an unbounded search for an unreachable target visits every closed set
    bound = None if reachable else budget

    zero_mask, positive = _split_edges(h)
    start = kernel.closure(zero_mask, source_mask)
    step = partial(kernel.extend, zero_mask)
    for cost, state, fired in closed_set_search(step, positive, start, bound):
        if target_mask & ~state == 0:
            return (cost, fired | zero_mask), family
        if budget is not None and cost <= budget:
            family[state] = (cost, fired | zero_mask)
    return None, family


def min_budget(h: Hypergraph, source: AttrSet, target: AttrSet) -> MinBudget:
    """Cheapest total edge weight that closes ``source`` over ``target``."""
    found, _ = search_hypergraph(h, source.mask, target.mask)
    return UNREACHABLE if found is None else found[0]


def min_budget_bruteforce(
    h: Hypergraph, source: AttrSet, target: AttrSet, cap: int = BRUTEFORCE_EDGE_CAP
) -> MinBudget:
    """Exhaustive minimum over all edge subsets; the ground-truth oracle."""
    n = len(h.edges)
    if n > cap:
        raise CapExceededError(f"{n} edges exceeds the brute-force cap {cap}")
    kernel = h.closure_kernel()
    weights = [e.weight for e in h.edges]
    best: MinBudget = UNREACHABLE
    for mask in range(1 << n):
        weight = Fraction(0)
        m = mask
        while m:
            weight += weights[(m & -m).bit_length() - 1]
            m &= m - 1
        if best is not UNREACHABLE and weight >= best:
            continue
        if target.mask & ~kernel.closure(mask, source.mask) == 0:
            best = weight
    return best


@dataclass
class RefutationCertificate:
    """Checkable evidence that no edge set within the goal's budget closes
    its left side over its right side.

    ``family`` maps vertex-set masks to costs.  It holds the left side's
    zero-closure at cost 0 and, for each member S at cost c and positive
    edge of weight w with tails in S and heads outside it, affordable at
    c + w, the zero-closure of S and its heads at cost at most c + w.  No
    member covers the right side.  ``edge_ids``, ``spent`` and ``cut`` name
    one affordable purchase and the reachability cut it gets stuck at.
    """

    goal: Atom
    edge_ids: frozenset[int]
    spent: Fraction
    cut: Cut
    family: dict[int, Fraction]

    def to_json_dict(self) -> dict:
        return {
            "goal": str(self.goal),
            "edges": sorted(self.edge_ids),
            "spent": str(self.spent),
            "cut": {"left": sorted(self.cut.left), "right": sorted(self.cut.right)},
            "family": [{"left": sorted(AttrSet(self.goal.universe, s)), "cost": str(c)}
                       for c, s in sorted((c, s) for s, c in self.family.items())],
        }


def check_refutation(h: Hypergraph, goal: Atom, cert: RefutationCertificate) -> bool:
    """Re-validate a refutation with zero-edge closures only, no search.

    Costs are compared as integers in units of the lcm of the denominators
    of the weights, the goal's budget and the family's costs, so every
    comparison is the exact one.
    """
    rhs = goal.rhs.mask
    spent, left = h.weight_of(cert.edge_ids), closure(h, goal.lhs, cert.edge_ids)
    if spent != cert.spent or spent > goal.budget or cert.cut.left != left or goal.rhs <= left:
        return False
    kernel = h.closure_kernel()
    zero_mask, positive = _split_edges(h)
    scale, positive = _integer_weights(positive, goal.budget, *cert.family.values())
    budget = _units(goal.budget, scale)
    family = {state: _units(cost, scale) for state, cost in cert.family.items()}
    if family.get(kernel.closure(zero_mask, goal.lhs.mask)) != 0:
        return False
    for state, cost in family.items():
        if cost > budget or not rhs & ~state or kernel.closure(zero_mask, state) != state:
            return False
        room = budget - cost
        for _, tails, heads, weight in positive:
            if tails & ~state or not heads & ~state or weight > room:
                continue
            reached = family.get(kernel.extend(zero_mask, state, heads))
            if reached is None or reached > cost + weight:
                return False
    return True


@dataclass
class EntailmentAnswer:
    entailed: bool
    minimum: MinBudget
    hypergraph: Hypergraph  # the premise hypergraph the answer was found in
    proof: Proof | None = None
    witness_edges: frozenset[int] | None = None
    refutation: RefutationCertificate | None = None


def proof_by_edges(
    h: Hypergraph, premises: Iterable[Atom], goal: Atom, ids: Sequence[int]
) -> Proof:
    """The proof of ``goal`` from ``premises``, the atoms of ``h``'s edges,
    that fires the edges ``ids``; they close the goal's left side over its
    right side within its budget, as a search found them."""
    return build_proof(h, premises, goal, closure_trace(h, goal.lhs, ids), ids)


def entails(premises: Sequence[Atom], goal: Atom) -> EntailmentAnswer:
    """Decide whether the premises prove ``goal``; carry proof or refutation."""
    h = canonical_hypergraph(premises, goal.universe)
    found, family = search_hypergraph(h, goal.lhs.mask, goal.rhs.mask, goal.budget)
    if found is not None and found[0] <= goal.budget:
        weight, mask = found
        ids = h.edge_ids(mask)
        proof = proof_by_edges(h, premises, goal, ids)
        return EntailmentAnswer(True, weight, h, proof=proof, witness_edges=frozenset(ids))
    minimum: MinBudget = UNREACHABLE if found is None else found[0]
    spent, mask = family[next(reversed(family))]  # the last state popped
    ids = h.edge_ids(mask)
    costs = {state: cost for state, (cost, _) in family.items()}
    cut = reachability_cut(h, goal.lhs, ids)
    cert = RefutationCertificate(goal, frozenset(ids), spent, cut, costs)
    return EntailmentAnswer(False, minimum, h, refutation=cert)


def hyper_eval_atom(h: Hypergraph, atom: Atom) -> bool:
    """Hypergraph semantics of one atom: min budget within the subscript."""
    found, _ = search_hypergraph(h, atom.lhs.mask, atom.rhs.mask)
    return found is not None and found[0] <= atom.budget


def eval_formula_hypergraph(h: Hypergraph, f: Formula) -> bool:
    return evaluate_lazily(f, lambda atom: hyper_eval_atom(h, atom))


@dataclass
class SatAnswer:
    """Outcome of a satisfiability or validity query.

    For sat/invalid verdicts, ``assignment`` is the realizable assignment
    found and ``hypergraph`` the premise hypergraph of its true atoms,
    which satisfies exactly those atoms.
    """

    verdict: str  # "sat" | "unsat" | "valid" | "invalid"
    assignment: dict[Atom, bool] | None = None
    hypergraph: Hypergraph | None = None


def decide_satisfiable(f: Formula, cap: int = ATOM_CAP) -> SatAnswer:
    """Depth-first search for a realizable assignment satisfying the formula.

    Atoms are decided from the last to the first, False before True, so the
    answer is the assignment with the least bits (atom 0 the low bit) among
    the realizable satisfying ones.  Whenever the true set grows, the
    hypergraph of the true atoms forces every atom it satisfies true, and
    one assigned false that it satisfies fails the branch; entailment is
    monotone in the true set, so no realizable assignment is lost.  A branch
    the three-valued evaluation decides ends there: false fails it, true
    sets every open atom false, which no true atom entails.
    """
    alist = atoms(f)
    if len(alist) > cap:
        raise CapExceededError(f"{len(alist)} atoms exceeds the cap {cap}")
    universe = universe_of(f)

    def hypergraph_of(assignment: dict[Atom, bool]) -> Hypergraph:
        return canonical_hypergraph([a for a in alist if assignment.get(a)], universe)

    def propagate(assignment: dict[Atom, bool]) -> bool:
        """Force true every atom the true atoms entail; False on a conflict."""
        h = hypergraph_of(assignment)
        for atom in alist:
            value = assignment.get(atom)
            if value is not True and hyper_eval_atom(h, atom):
                if value is False:
                    return False
                assignment[atom] = True
        return True

    def search(assignment: dict[Atom, bool], grew: bool) -> SatAnswer | None:
        """``grew``: the true set grew since it was last propagated."""
        value = evaluate_partial(f, assignment)
        if grew and value is not False:
            if not propagate(assignment):
                return None
            value = evaluate_partial(f, assignment)
        if value is False:
            return None
        if value:
            full = {a: assignment.get(a, False) for a in alist}
            return SatAnswer("sat", full, hypergraph_of(full))
        atom = next(a for a in reversed(alist) if a not in assignment)
        return (search({**assignment, atom: False}, False)
                or search({**assignment, atom: True}, True))

    return search({}, True) or SatAnswer("unsat")


def decide_valid(f: Formula, cap: int = ATOM_CAP) -> SatAnswer:
    """Valid iff the negation is unsatisfiable; else return the countermodel."""
    answer = decide_satisfiable(Not(f), cap)
    if answer.verdict == "unsat":
        return SatAnswer("valid")
    return SatAnswer("invalid", answer.assignment, answer.hypergraph)
