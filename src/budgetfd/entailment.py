"""Decision procedures: minimum budgets, entailment, satisfiability, validity.

The premise hypergraph has one edge per premise atom (tails = left side,
heads = right side, weight = budget).  An atomic goal ``A |p B`` follows
from the premises exactly when some edge subset of total weight at most
``p`` closes ``A`` over ``B``.  One Dijkstra over vertex sets closed under
the zero-weight edges, ``closed_set_search``, answers all of it: the
cheapest path to a set covering ``B`` gives the minimum and a proof, and
the sets reached within ``p`` refute a goal that does not follow; their
maximal members are the stuck closures counterexample packages witness.
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
        if atom.universe != universe:
            raise ValueError(f"premise {atom} over a different universe")
        edges.append((atom.lhs, atom.rhs, atom.budget))
    return Hypergraph(universe, edges)


def _split_edges(h: Hypergraph) -> tuple[int, list[tuple[int, int, int, Fraction]]]:
    """The mask of the zero-weight edges, and (bit, tails, heads, weight) for the rest."""
    zero_mask = h.edge_mask(e.index for e in h.edges if e.weight == 0)
    positive = [(1 << e.index, e.tails.mask, e.heads.mask, e.weight)
                for e in h.edges if e.weight]
    return zero_mask, positive


def closed_set_search(close, transitions, source_mask: int, bound=None):
    """Dijkstra over the sets a closure operator fixes, cheapest first.

    ``close`` maps a mask to its closure.  A transition ``(bit, tails,
    heads, weight)`` leads from a state S holding its tails and missing a
    head, at its weight, to ``close(S | heads)``; none is taken past
    ``bound``.  Yields ``(cost, state, fired)`` for each state as it is
    popped at its least cost, from ``close(source_mask)`` at cost 0 on;
    ``fired`` ors the bits of the transitions on the path found.  More than
    ``STATE_CAP`` states raise ``CapExceededError``.  Hypergraphs close under
    their zero-weight edges and step along the others; informational models
    close under ``infomodel``'s ``cl`` and step by buying an attribute.
    """
    start = close(source_mask)
    best = {start: Fraction(0)}
    heap = [(Fraction(0), start, 0)]  # (cost, state, fired transition bits)
    while heap:
        cost, state, fired = heapq.heappop(heap)
        if cost > best[state]:
            continue
        yield cost, state, fired
        if len(best) > STATE_CAP:
            raise CapExceededError(f"closed-set search exceeds the cap of {STATE_CAP} states")
        for bit, tails, heads, weight in transitions:
            if tails & ~state or not heads & ~state:
                continue
            step = cost + weight
            if bound is not None and step > bound:
                continue
            nxt = close(state | heads)
            if nxt not in best or step < best[nxt]:
                best[nxt] = step
                heapq.heappush(heap, (step, nxt, fired | bit))


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
    close = partial(kernel.closure, zero_mask)
    for cost, state, fired in closed_set_search(close, positive, source_mask, bound):
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
    """Re-validate a refutation with zero-edge closures only, no search."""
    family, budget, rhs = cert.family, goal.budget, goal.rhs.mask
    spent, left = h.weight_of(cert.edge_ids), closure(h, goal.lhs, cert.edge_ids)
    if spent != cert.spent or spent > budget or cert.cut.left != left or goal.rhs <= left:
        return False
    kernel = h.closure_kernel()
    zero_mask, positive = _split_edges(h)
    if family.get(kernel.closure(zero_mask, goal.lhs.mask)) != 0:
        return False
    for state, cost in family.items():
        if cost > budget or not rhs & ~state or kernel.closure(zero_mask, state) != state:
            return False
        for _, tails, heads, weight in positive:
            if tails & ~state or not heads & ~state or cost + weight > budget:
                continue
            reached = family.get(kernel.closure(zero_mask, state | heads))
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


def entails(premises: Sequence[Atom], goal: Atom) -> EntailmentAnswer:
    """Decide whether the premises prove ``goal``; carry proof or refutation."""
    premises = dedup_premises(premises)
    h = canonical_hypergraph(premises, goal.universe)
    found, family = search_hypergraph(h, goal.lhs.mask, goal.rhs.mask, goal.budget)
    if found is not None and found[0] <= goal.budget:
        weight, mask = found
        ids = h.edge_ids(mask)
        trace = closure_trace(h, goal.lhs, ids)
        proof = build_proof(h, premises, goal, trace, ids)
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
