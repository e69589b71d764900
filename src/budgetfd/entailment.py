"""Decision procedures: minimum budgets, entailment, satisfiability, validity.

The premise hypergraph has one edge per premise atom (tails = left side,
heads = right side, weight = budget).  An atomic goal ``A |p B`` follows
from the premises exactly when some edge subset of total weight at most
``p`` closes ``A`` over ``B``.  ``min_budget`` computes that optimum with a
Dijkstra search over vertex sets closed under the zero-weight edges, where
firing a positive edge costs its weight; the cheapest path to a set that
covers ``B`` also names the edges that reach it.  An exhaustive subset
scan is kept as the oracle.

Boolean satisfiability/validity enumerates truth assignments over a
formula's atoms.  An assignment is realizable when no false atom is
entailed by the true ones; the hypergraph built from the true atoms then
satisfies exactly the assignment, which decides the formula over every
hypergraph on the same universe — and, through the completeness results,
over every informational model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
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
    evaluate,
    evaluate_lazily,
    universe_of,
)
from .hypergraph import (
    Cut,
    Hypergraph,
    closure,
    closure_trace,
    crossing_edges,
    reachability_cut,
)
from .proofs import Proof, build_proof

BRUTEFORCE_EDGE_CAP = 20
ATOM_CAP = 20


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


def _search_min(h: Hypergraph, source_mask: int, target_mask: int):
    """Exact minimum weight of an edge set closing source over target.

    Returns ``(weight, edge_mask)`` or None when the target is unreachable
    even with every edge.  Dijkstra over vertex sets closed under the
    zero-weight edges: the start state is the zero-closure of the source,
    and a positive edge whose tails lie in a state S and whose heads do not
    leads, at its weight, to the zero-closure of S with its heads.  The
    first state popped that covers the target is a cheapest one.  The edge
    mask is the positive edges fired on the way plus every zero-weight edge.
    """
    kernel = h.closure_kernel()
    # without this check an unreachable target makes the search visit
    # every closed set before giving up
    if target_mask & ~kernel.closure(h.all_edges_mask, source_mask):
        return None

    zero_mask = 0
    positive = []
    for e, edge in enumerate(h.edges):
        if edge.weight == 0:
            zero_mask |= 1 << e
        else:
            positive.append((1 << e, edge.tails.mask, edge.heads.mask, edge.weight))

    start = kernel.closure(zero_mask, source_mask)
    best = {start: Fraction(0)}
    heap = [(Fraction(0), start, 0)]  # (cost, state, fired positive edges)
    while heap:
        cost, state, fired = heapq.heappop(heap)
        if cost > best[state]:
            continue
        if target_mask & ~state == 0:
            return cost, fired | zero_mask
        for bit, tails, heads, weight in positive:
            if tails & ~state or not heads & ~state:
                continue
            nxt = kernel.closure(zero_mask, state | heads)
            step = cost + weight
            if nxt not in best or step < best[nxt]:
                best[nxt] = step
                heapq.heappush(heap, (step, nxt, fired | bit))


def min_budget(h: Hypergraph, source: AttrSet, target: AttrSet) -> MinBudget:
    """Cheapest total edge weight that closes ``source`` over ``target``."""
    found = _search_min(h, source.mask, target.mask)
    if found is None:
        return UNREACHABLE
    return found[0]


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
    """Record of a maximally extended affordable attempt.

    ``edge_ids`` is affordable and saturated: its reachability cut leaves
    the goal's right side uncovered, and adding any single crossing edge
    would blow the budget.  ``check_refutation`` re-validates all of that.
    """

    goal: Atom
    edge_ids: frozenset[int]
    spent: Fraction
    cut: Cut

    def to_json_dict(self) -> dict:
        return {
            "goal": str(self.goal),
            "edges": sorted(self.edge_ids),
            "spent": str(self.spent),
            "cut": {"left": sorted(self.cut.left), "right": sorted(self.cut.right)},
        }


def refutation_certificate(h: Hypergraph, goal: Atom) -> RefutationCertificate:
    chosen = 0
    spent = Fraction(0)
    while True:
        cut = reachability_cut(h, goal.lhs, h.edge_ids(chosen))
        affordable = [
            e
            for e in sorted(crossing_edges(h, cut))
            if spent + h.edges[e].weight <= goal.budget
        ]
        if not affordable:
            return RefutationCertificate(goal, frozenset(h.edge_ids(chosen)), spent, cut)
        pick = min(affordable, key=lambda e: (h.edges[e].weight, e))
        chosen |= 1 << pick
        spent += h.edges[pick].weight


def check_refutation(h: Hypergraph, goal: Atom, cert: RefutationCertificate) -> bool:
    spent = h.weight_of(cert.edge_ids)
    if spent != cert.spent or spent > goal.budget:
        return False
    left = closure(h, goal.lhs, cert.edge_ids)
    if cert.cut.left != left:
        return False
    if goal.rhs <= left:
        return False
    for e in crossing_edges(h, cert.cut):
        if spent + h.edges[e].weight <= goal.budget:
            return False
    return True


@dataclass
class EntailmentAnswer:
    entailed: bool
    minimum: MinBudget
    proof: Proof | None = None
    witness_edges: frozenset[int] | None = None
    refutation: RefutationCertificate | None = None


def entails(premises: Sequence[Atom], goal: Atom) -> EntailmentAnswer:
    """Decide whether the premises prove ``goal``; carry proof or refutation."""
    universe = goal.universe
    premises = dedup_premises(premises)
    h = canonical_hypergraph(premises, universe)
    found = _search_min(h, goal.lhs.mask, goal.rhs.mask)
    if found is not None and found[0] <= goal.budget:
        weight, mask = found
        ids = h.edge_ids(mask)
        trace = closure_trace(h, goal.lhs, ids)
        proof = build_proof(h, premises, goal, trace, ids)
        return EntailmentAnswer(True, weight, proof=proof, witness_edges=frozenset(ids))
    minimum: MinBudget = UNREACHABLE if found is None else found[0]
    return EntailmentAnswer(
        False, minimum, refutation=refutation_certificate(h, goal)
    )


def hyper_eval_atom(h: Hypergraph, atom: Atom) -> bool:
    """Hypergraph semantics of one atom: min budget within the subscript."""
    found = _search_min(h, atom.lhs.mask, atom.rhs.mask)
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


def _realizable(true_atoms: Sequence[Atom], false_atoms: Sequence[Atom], universe: Universe):
    h = canonical_hypergraph(true_atoms, universe)
    for atom in false_atoms:
        if hyper_eval_atom(h, atom):
            return None
    return h


def decide_satisfiable(f: Formula, cap: int = ATOM_CAP) -> SatAnswer:
    """Search realizable assignments for one satisfying the formula."""
    alist = atoms(f)
    if len(alist) > cap:
        raise CapExceededError(f"{len(alist)} atoms exceeds the cap {cap}")
    universe = universe_of(f)
    for bits in range(1 << len(alist)):
        assignment = {atom: bool(bits >> i & 1) for i, atom in enumerate(alist)}
        if not evaluate(f, assignment):
            continue
        true_atoms = [a for a in alist if assignment[a]]
        false_atoms = [a for a in alist if not assignment[a]]
        h = _realizable(true_atoms, false_atoms, universe)
        if h is not None:
            return SatAnswer("sat", assignment, h)
    return SatAnswer("unsat")


def decide_valid(f: Formula, cap: int = ATOM_CAP) -> SatAnswer:
    """Valid iff the negation is unsatisfiable; else return the countermodel."""
    answer = decide_satisfiable(Not(f), cap)
    if answer.verdict == "unsat":
        return SatAnswer("valid")
    return SatAnswer("invalid", answer.assignment, answer.hypergraph)
