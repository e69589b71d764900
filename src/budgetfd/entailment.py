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
heads add, memoised per search on ``closed | heads`` and skipped when those
vertices are the tail of no zero-weight edge.  It counts in the integer
units ``in_units`` fixes once per instance; a cost becomes a ``Fraction``
only where it leaves the engine, as a minimum or a refutation's costs.
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
partial assignments, each two masks over the atoms' indices: the true and
the false atoms.  The formula is compiled once into a node list, and its
three-valued evaluation prunes branches it already decides.  One closure
kernel has an edge per atom, so the hypergraph of the true atoms is the
true mask read as an edge mask.  It forces every atom it satisfies true,
with one search per left side for all the atoms on that side.  A formula
shaped like an entailment, premises implying a goal, takes one kernel and
about one propagation per atom; a disjunction whose every branch the
budget theory blocks still takes exponential time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import inf
from typing import Iterable, Sequence, Union

from . import kernels
from .errors import CapExceededError
from .formula import (
    AttrSet,
    Atom,
    CompiledFormula,
    Formula,
    Not,
    PremiseTriple,
    Universe,
    in_units,
    evaluate,  # unused here; perfbench/tracer.py wraps it by this name
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


def canonical_hypergraph(
    premises: Iterable[Atom | PremiseTriple], universe: Universe
) -> Hypergraph:
    """One edge per distinct premise: tails = lhs, heads = rhs, weight = budget.

    A premise is an atom over ``universe``, or a ``(lhs mask, rhs mask,
    budget)`` triple over it as ``parse_premises`` reads a premise file.
    Premises with the same masks and the same budget are one premise; the
    first one seen keeps its place.
    """
    seen: set[tuple[int, int, int, int]] = set()
    tails, heads, weights = [], [], []
    for premise in premises:
        if isinstance(premise, Atom):
            if premise.lhs.universe is not universe and premise.universe != universe:
                raise ValueError(f"premise {premise} over a different universe")
            lhs, rhs, budget = premise.lhs.mask, premise.rhs.mask, premise.budget
        else:
            lhs, rhs, budget = premise
        key = (lhs, rhs, budget.numerator, budget.denominator)
        if key not in seen:
            seen.add(key)
            tails.append(lhs)
            heads.append(rhs)
            weights.append(budget)
    return Hypergraph.from_masks(universe, tails, heads, weights)


def _split_edges(h: Hypergraph, weights: Sequence[int]) -> tuple[int, list[tuple]]:
    """The mask of the zero-weight edges, and (bit, tails, heads, weight) for the rest."""
    zero_mask, positive = 0, []
    for e, weight in enumerate(weights):
        if weight:
            positive.append((1 << e, h.tails[e], h.heads[e], weight))
        else:
            zero_mask |= 1 << e
    return zero_mask, positive


def closed_set_search(step, transitions, start: int, limit: int | None = None):
    """Dijkstra over the sets a closure operator fixes, cheapest first.

    ``start`` is a closed set and ``step(closed, heads)`` the closure of a
    closed set and the heads it buys.  A transition ``(bit, tails, heads,
    weight)`` leads from a state S holding its tails and missing a head, at
    its weight, to ``step(S, heads)``; none is taken past ``limit``.  Yields
    ``(cost, state, fired)`` for each state as it is popped at its least
    cost, from ``start`` at cost 0 on; ``fired`` ors the bits of the
    transitions on the path found.  More than ``STATE_CAP`` states raise
    ``CapExceededError``.  Hypergraphs close under their zero-weight edges
    and step along the others; informational models close under
    ``infomodel``'s ``cl`` and step by buying an attribute.

    Weights, ``limit`` and the costs yielded are integers, in the units the
    caller's ``in_units`` fixed for its instance, so the heap compares ints.
    """
    limit = inf if limit is None else limit
    best = {start: 0}
    heap = [(0, start, 0)]  # (cost, state, fired transition bits)
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
    the fired positive edges and every zero-weight edge.  Family costs are
    in the units of ``h.units``; ``weight`` is a ``Fraction``.
    """
    kernel = h.closure_kernel()
    family: dict[int, tuple[int, int]] = {}
    reachable = not target_mask & ~kernel.closure(h.all_edges_mask, source_mask)
    if not reachable and budget is None:
        return None, family
    scale, weights = h.units
    # an integer cost is within the budget exactly when within its floor
    limit = None if budget is None else budget.numerator * scale // budget.denominator
    # an unbounded search for an unreachable target visits every closed set
    bound = None if reachable else limit

    zero_mask, positive = _split_edges(h, weights)
    start = kernel.closure(zero_mask, source_mask)
    step = zero_step(h, zero_mask)
    for cost, state, fired in closed_set_search(step, positive, start, bound):
        if target_mask & ~state == 0:
            return (Fraction(cost, scale), fired | zero_mask), family
        if limit is not None and cost <= limit:
            family[state] = (cost, fired | zero_mask)
    return None, family


def zero_step(h: Hypergraph, zero_mask: int):
    """The step of a search over the sets closed under the zero-weight
    edges ``zero_mask``: ``kernel.extend(zero_mask, closed, heads)``,
    memoised on ``closed | heads``, the one set its closure depends on.
    Heads that are the tail of no zero-weight edge fire nothing, so their
    union is the answer without the kernel."""
    extend = h.closure_kernel().extend
    zero_tails = 0
    for e in h.edge_ids(zero_mask):
        zero_tails |= h.tails[e]
    memo: dict[int, int] = {}

    def step(closed: int, heads: int) -> int:
        union = closed | heads
        if not heads & ~closed & zero_tails:
            return union
        reached = memo.get(union)
        if reached is None:
            reached = memo[union] = extend(zero_mask, closed, heads)
        return reached

    return step


def min_budget(h: Hypergraph, source: AttrSet, target: AttrSet) -> MinBudget:
    """Cheapest total edge weight that closes ``source`` over ``target``."""
    found, _ = search_hypergraph(h, source.mask, target.mask)
    return UNREACHABLE if found is None else found[0]


def min_budget_bruteforce(
    h: Hypergraph, source: AttrSet, target: AttrSet, cap: int = BRUTEFORCE_EDGE_CAP
) -> MinBudget:
    """Exhaustive minimum over all edge subsets; the ground-truth oracle."""
    n = len(h)
    if n > cap:
        raise CapExceededError(f"{n} edges exceeds the brute-force cap {cap}")
    kernel = h.closure_kernel()
    weights = h.weights
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
        names = self.goal.universe.names
        alphabetical = sorted(range(len(names)), key=names.__getitem__)
        # integer units order the members as their costs do; each distinct
        # cost is rendered once
        units = in_units(list(self.family.values()))[1]
        texts = {unit: str(cost) for unit, cost in dict(zip(units, self.family.values())).items()}
        return {
            "goal": str(self.goal),
            "edges": sorted(self.edge_ids),
            "spent": str(self.spent),
            "cut": {"left": sorted(self.cut.left), "right": sorted(self.cut.right)},
            "family": [{"left": [names[i] for i in alphabetical if s >> i & 1], "cost": texts[u]}
                       for u, s in sorted(zip(units, self.family))],
        }


def check_refutation(h: Hypergraph, goal: Atom, cert: RefutationCertificate) -> bool:
    """Re-validate a refutation with zero-edge closures only, no search.

    Costs are compared as integers in units of the lcm of the denominators
    of the weights, the goal's budget and the family's costs, a scale the
    check derives itself, so every comparison is the exact one.
    """
    rhs = goal.rhs.mask
    spent, left = h.weight_of(cert.edge_ids), closure(h, goal.lhs, cert.edge_ids)
    if spent != cert.spent or spent > goal.budget or cert.cut.left != left or goal.rhs <= left:
        return False
    kernel = h.closure_kernel()
    _, units = in_units([*h.weights, goal.budget, *cert.family.values()])
    zero_mask, positive = _split_edges(h, units[:len(h)])
    budget, family = units[len(h)], dict(zip(cert.family, units[len(h) + 1:]))
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


def proof_by_edges(h: Hypergraph, goal: Atom, ids: Sequence[int]) -> Proof:
    """The proof of ``goal`` from the atoms of ``h``'s edges that fires the
    edges ``ids``; they close the goal's left side over its right side
    within its budget, as a search found them."""
    return build_proof(h, h, goal, closure_trace(h, goal.lhs, ids), ids)


def entails(premises: Sequence[Atom | PremiseTriple], goal: Atom) -> EntailmentAnswer:
    """Decide whether the premises prove ``goal``; carry proof or refutation.
    The premises are those ``canonical_hypergraph`` takes."""
    h = canonical_hypergraph(premises, goal.universe)
    found, family = search_hypergraph(h, goal.lhs.mask, goal.rhs.mask, goal.budget)
    if found is not None and found[0] <= goal.budget:
        weight, mask = found
        ids = h.edge_ids(mask)
        proof = proof_by_edges(h, goal, ids)
        return EntailmentAnswer(True, weight, h, proof=proof, witness_edges=frozenset(ids))
    minimum: MinBudget = UNREACHABLE if found is None else found[0]
    scale = h.units[0]
    costs = {state: Fraction(cost, scale) for state, (cost, _) in family.items()}
    last = next(reversed(family))  # the last state popped
    ids = h.edge_ids(family[last][1])
    cut = reachability_cut(h, goal.lhs, ids)
    cert = RefutationCertificate(goal, frozenset(ids), costs[last], cut, costs)
    return EntailmentAnswer(False, minimum, h, refutation=cert)


def hyper_eval_atom(h: Hypergraph, atom: Atom) -> bool:
    """Hypergraph semantics of one atom: min budget within the subscript."""
    found, _ = search_hypergraph(h, atom.lhs.mask, atom.rhs.mask)
    return found is not None and found[0] <= atom.budget


def eval_formula_hypergraph(h: Hypergraph, f: Formula) -> bool:
    return CompiledFormula(f).value(ask=lambda atom: hyper_eval_atom(h, atom))


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

    An assignment is two masks over the atoms' indices, the true and the
    false atoms.  One closure kernel has an edge per atom (edge ``i`` is
    atom ``i``), so the hypergraph of the true atoms is the true mask used
    as an edge mask; ``canonical_hypergraph`` builds it once, for the
    answer.
    """
    formula = CompiledFormula(f)
    alist = formula.atoms
    if len(alist) > cap:
        raise CapExceededError(f"{len(alist)} atoms exceeds the cap {cap}")
    universe = alist[0].universe
    lhs = [atom.lhs.mask for atom in alist]
    rhs = [atom.rhs.mask for atom in alist]
    _, budgets = in_units([atom.budget for atom in alist])
    kernel = kernels.closure_kernel(lhs, rhs, len(universe))
    zero_atoms = sum(1 << i for i, budget in enumerate(budgets) if not budget)
    edges = [(1 << i, lhs[i], rhs[i], budgets[i]) for i in range(len(alist))]
    sides: dict[int, list[int]] = {}  # left side -> its atoms, by least index
    for i, source in enumerate(lhs):
        sides.setdefault(source, []).append(i)
    everything = (1 << len(alist)) - 1
    value = formula.value

    def propagate(true: int, false: int) -> int | None:
        """``true`` with every atom the true atoms entail added; None when
        one of them is false.

        An atom whose right side lies outside the closure of its left side
        under every true atom is not entailed.  The others are grouped by
        left side, and each group runs one search in the true atoms'
        hypergraph, bounded by the group's largest budget: an atom is
        settled at the first state popped that covers its right side,
        entailed when that state's cost is within its budget, or once the
        costs popped pass its budget.
        """
        zero = true & zero_atoms
        step = partial(kernel.extend, zero)
        positive = true & ~zero_atoms
        transitions = [edge for edge in edges if edge[0] & positive]
        forced = 0
        for source, members in sides.items():
            group = [i for i in members if not true >> i & 1]
            if not group:
                continue
            reach = kernel.closure(true, source)
            group = [i for i in group if not rhs[i] & ~reach]
            if not group:
                continue
            bound = max(budgets[i] for i in group)
            start = kernel.closure(zero, source)
            for cost, state, _ in closed_set_search(step, transitions, start, bound):
                unsettled = []
                for i in group:
                    if cost > budgets[i]:
                        continue
                    if rhs[i] & ~state:
                        unsettled.append(i)
                    elif false >> i & 1:
                        return None
                    else:
                        forced |= 1 << i
                group = unsettled
                if not group:
                    break
        return true | forced

    def search(true: int, false: int, grew: bool) -> int | None:
        """The least true mask of a realizable satisfying assignment that
        extends ``(true, false)``; ``grew``: the true set grew since it was
        last propagated."""
        verdict = value(true, false)
        if grew and verdict is not False:
            forced = propagate(true, false)
            if forced is None:
                return None
            if forced != true:
                true, verdict = forced, value(forced, false)
        if verdict is False:
            return None
        if verdict:
            return true
        bit = 1 << (everything & ~(true | false)).bit_length() - 1
        found = search(true, false | bit, False)
        return found if found is not None else search(true | bit, false, True)

    true = search(0, 0, True)
    if true is None:
        return SatAnswer("unsat")
    assignment = {atom: bool(true >> i & 1) for i, atom in enumerate(alist)}
    h = canonical_hypergraph([atom for atom in alist if assignment[atom]], universe)
    return SatAnswer("sat", assignment, h)


def decide_valid(f: Formula, cap: int = ATOM_CAP) -> SatAnswer:
    """Valid iff the negation is unsatisfiable; else return the countermodel."""
    answer = decide_satisfiable(Not(f), cap)
    if answer.verdict == "unsat":
        return SatAnswer("valid")
    return SatAnswer("invalid", answer.assignment, answer.hypergraph)
