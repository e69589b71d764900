import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

from budgetfd import (
    UNREACHABLE,
    Atom,
    Cut,
    Implies,
    Not,
    SatAnswer,
    Universe,
    atoms,
    canonical_hypergraph,
    check_proof,
    check_refutation,
    closure,
    conj,
    disj,
    decide_satisfiable,
    decide_valid,
    entails,
    evaluate,
    eval_formula_hypergraph,
    min_budget,
    min_budget_bruteforce,
    parse_atom,
    parse_formula,
)
from budgetfd import entailment
from budgetfd.entailment import ATOM_CAP, RefutationCertificate, hyper_eval_atom
from budgetfd.errors import CapExceededError

from _gen import (
    BUDGET_GRID,
    ODD_BUDGET_GRID,
    ODD_WEIGHT_GRID,
    WEIGHT_GRID,
    random_atom,
    random_attr_set,
    random_formula,
    random_hypergraph,
    random_universe,
)

AB = Universe(["a", "b"])
ABC = Universe(["a", "b", "c"])


def test_canonical_hypergraph_examples(fig5_universe, fig5_premises):
    one = canonical_hypergraph([parse_atom("{a} |3 {b}", AB)], AB)
    assert len(one.edges) == 1
    edge = one.edges[0]
    assert (edge.tails, edge.heads, edge.weight) == (
        AB.set_of(["a"]), AB.set_of(["b"]), Fraction(3)
    )
    assert len(canonical_hypergraph([], AB).edges) == 0
    assert len(canonical_hypergraph(fig5_premises, fig5_universe).edges) == 5


def test_min_budget_reflexive_case():
    h = canonical_hypergraph([], ABC)
    assert min_budget(h, ABC.set_of(["a", "b"]), ABC.set_of(["a"])) == 0


def test_min_budget_fig5(fig5_universe, fig5_premises):
    h = canonical_hypergraph(fig5_premises, fig5_universe)
    u = fig5_universe
    assert min_budget(h, u.set_of(["a"]), u.set_of(["b"])) == 4
    assert min_budget(h, u.empty(), u.set_of(["b"])) == 5
    assert min_budget_bruteforce(h, u.set_of(["a"]), u.set_of(["b"])) == 4
    assert min_budget_bruteforce(h, u.empty(), u.set_of(["b"])) == 5


def test_min_budget_unreachable():
    h = canonical_hypergraph([parse_atom("{a} |1 {b}", ABC)], ABC)
    assert min_budget(h, ABC.empty(), ABC.set_of(["c"])) is UNREACHABLE
    assert min_budget_bruteforce(h, ABC.empty(), ABC.set_of(["c"])) is UNREACHABLE


def test_bruteforce_cap():
    u = Universe(["a", "b"])
    atoms_ = [parse_atom("{a} |1 {b}", u)] * 1  # dedup keeps one
    h = canonical_hypergraph(atoms_, u)
    with pytest.raises(CapExceededError):
        min_budget_bruteforce(h, u.empty(), u.set_of(["b"]), cap=0)


def _check_refutation_fractions(h, goal, cert):
    """``check_refutation`` as it was with ``Fraction`` costs: the oracle for
    its integer costs."""
    family, budget, rhs = cert.family, goal.budget, goal.rhs.mask
    spent, left = h.weight_of(cert.edge_ids), closure(h, goal.lhs, cert.edge_ids)
    if spent != cert.spent or spent > budget or cert.cut.left != left or goal.rhs <= left:
        return False
    kernel = h.closure_kernel()
    zero_mask = h.edge_mask(e.index for e in h.edges if e.weight == 0)
    positive = [(e.tails.mask, e.heads.mask, e.weight) for e in h.edges if e.weight]
    if family.get(kernel.closure(zero_mask, goal.lhs.mask)) != 0:
        return False
    for state, cost in family.items():
        if cost > budget or not rhs & ~state or kernel.closure(zero_mask, state) != state:
            return False
        for tails, heads, weight in positive:
            if tails & ~state or not heads & ~state or cost + weight > budget:
                continue
            reached = family.get(kernel.extend(zero_mask, state, heads))
            if reached is None or reached > cost + weight:
                return False
    return True


def _checked(h, goal, cert):
    """``check_refutation``'s verdict, once it agrees with the oracle's."""
    verdict = check_refutation(h, goal, cert)
    assert verdict == _check_refutation_fractions(h, goal, cert)
    return verdict


def _assert_refutation_is_complete(g, goal, cert):
    """The family holds the closure of every affordable edge set, and each
    member other than the start is needed: the transition that reached it
    targets it, so the checker rejects the family without it."""
    assert _checked(g, goal, cert)
    kernel = g.closure_kernel()
    weight = [Fraction(0)]
    for mask in range(1, 1 << len(g.edges)):
        low = (mask & -mask).bit_length() - 1
        weight.append(weight[mask & (mask - 1)] + g.edges[low].weight)
        if weight[mask] <= goal.budget:
            reach = kernel.closure(mask, goal.lhs.mask)
            assert any(reach & ~left == 0 for left in cert.family)
    start = closure(g, goal.lhs, [e.index for e in g.edges if e.weight == 0]).mask
    for left in cert.family:
        if left != start:
            smaller = {m: c for m, c in cert.family.items() if m != left}
            assert not _checked(g, goal, dataclasses.replace(cert, family=smaller))


def test_min_budget_matches_bruteforce_random():
    grids = [(61, 64, WEIGHT_GRID, BUDGET_GRID), (65, 68, ODD_WEIGHT_GRID, ODD_BUDGET_GRID)]
    for seed, budget_seed, weights, budget_grid in grids:
        rng = random.Random(seed)
        budgets = random.Random(budget_seed)
        for _ in range(150):
            h = random_hypergraph(rng, weights=weights)
            a = random_attr_set(rng, h.universe)
            b = random_attr_set(rng, h.universe)
            minimum = min_budget(h, a, b)
            assert minimum == min_budget_bruteforce(h, a, b)
            premises = [Atom(e.tails, e.heads, e.weight) for e in h.edges]
            g = canonical_hypergraph(premises, h.universe)
            if minimum is not UNREACHABLE:
                # the search's witness is a cheapest edge set with a valid proof
                answer = entails(premises, Atom(a, b, minimum))
                assert answer.entailed and answer.minimum == minimum
                assert g.weight_of(answer.witness_edges) == minimum
                assert b <= closure(g, a, answer.witness_edges)
                assert check_proof(answer.proof, premises)
            goal = Atom(a, b, budgets.choice(budget_grid))
            answer = entails(premises, goal)
            assert answer.entailed == (minimum is not UNREACHABLE and minimum <= goal.budget)
            if not answer.entailed:
                _assert_refutation_is_complete(g, goal, answer.refutation)


def test_min_budget_axiom_consistency():
    rng = random.Random(62)
    inf = object()

    def mu(h, x, y):
        out = min_budget(h, x, y)
        return inf if out is UNREACHABLE else out

    def le(x, y):
        if y is inf:
            return True
        if x is inf:
            return False
        return x <= y

    def add(x, y):
        return inf if inf in (x, y) else x + y

    for _ in range(120):
        h = random_hypergraph(rng, max_edges=8)
        u = h.universe
        a, b, c = (random_attr_set(rng, u) for _ in range(3))
        if b <= a:
            assert mu(h, a, b) == 0  # reflexivity
        assert le(mu(h, a, c), add(mu(h, a, b), mu(h, b, c)))  # transitivity
        assert le(mu(h, a | c, b | c), mu(h, a, b))  # augmentation
        assert le(mu(h, a | c, b), mu(h, a, b))  # antitone in the source


def test_entails_transitivity_example():
    prem = [parse_atom("{a} |1 {b}", ABC), parse_atom("{b} |2 {c}", ABC)]
    answer = entails(prem, parse_atom("{a} |3 {c}", ABC))
    assert answer.entailed
    assert answer.minimum == 3
    assert check_proof(answer.proof, prem)
    assert answer.proof.concludes == parse_atom("{a} |3 {c}", ABC)
    assert answer.witness_edges == {0, 1}


def test_entails_negative_with_certificate():
    prem = [parse_atom("{a} |1 {b}", ABC), parse_atom("{b} |2 {c}", ABC)]
    goal = parse_atom("{a} |2 {c}", ABC)
    answer = entails(prem, goal)
    assert not answer.entailed
    assert answer.minimum == 3
    h = canonical_hypergraph(prem, ABC)
    assert check_refutation(h, goal, answer.refutation)
    assert not goal.rhs <= answer.refutation.cut.left


def test_entails_weakening_instance():
    u = Universe(["a", "b", "c", "d"])
    p = Fraction(7, 2)
    prem = [parse_atom(f"{{a}} |{p} {{c,d}}", u)]
    answer = entails(prem, parse_atom(f"{{a,b}} |{p} {{c}}", u))
    assert answer.entailed
    assert check_proof(answer.proof, prem)


def test_refutation_certificate_saturation_fig5(fig5_universe, fig5_premises):
    # the {} |4 {b} refutation holds every set the affordable buy_a or buy_c
    # edge reaches; buying both costs 7, and only then does rel fire
    u = fig5_universe
    goal = parse_atom("{} |4 {b}", u)
    answer = entails(fig5_premises, goal)
    assert not answer.entailed and answer.minimum == 5
    h = canonical_hypergraph(fig5_premises, u)
    assert check_refutation(h, goal, answer.refutation)
    assert answer.refutation.family == {
        0: 0, u.set_of(["a"]).mask: 3, u.set_of(["c"]).mask: 4
    }


def test_check_refutation_rejects_forged_certificate():
    # the premises entail {a} |2 {b}; buying the useless edge {a}->{c} leaves
    # no crossing edge within the remaining budget, but that refutes nothing
    prem = [parse_atom("{a} |1 {c}", ABC), parse_atom("{a} |2 {b}", ABC)]
    goal = parse_atom("{a} |2 {b}", ABC)
    assert entails(prem, goal).entailed
    h = canonical_hypergraph(prem, ABC)
    left = ABC.set_of(["a", "c"])
    forged = RefutationCertificate(
        goal, frozenset({0}), Fraction(1), Cut(left, left.complement()),
        {left.mask: Fraction(1)},
    )
    assert not check_refutation(h, goal, forged)
    # with the start set added, the buy of {a}->{b} at 2 leads out of the family
    forged.family[ABC.set_of(["a"]).mask] = Fraction(0)
    assert not check_refutation(h, goal, forged)


def test_check_refutation_rejects_a_member_not_zero_closed():
    # {a} |1 {c} fails: its one way, {a}->{b} and then {b}->{c}, costs 2.  The
    # members {b} and {b,d} lack the c that {b}->{c} adds for free; adding d
    # to {b} fires no zero edge from d, so a step that trusts its input to be
    # closed lands on {b,d} again, and only the closedness test rejects them
    abcd = Universe(["a", "b", "c", "d"])
    prem = [parse_atom("{a} |2 {b}", abcd), parse_atom("{b} |0 {c}", abcd),
            parse_atom("{b} |1/2 {d}", abcd)]
    goal = parse_atom("{a} |1 {c}", abcd)
    answer = entails(prem, goal)
    assert not answer.entailed
    cert = answer.refutation
    assert check_refutation(answer.hypergraph, goal, cert)
    b, bd = abcd.set_of(["b"]).mask, abcd.set_of(["b", "d"]).mask
    forged = dataclasses.replace(cert, family={**cert.family, b: Fraction(0),
                                               bd: Fraction(1, 2)})
    assert not check_refutation(answer.hypergraph, goal, forged)


@pytest.mark.parametrize("premises, goal, costs, verdict", [
    # half-unit weights; {a} at 1/3 leaves room for {a} |1/2 {b} within 5/6
    (["{} |1/2 {a}", "{a} |1/2 {b}"], "{} |5/6 {b}", {"": 0, "a": "1/2"}, True),
    (["{} |1/2 {a}", "{a} |1/2 {b}"], "{} |5/6 {b}", {"": 0, "a": "1/3"}, False),
    (["{} |1/2 {a}", "{a} |1/2 {b}"], "{} |5/6 {b}", {"": 0, "a": "1/3", "a,b": 1}, False),
    (["{} |1/2 {a}", "{a} |1/2 {b}"], "{} |5/6 {b}", {"": 0, "a": "1/2", "c": "3/7"}, True),
    (["{} |1/2 {a}", "{a} |1/2 {b}"], "{} |5/6 {b}", {"": 0, "a": "1/2", "c": "1/3"}, False),
    (["{} |1/2 {a}", "{a} |1/2 {b}"], "{} |5/6 {b}", {"": 0, "a": "2/3"}, False),
    # a budget of 7/3: buying {b} after {a} costs 5/2, just out of reach
    (["{} |1 {a}", "{a} |3/2 {b}"], "{} |7/3 {b}", {"": 0, "a": 1}, True),
    (["{} |1 {a}", "{a} |3/2 {b}"], "{} |7/3 {b}", {"": 0, "a": "5/6"}, False),
    (["{} |1 {a}", "{a} |3/2 {b}"], "{} |7/3 {b}", {"": 0, "a": "4/3"}, False),
    (["{} |1 {a}", "{a} |3/2 {b}"], "{} |7/3 {b}", {"": 0, "a": 1, "c": "7/3"}, True),
    (["{} |1 {a}", "{a} |3/2 {b}"], "{} |7/3 {b}", {"": 0, "a": 1, "c": "12/5"}, False),
])
def test_check_refutation_with_denominators_outside_the_weights(premises, goal, costs, verdict):
    # the costs and budgets are not multiples of 1/lcm of the weights'
    # denominators, so a checker counting in those units would round them
    prem = [parse_atom(text, ABC) for text in premises]
    goal = parse_atom(goal, ABC)
    answer = entails(prem, goal)
    assert not answer.entailed
    family = {ABC.set_of(filter(None, names.split(","))).mask: Fraction(cost)
              for names, cost in costs.items()}
    cert = dataclasses.replace(answer.refutation, family=family)
    assert _checked(answer.hypergraph, goal, cert) is verdict


def test_memoised_step_matches_the_plain_extend_step(monkeypatch):
    """The search's step, memoised on ``closed | heads`` and skipping the
    kernel for heads that are no zero-weight edge's tail, pops the same
    states in the same order as ``kernel.extend`` taken every time."""
    for seed, weights, budgets in ((93, WEIGHT_GRID, BUDGET_GRID),
                                   (94, ODD_WEIGHT_GRID, ODD_BUDGET_GRID)):
        rng = random.Random(seed)
        for _ in range(150):
            h = random_hypergraph(rng, weights=weights)
            kernel = h.closure_kernel()
            scale, units = h.units
            zero_mask, positive = entailment._split_edges(h, units)
            source = random_attr_set(rng, h.universe).mask
            target = random_attr_set(rng, h.universe).mask
            budget = rng.choice([None, *budgets])
            limit = None if budget is None else budget.numerator * scale // budget.denominator
            start = kernel.closure(zero_mask, source)
            memoised = list(entailment.closed_set_search(
                entailment.zero_step(h, zero_mask), positive, start, limit))
            plain = list(entailment.closed_set_search(
                partial(kernel.extend, zero_mask), positive, start, limit))
            assert memoised == plain
            found, family = entailment.search_hypergraph(h, source, target, budget)
            with monkeypatch.context() as patched:
                patched.setattr(entailment, "zero_step",
                                lambda g, mask: partial(g.closure_kernel().extend, mask))
                want_found, want_family = entailment.search_hypergraph(h, source, target, budget)
            assert found == want_found
            assert list(family.items()) == list(want_family.items())


def test_dedup_premises_keeps_first_seen_order():
    a1b, b2c, c0a = (parse_atom(t, ABC) for t in ("{a} |1 {b}", "{b} |2 {c}", "{c} |0 {a}"))
    again = parse_atom("{a} |1 {b}", Universe(["a", "b", "c"]))
    for premises in ([b2c, a1b, b2c, c0a, again, a1b], [b2c, a1b, again, c0a]):
        h = canonical_hypergraph(premises, ABC)
        assert [(e.tails, e.heads, e.weight) for e in h.edges] == [
            (a.lhs, a.rhs, a.budget) for a in (b2c, a1b, c0a)]


def decide_satisfiable_bruteforce(f):
    """Every assignment in order of its bits (atom 0 the low bit); the first
    that satisfies the formula and is realizable, with its hypergraph."""
    alist = atoms(f)
    universe = alist[0].universe
    for bits in range(1 << len(alist)):
        assignment = {atom: bool(bits >> i & 1) for i, atom in enumerate(alist)}
        if not evaluate(f, assignment):
            continue
        h = canonical_hypergraph([a for a in alist if assignment[a]], universe)
        if not any(hyper_eval_atom(h, a) for a in alist if not assignment[a]):
            return SatAnswer("sat", assignment, h)
    return SatAnswer("unsat")


def _random_tree(rng, leaves):
    """A random formula over ``leaves``, in their order, each used once."""
    if len(leaves) == 1:
        f = leaves[0]
    else:
        cut = rng.randint(1, len(leaves) - 1)
        join = rng.choice([Implies, conj, disj])
        f = join(_random_tree(rng, leaves[:cut]), _random_tree(rng, leaves[cut:]))
    return Not(f) if rng.random() < 0.25 else f


def _odd_stream(count):
    """Formulas over 2-3 attributes with 2 to 10 atoms and budgets of lcm
    210: atoms share left sides, and zero budgets occur."""
    rng = random.Random(83)
    for _ in range(count):
        u = random_universe(rng, 3)
        pool = [random_atom(rng, u, ODD_BUDGET_GRID) for _ in range(rng.randint(2, 10))]
        leaves = pool + rng.choices(pool, k=rng.randint(0, 3))
        rng.shuffle(leaves)
        yield _random_tree(rng, leaves)


def test_decide_satisfiable_matches_bruteforce_random():
    rng = random.Random(71)
    first = [random_formula(rng, random_universe(rng, 4), max_atoms=8, max_depth=6)
             for _ in range(3000)]
    second = list(_odd_stream(400))
    for stream in (first, second):
        verdicts = set()
        for f in stream:
            answer, oracle = decide_satisfiable(f), decide_satisfiable_bruteforce(f)
            verdicts.add(answer.verdict)
            assert answer.verdict == oracle.verdict, str(f)
            assert answer.assignment == oracle.assignment, str(f)
            assert (answer.hypergraph is not None) == (oracle.hypergraph is not None)
            if oracle.hypergraph is not None:
                assert answer.hypergraph.to_json_dict() == oracle.hypergraph.to_json_dict()
        assert verdicts == {"sat", "unsat"}
    assert sum(len(atoms(f)) >= 5 for f in first) >= 100
    second_atoms = [atoms(f) for f in second]
    assert sum(len(alist) >= 8 for alist in second_atoms) >= 100
    assert sum(len({a.lhs for a in alist}) < len(alist) for alist in second_atoms) >= 300
    assert sum(any(a.budget == 0 for a in alist) for alist in second_atoms) >= 200


def test_decide_satisfiable_builds_one_kernel(monkeypatch):
    from budgetfd import kernels

    kernels_built, hypergraphs_built = [], []
    build_kernel, build_hypergraph = kernels.closure_kernel, entailment.canonical_hypergraph
    monkeypatch.setattr(kernels, "closure_kernel",
                        lambda *args: kernels_built.append(args) or build_kernel(*args))
    monkeypatch.setattr(entailment, "canonical_hypergraph",
                        lambda *args: hypergraphs_built.append(args) or build_hypergraph(*args))
    formulas = [_chain(ATOM_CAP - 1), _chain(ATOM_CAP - 2), *_odd_stream(100)]
    for f in formulas:
        kernels_built.clear()
        hypergraphs_built.clear()
        answer = decide_satisfiable(f)
        assert len(kernels_built) == 1, str(f)
        assert len(hypergraphs_built) == (answer.verdict == "sat"), str(f)


def test_costs_are_converted_once_per_instance(conversions, monkeypatch):
    """A hypergraph converts its weights once however many searches run on
    it, ``decide_satisfiable`` its budgets once however many propagations it
    runs, and ``closed_set_search`` converts nothing: it counts in ints."""
    rng = random.Random(96)
    for _ in range(60):
        h = random_hypergraph(rng, weights=ODD_WEIGHT_GRID)
        conversions.clear()
        for budget in ODD_BUDGET_GRID:
            a, b = random_attr_set(rng, h.universe), random_attr_set(rng, h.universe)
            entailment.search_hypergraph(h, a.mask, b.mask, budget)
            min_budget(h, a, b)
        assert len(conversions) == 1
        zero_mask, positive = entailment._split_edges(h, h.units[1])
        start = h.closure_kernel().closure(zero_mask, a.mask)
        costs = [cost for cost, *_ in entailment.closed_set_search(
            entailment.zero_step(h, zero_mask), positive, start, rng.randrange(8))]
        assert len(conversions) == 1 and all(type(cost) is int for cost in costs)
    searches, search = [], entailment.closed_set_search
    monkeypatch.setattr(entailment, "closed_set_search",
                        lambda *args: searches.append(args) or search(*args))
    most = 0
    for f in [_chain(ATOM_CAP - 1), *_odd_stream(60)]:
        conversions.clear()
        searches.clear()
        decide_satisfiable(f)
        assert len(conversions) == 1, str(f)
        most = max(most, len(searches))
    assert most > 1


def _chain(goal_budget):
    """``P1 & ... & P19 => G`` over 20 attributes: Pi is {xi} |1 {xi+1}, G {x1} |b {x20}."""
    u = Universe([f"x{i}" for i in range(1, ATOM_CAP + 1)])
    links = [Atom(u.set_of([f"x{i}"]), u.set_of([f"x{i + 1}"]), Fraction(1))
             for i in range(1, ATOM_CAP)]
    goal = Atom(u.set_of(["x1"]), u.set_of([f"x{ATOM_CAP}"]), Fraction(goal_budget))
    return Implies(conj(*links), goal)


def test_decide_valid_chain_at_atom_cap(monkeypatch):
    built = []
    build = entailment.canonical_hypergraph
    monkeypatch.setattr(entailment, "canonical_hypergraph",
                        lambda *args: built.append(args) or build(*args))
    valid = _chain(ATOM_CAP - 1)
    assert len(atoms(valid)) == ATOM_CAP
    assert decide_valid(valid).verdict == "valid"
    assert len(built) <= ATOM_CAP + 1

    built.clear()
    invalid = _chain(ATOM_CAP - 2)
    answer = decide_valid(invalid)
    assert answer.verdict == "invalid"
    assert not eval_formula_hypergraph(answer.hypergraph, invalid)
    assert len(built) <= ATOM_CAP + 1


def test_decide_satisfiable_reflexivity_unsat():
    f = parse_formula("!({a} |0 {a})", AB)
    assert decide_satisfiable(f).verdict == "unsat"


def test_decide_satisfiable_asymmetry_sat():
    f = parse_formula("{a} |4 {b} & !({b} |4 {a})", AB)
    answer = decide_satisfiable(f)
    assert answer.verdict == "sat"
    # the returned hypergraph satisfies each atom exactly as assigned
    for atom, value in answer.assignment.items():
        assert hyper_eval_atom(answer.hypergraph, atom) == value


def test_decide_satisfiable_transitivity_unsat():
    f = parse_formula("{a} |1 {b} & {b} |1 {c} & !({a} |2 {c})", ABC)
    assert decide_satisfiable(f).verdict == "unsat"


def test_decide_valid_augmentation_instance():
    f = parse_formula("{a} |1 {b} => {a,c} |1 {b,c}", ABC)
    assert decide_valid(f).verdict == "valid"


def test_decide_valid_monotonicity_instance():
    f = parse_formula("{a} |1 {b} => {a} |3 {b}", AB)
    assert decide_valid(f).verdict == "valid"


def test_decide_invalid_fig5_implication(fig5_universe):
    f = parse_formula("{a} |4 {b} => {} |4 {b}", fig5_universe)
    answer = decide_valid(f)
    assert answer.verdict == "invalid"
    assert not eval_formula_hypergraph(answer.hypergraph, f)
    assert answer.assignment[parse_atom("{a} |4 {b}", fig5_universe)] is True
    assert answer.assignment[parse_atom("{} |4 {b}", fig5_universe)] is False


def test_decide_invalid_formula_one(fig4_universe):
    f = parse_formula(
        "{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})", AB
    )
    answer = decide_valid(f)
    assert answer.verdict == "invalid"
    assert not eval_formula_hypergraph(answer.hypergraph, f)


def test_invalid_always_ships_falsifying_hypergraph():
    rng = random.Random(63)
    seen_invalid = 0
    for _ in range(150):
        u = Universe("abc"[: rng.randint(2, 3)])
        f = random_formula(rng, u, max_atoms=3)
        answer = decide_valid(f)
        if answer.verdict == "invalid":
            seen_invalid += 1
            assert not eval_formula_hypergraph(answer.hypergraph, f)
    assert seen_invalid > 30


def test_atom_cap():
    f = parse_formula("{a} |1 {b} & {b} |2 {a} & {a} |3 {b}", AB)
    with pytest.raises(CapExceededError):
        decide_satisfiable(f, cap=2)
