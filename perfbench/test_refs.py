"""The benchmark's references agree with budgetfd's own oracles.

Run from the root of a checkout:  python3 -m pytest perfbench/test_refs.py
"""

import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import pytest  # noqa: E402

import gen  # noqa: E402
import refs  # noqa: E402
from budgetfd import (  # noqa: E402
    UNREACHABLE,
    AttrSet,
    Atom,
    Hypergraph,
    Premise,
    Reflexivity,
    Transitivity,
    Universe,
    check_proof,
    decide_satisfiable,
    decide_valid,
    entails,
    min_budget_bruteforce,
    parse_formula,
)
from budgetfd.infomodel import InfoModel, eval_atom_model, mine_dependencies  # noqa: E402
from budgetfd.proofs import proof_to_json_dict  # noqa: E402

WEIGHTS = [Fraction(x) for x in ("0", "1/2", "1", "3/2", "2", "3")]
NAMES = list("abcdef")


def random_edges(rng, n, count):
    return [(gen._pick(rng, n, 0, 2), gen._pick(rng, n, 1, 2), rng.choice(WEIGHTS))
            for _ in range(count)]


def to_atoms(universe, edges):
    return [Atom(AttrSet(universe, t), AttrSet(universe, h), w) for t, h, w in edges]


def test_min_budget_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        universe = Universe(NAMES[:n])
        edges = refs.dedup(random_edges(rng, n, rng.randint(0, 10)))
        h = Hypergraph(universe, [(AttrSet(universe, t), AttrSet(universe, hd), w)
                                  for t, hd, w in edges])
        source, target = rng.randrange(1 << n), rng.randrange(1 << n)
        expected = min_budget_bruteforce(h, AttrSet(universe, source), AttrSet(universe, target))
        got = refs.min_budget(edges, source, target)
        assert (got is None) == (expected is UNREACHABLE)
        if got is not None:
            assert got == expected


def _proved_goal(rng):
    while True:
        n = rng.randint(2, 5)
        universe = Universe(NAMES[:n])
        edges = refs.dedup(random_edges(rng, n, rng.randint(1, 7)))
        lhs, rhs = rng.randrange(1 << n), rng.randrange(1, 1 << n)
        minimum = refs.min_budget(edges, lhs, rhs)
        if minimum is None:
            continue
        goal = (lhs, rhs, minimum + rng.choice([Fraction(0), Fraction(1)]))
        premises = to_atoms(universe, edges)
        answer = entails(premises, Atom(AttrSet(universe, lhs), AttrSet(universe, rhs), goal[2]))
        assert answer.entailed
        return universe, edges, premises, goal, answer.proof


def test_proof_walker_accepts_what_check_proof_accepts():
    rng = random.Random(11)
    for _ in range(200):
        universe, edges, premises, goal, proof = _proved_goal(rng)
        assert check_proof(proof, premises)
        assert refs.walk_proof(list(universe.names), proof_to_json_dict(proof), edges) == goal


def _tampered(universe, premises, proof, kind):
    u = universe
    if kind == "premise":
        stray = Atom(u.empty(), u.full(), Fraction(1, 3))  # never a generated premise
        return Transitivity(Premise(stray), Reflexivity(u.full(), proof.concludes.rhs,
                                                        Fraction(0)))
    if kind == "reflexivity":
        return Reflexivity(u.empty(), u.full(), Fraction(0))
    # transitivity whose middle sets differ
    return Transitivity(proof, Reflexivity(u.full(), u.full(), Fraction(0)))


@pytest.mark.parametrize("kind", ["premise", "reflexivity", "transitivity"])
def test_proof_walker_rejects_what_check_proof_rejects(kind):
    rng = random.Random(13)
    for _ in range(50):
        universe, edges, premises, goal, proof = _proved_goal(rng)
        bad = _tampered(universe, premises, proof, kind)
        if kind == "transitivity" and proof.concludes.rhs == universe.full():
            continue  # middles coincide: nothing is tampered
        assert not check_proof(bad, premises)
        with pytest.raises(ValueError):
            refs.walk_proof(list(universe.names), proof_to_json_dict(bad), edges)


def test_proof_walker_rejects_a_misstated_conclusion():
    rng = random.Random(17)
    universe, edges, premises, goal, proof = _proved_goal(rng)
    data = proof_to_json_dict(proof)
    data["concludes"] = refs.atom_text(list(universe.names), (goal[0], goal[1], goal[2] + 1))
    with pytest.raises(ValueError):
        refs.walk_proof(list(universe.names), data, edges)


def test_satisfiability_matches_the_program():
    rng = random.Random(19)
    universe = Universe(gen.SV_NAMES)
    for _ in range(60):
        k = rng.randint(2, 3)
        f = gen._disjunction(rng, k, blocked_all=rng.random() < 0.5)
        parsed = parse_formula(refs.formula_text(gen.SV_NAMES, f), universe)
        assert (decide_satisfiable(parsed).verdict == "sat") == refs.satisfiable(f)
    for _ in range(60):
        f = gen._chain(rng, rng.randint(3, 6), valid=rng.random() < 0.5)
        parsed = parse_formula(refs.formula_text(gen.SV_NAMES, f), universe)
        assert (decide_valid(parsed).verdict == "valid") == refs.valid(f)


def test_model_references_match_the_program():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(3, 5)
        names, costs, rows = gen._table(rng, n, rng.randint(5, 40))
        table = refs.Table(names, costs, rows)
        model = InfoModel(Universe(names),
                          tuple(float("inf") if c is None else c for c in costs), tuple(rows))
        cap = rng.choice([Fraction(1), Fraction(5, 2), Fraction(6)])
        expected = {str(a) for a in mine_dependencies(model, cap, 2)}
        assert table.mine(cap, 2) == expected
        for _ in range(10):
            atom = (gen._pick(rng, n, 0, 2), gen._pick(rng, n, 1, 2), rng.choice(WEIGHTS))
            program_atom = Atom(AttrSet(model.universe, atom[0]),
                                AttrSet(model.universe, atom[1]), atom[2])
            assert table.holds(atom) == eval_atom_model(model, program_atom)
