import json
import random
from fractions import Fraction

import pytest

from budgetfd import (
    Atom,
    AttrSet,
    Augmentation,
    Premise,
    Reflexivity,
    Transitivity,
    Universe,
    build_proof,
    canonical_hypergraph,
    check_proof,
    closure_trace,
    derive_general_augmentation,
    derive_monotonicity,
    derive_weakening,
    entails,
    eval_atom_model,
    parse_atom,
)
from budgetfd.proofs import Proof, proof_from_json_dict, proof_to_json_dict

from _gen import random_atom, random_model

ABC = Universe(["a", "b", "c"])
ABCD = Universe(["a", "b", "c", "d"])


def leaf_budget_total(proof: Proof) -> Fraction:
    """Independent budget recomputation: sum over all leaves."""
    if isinstance(proof, Premise):
        return proof.atom.budget
    if isinstance(proof, Reflexivity):
        return proof.budget
    if isinstance(proof, Augmentation):
        return leaf_budget_total(proof.sub)
    if isinstance(proof, Transitivity):
        return leaf_budget_total(proof.left) + leaf_budget_total(proof.right)
    raise TypeError(proof)


def test_reflexivity_side_condition():
    ok = Reflexivity(ABC.set_of(["a", "b"]), ABC.set_of(["a"]), Fraction(0))
    assert check_proof(ok, [])
    bad = Reflexivity(ABC.set_of(["a"]), ABC.set_of(["b"]), Fraction(0))
    result = check_proof(bad, [])
    assert not result
    assert result.failure_path == ()
    assert "reflexivity" in result.reason


def test_transitivity_of_premises():
    a1b = parse_atom("{a} |1 {b}", ABC)
    b2c = parse_atom("{b} |2 {c}", ABC)
    proof = Transitivity(Premise(a1b), Premise(b2c))
    assert proof.concludes == parse_atom("{a} |3 {c}", ABC)
    assert check_proof(proof, [a1b, b2c])
    assert not check_proof(proof, [a1b])  # second premise not assumed


def test_transitivity_middle_mismatch():
    proof = Transitivity(
        Premise(parse_atom("{a} |1 {b}", ABC)),
        Premise(parse_atom("{c} |2 {c}", ABC)),
    )
    result = check_proof(
        proof, [parse_atom("{a} |1 {b}", ABC), parse_atom("{c} |2 {c}", ABC)]
    )
    assert not result and "middle" in result.reason


def test_failure_path_points_at_offending_node():
    bad = Transitivity(
        Reflexivity(ABC.set_of(["a"]), ABC.set_of(["a"]), Fraction(0)),
        Augmentation(Reflexivity(ABC.set_of(["a"]), ABC.set_of(["b"]), Fraction(1)),
                     ABC.set_of(["c"])),
    )
    result = check_proof(bad, [])
    assert result.failure_path == (1, 0)


def test_check_proof_cites_premises_exactly():
    a1b = parse_atom("{a} |1 {b}", ABC)
    proof = Transitivity(Premise(a1b), Reflexivity(ABC.set_of("b"), ABC.set_of("b"), Fraction(1)))
    other_budget = parse_atom("{a} |2 {b}", ABC)  # the same masks at another budget
    BAC = Universe(["b", "a", "c"])  # the same masks over another universe
    foreign = Atom(AttrSet(BAC, a1b.lhs.mask), AttrSet(BAC, a1b.rhs.mask), a1b.budget)
    for premises, universe, ok in (([a1b, other_budget], ABC, True),
                                   ([other_budget], ABC, False),
                                   ([foreign], BAC, False)):
        for given in (premises, canonical_hypergraph(premises, universe)):
            result = check_proof(proof, given)
            assert bool(result) is ok
            if not ok:
                assert result.failure_path == (0,) and "not assumed" in result.reason


def test_build_proof_single_premise():
    prem = [parse_atom("{a} |1 {b}", ABC)]
    goal = prem[0]
    h = canonical_hypergraph(prem, ABC)
    trace = closure_trace(h, goal.lhs, [0])
    proof = build_proof(h, prem, goal, trace, [0])
    assert proof.concludes == goal
    assert check_proof(proof, prem)


def test_build_proof_chain():
    prem = [parse_atom("{a} |1 {b}", ABC), parse_atom("{b} |2 {c}", ABC)]
    goal = parse_atom("{a} |3 {c}", ABC)
    h = canonical_hypergraph(prem, ABC)
    trace = closure_trace(h, goal.lhs, [0, 1])
    proof = build_proof(h, prem, goal, trace, [0, 1])
    assert proof.concludes == goal
    assert check_proof(proof, prem)

    def count_trans(p):
        if isinstance(p, Transitivity):
            return 1 + count_trans(p.left) + count_trans(p.right)
        if isinstance(p, Augmentation):
            return count_trans(p.sub)
        return 0

    assert count_trans(proof) >= 2


def test_build_proof_weakening_shape():
    prem = [parse_atom("{a} |2 {c,d}", ABCD)]
    goal = parse_atom("{a,b} |2 {c}", ABCD)
    h = canonical_hypergraph(prem, ABCD)
    trace = closure_trace(h, goal.lhs, [0])
    proof = build_proof(h, prem, goal, trace, [0])
    assert proof.concludes == goal
    assert check_proof(proof, prem)


def test_build_proof_rejects_bad_inputs():
    prem = [parse_atom("{a} |2 {b}", ABC)]
    h = canonical_hypergraph(prem, ABC)
    goal = parse_atom("{a} |1 {b}", ABC)  # cheaper than the only edge
    trace = closure_trace(h, goal.lhs, [0])
    with pytest.raises(ValueError):
        build_proof(h, prem, goal, trace, [0])
    unreachable = parse_atom("{b} |2 {a}", ABC)
    with pytest.raises(ValueError):
        build_proof(h, prem, unreachable, closure_trace(h, unreachable.lhs, [0]), [0])


def test_derive_monotonicity():
    proof = derive_monotonicity(ABC.set_of(["a"]), ABC.set_of(["b"]), Fraction(1), Fraction(3))
    assert proof.concludes == parse_atom("{a} |3 {b}", ABC)
    assert check_proof(proof, [parse_atom("{a} |1 {b}", ABC)])
    with pytest.raises(ValueError):
        derive_monotonicity(ABC.set_of(["a"]), ABC.set_of(["b"]), Fraction(3), Fraction(1))


def test_derive_weakening():
    p = Fraction(2)
    proof = derive_weakening(
        p, ABCD.set_of(["a"]), ABCD.set_of(["b"]), ABCD.set_of(["c"]), ABCD.set_of(["d"])
    )
    assert proof.concludes == parse_atom("{a,b} |2 {c}", ABCD)
    assert check_proof(proof, [parse_atom("{a} |2 {c,d}", ABCD)])


def test_derive_general_augmentation():
    proof = derive_general_augmentation(
        ABCD.set_of(["a"]), ABCD.set_of(["b"]), ABCD.set_of(["c"]), ABCD.set_of(["d"]),
        Fraction(0), Fraction(0),
    )
    assert proof.concludes == parse_atom("{a,c} |0 {b,d}", ABCD)
    assert check_proof(
        proof, [parse_atom("{a} |0 {b}", ABCD), parse_atom("{c} |0 {d}", ABCD)]
    )


def test_budget_bookkeeping_traversal():
    rng = random.Random(51)
    checked = 0
    for _ in range(200):
        prem = [random_atom(rng, ABCD) for _ in range(rng.randint(1, 4))]
        goal = random_atom(rng, ABCD)
        answer = entails(prem, goal)
        if not answer.entailed:
            continue
        checked += 1
        assert check_proof(answer.proof, prem)
        assert answer.proof.concludes == goal
        assert leaf_budget_total(answer.proof) == goal.budget
    assert checked > 30


def test_soundness_on_explicit_models():
    # conclusions of machine-built proofs hold in any model satisfying the premises
    rng = random.Random(52)
    checked = 0
    for _ in range(150):
        m = random_model(rng, max_attrs=4, max_rows=5)
        u = m.universe
        candidates = [random_atom(rng, u, budgets=[Fraction(0), Fraction(1), Fraction(2)])
                      for _ in range(4)]
        premises = [a for a in candidates if eval_atom_model(m, a)]
        if not premises:
            continue
        goal = random_atom(rng, u)
        answer = entails(premises, goal)
        if not answer.entailed:
            continue
        checked += 1
        assert eval_atom_model(m, goal), (m, premises, goal)
    assert checked > 20


def test_json_roundtrip():
    prem = [parse_atom("{a} |1 {b}", ABC), parse_atom("{b} |2 {c}", ABC)]
    answer = entails(prem, parse_atom("{a} |3 {c}", ABC))
    blob = json.dumps(proof_to_json_dict(answer.proof))
    again = proof_from_json_dict(json.loads(blob), ABC)
    assert again == answer.proof
    assert check_proof(again, prem)


def test_json_rejects_corrupted_conclusion():
    proof = derive_monotonicity(ABC.set_of(["a"]), ABC.set_of(["b"]), Fraction(1), Fraction(2))
    data = proof_to_json_dict(proof)
    data["concludes"] = "{a} |5 {b}"
    with pytest.raises(ValueError):
        proof_from_json_dict(data, ABC)
