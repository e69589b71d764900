import random
from fractions import Fraction
from itertools import product

import pytest

from budgetfd import (
    Atom,
    Implies,
    Not,
    Universe,
    atoms,
    conj,
    disj,
    evaluate,
    parse_atom,
    parse_attr_set,
    parse_budget,
    parse_formula,
    rank,
    to_text,
)
from budgetfd.formula import (
    FormulaError,
    FormulaSyntaxError,
    UnknownAttributeError,
    evaluate_lazily,
    evaluate_partial,
)

from _gen import random_formula, random_universe

AB = Universe(["a", "b"])
ABC = Universe(["a", "b", "c"])

FORMULA_1 = "{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})"


def test_parse_single_atom():
    atom = parse_formula("{a} |3 {b}", AB)
    assert atom == Atom(AB.set_of(["a"]), AB.set_of(["b"]), Fraction(3))


def test_parse_formula_one():
    f = parse_formula(FORMULA_1, AB)
    a1b = Atom(AB.set_of(["a"]), AB.set_of(["b"]), Fraction(1))
    b5a = Atom(AB.set_of(["b"]), AB.set_of(["a"]), Fraction(5))
    e5a = Atom(AB.empty(), AB.set_of(["a"]), Fraction(5))
    e1b = Atom(AB.empty(), AB.set_of(["b"]), Fraction(1))
    b4a = Atom(AB.set_of(["b"]), AB.set_of(["a"]), Fraction(4))
    assert f == Implies(conj(a1b, b5a), disj(disj(e5a, e1b), b4a))


def test_missing_budget_is_rejected():
    with pytest.raises(FormulaSyntaxError, match="missing budget"):
        parse_formula("{a} | {b}", AB)


def test_unknown_attribute():
    with pytest.raises(UnknownAttributeError):
        parse_formula("{z} |1 {a}", AB)


def test_bad_budget_literals():
    with pytest.raises(FormulaError):
        parse_formula("{a} |1/0 {b}", AB)
    with pytest.raises(FormulaError):
        parse_budget("-3")


def test_rational_budgets_are_exact():
    assert parse_budget("4.5") == Fraction(9, 2)
    assert parse_budget("9/2") == Fraction(9, 2)
    atom = parse_atom("{a} |4.5 {b}", AB)
    assert atom.budget == Fraction(9, 2)
    assert str(atom) == "{a} |9/2 {b}"


def test_atoms_listing():
    single = parse_formula("{a} |3 {b}", AB)
    assert atoms(single) == [single]
    assert len(atoms(parse_formula(FORMULA_1, AB))) == 5
    x = parse_formula("{a} |1 {b} & {a} |1 {b}", AB)
    assert len(atoms(x)) == 1


def test_rank_examples():
    assert rank(parse_formula("{a} |4 {b}", AB)) == 4
    assert rank(parse_formula("!{a} |4 {b}", AB)) == 4
    assert rank(parse_formula(FORMULA_1, AB)) == 5


def test_evaluate_implication():
    f = parse_formula("{a} |1 {b} => {b} |1 {a}", AB)
    x, y = atoms(f)[0], atoms(f)[1]
    lookup = {str(a): a for a in atoms(f)}
    x = lookup["{a} |1 {b}"]
    y = lookup["{b} |1 {a}"]
    assert evaluate(f, {x: False, y: False}) is True
    assert evaluate(f, {x: True, y: False}) is False
    assert evaluate(f, {x: True, y: True}) is True


def test_evaluate_formula_one_all_true():
    f = parse_formula(FORMULA_1, AB)
    assert evaluate(f, {a: True for a in atoms(f)}) is True


def test_evaluate_lazily_asks_reached_atoms_once():
    x = parse_atom("{a} |1 {b}", AB)
    y = parse_atom("{b} |1 {a}", AB)
    asked = []

    def oracle(atom):
        asked.append(atom)
        return atom == y

    assert evaluate_lazily(Implies(x, y), oracle) is True
    assert asked == [x]  # a false premise short-circuits the implication
    asked.clear()
    assert evaluate_lazily(conj(y, disj(x, y)), oracle) is True
    assert asked == [y, x]


def test_evaluate_partial_agrees_with_every_completion():
    rng = random.Random(29)
    decided = 0
    for _ in range(300):
        f = random_formula(rng, random_universe(rng, 3), max_atoms=5)
        used = atoms(f)
        for known in product([None, False, True], repeat=len(used)):
            partial = {a: v for a, v in zip(used, known) if v is not None}
            value = evaluate_partial(f, partial)
            if value is None:
                continue
            decided += 1
            open_atoms = [a for a in used if a not in partial]
            for rest in product([False, True], repeat=len(open_atoms)):
                assert evaluate(f, {**partial, **dict(zip(open_atoms, rest))}) is value
    assert decided > 1000


def test_evaluate_partial_kleene_unknowns():
    x = parse_formula("{a} |1 {b}", AB)
    y = parse_formula("{b} |1 {a}", AB)
    f = Implies(x, y)
    assert evaluate_partial(f, {}) is None
    assert evaluate_partial(f, {x: False}) is True
    assert evaluate_partial(f, {y: True}) is True
    assert evaluate_partial(f, {x: True}) is None
    assert evaluate_partial(f, {x: True, y: False}) is False
    assert evaluate_partial(Not(f), {x: True, y: False}) is True
    assert evaluate_partial(Implies(x, x), {}) is None  # Kleene misses tautologies


def test_evaluate_missing_atom():
    f = parse_formula("{a} |1 {b}", AB)
    with pytest.raises(FormulaError, match="missing atom"):
        evaluate(f, {})


def test_roundtrip_paper_formula():
    f = parse_formula(FORMULA_1, AB)
    assert parse_formula(to_text(f), AB) == f


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        u = random_universe(rng, 4)
        f = random_formula(rng, u)
        assert parse_formula(to_text(f), u) == f


def test_rank_laws_random():
    rng = random.Random(8)
    for _ in range(200):
        u = random_universe(rng, 4)
        f, g = random_formula(rng, u), random_formula(rng, u)
        assert rank(Not(f)) == rank(f)
        assert rank(Implies(f, g)) == max(rank(f), rank(g))


def _sugar_tree(rng, pool, depth):
    """Parallel sugared representation evaluated directly as the oracle."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(pool)
    op = rng.choice(["not", "imp", "and", "or"])
    if op == "not":
        return ("not", _sugar_tree(rng, pool, depth - 1))
    return (op, _sugar_tree(rng, pool, depth - 1), _sugar_tree(rng, pool, depth - 1))


def _desugar(tree):
    if isinstance(tree, Atom):
        return tree
    if tree[0] == "not":
        return Not(_desugar(tree[1]))
    if tree[0] == "imp":
        return Implies(_desugar(tree[1]), _desugar(tree[2]))
    if tree[0] == "and":
        return conj(_desugar(tree[1]), _desugar(tree[2]))
    return disj(_desugar(tree[1]), _desugar(tree[2]))


def _eval_sugar(tree, sigma):
    if isinstance(tree, Atom):
        return sigma[tree]
    if tree[0] == "not":
        return not _eval_sugar(tree[1], sigma)
    if tree[0] == "imp":
        return (not _eval_sugar(tree[1], sigma)) or _eval_sugar(tree[2], sigma)
    if tree[0] == "and":
        return _eval_sugar(tree[1], sigma) and _eval_sugar(tree[2], sigma)
    return _eval_sugar(tree[1], sigma) or _eval_sugar(tree[2], sigma)


def test_desugared_connectives_match_truth_tables():
    rng = random.Random(9)
    for _ in range(150):
        pool = [
            Atom(ABC.set_of(["a"]), ABC.set_of(["b"]), Fraction(k)) for k in range(4)
        ][: rng.randint(1, 4)]
        tree = _sugar_tree(rng, pool, 3)
        f = _desugar(tree)
        used = atoms(f)
        for values in product([False, True], repeat=len(used)):
            sigma = dict(zip(used, values))
            assert evaluate(f, sigma) == _eval_sugar(tree, sigma)


def test_attr_set_parsing():
    assert parse_attr_set("{}", ABC) == ABC.empty()
    assert parse_attr_set("{b,a}", ABC) == ABC.set_of(["a", "b"])
    assert str(parse_attr_set("{c,a}", ABC)) == "{a,c}"
