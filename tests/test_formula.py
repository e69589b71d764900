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
from budgetfd.cli import load_premises, main
from budgetfd.entailment import canonical_hypergraph
from budgetfd.formula import (
    _PLAIN_ATOM,
    CompiledFormula,
    FormulaError,
    FormulaSyntaxError,
    UnknownAttributeError,
    _Parser,
    format_budget,
    parse_premises,
)

from _gen import BUDGET_GRID, ODD_BUDGET_GRID, random_atom, random_formula, random_universe

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


@pytest.mark.parametrize("text, pos", [
    ("{a} |1/0 {b}", 4), ("{a} |1/00 {b}", 4), ("{a}  |1..2 {b}", 5), ("{a} |1/2/ {b}", 4),
])
def test_bad_budget_literal_is_a_syntax_error_at_the_bar(text, pos):
    for parse in (parse_atom, parse_formula):
        with pytest.raises(FormulaSyntaxError, match="bad budget literal") as info:
            parse(text, AB)
        assert info.value.pos == pos


def test_budgets_take_ascii_digits_only():
    # "²" passes str.isdigit(); it starts no budget, so "|" is the boolean or
    for parse in (parse_atom, parse_formula):
        for digit in ("\u00b2", "\u0661"):
            with pytest.raises(FormulaSyntaxError, match="unexpected character") as info:
                parse(f"{{a}} |{digit} {{b}}", AB)
            assert info.value.pos == 5


def _grammar_atom(text, universe):
    parser = _Parser(text, universe)
    out = parser.atom()
    parser.take("end")
    return out


def _outcome(parse, text, universe):
    try:
        return parse(text, universe)
    except FormulaError as exc:
        return type(exc), str(exc)


def _render_atom(rng, atom):
    """``atom`` as text with random blanks and budget spellings, sometimes
    broken: unknown names, zero denominators, stray characters."""
    def blank():
        return rng.choice(["", "", " ", "  ", "\t", " \t "])

    def attr_set(s):
        names = list(s)
        if rng.random() < 0.08:
            names.insert(rng.randint(0, len(names)), rng.choice(["zz", "a1", "b.c"]))
        rng.shuffle(names)
        comma = blank() + "," + blank()
        return "{" + blank() + comma.join(names) + blank() + "}"

    b = atom.budget
    if rng.random() < 0.2:
        budget = rng.choice(["1/0", "1/00", "1.", "1/2/3", "\u00b2", " 1", ""])
    else:
        budget = rng.choice([
            format_budget(b), f"{b.numerator * 3}/{b.denominator * 3}", f"0{b.numerator}",
            str(float(b)) if 10 % b.denominator == 0 else format_budget(b),
        ])
    text = blank() + attr_set(atom.lhs) + blank() + "|" + budget + blank() + attr_set(atom.rhs)
    if rng.random() < 0.1:
        text += rng.choice(["x", "}", " |1 {}", " & {} |1 {}", ",", "=>"])
    return text + blank()


def test_parse_atom_agrees_with_the_grammar_parser():
    rng = random.Random(83)
    matched = parsed = 0
    for _ in range(3000):
        universe = random_universe(rng)
        atom = random_atom(rng, universe, rng.choice([BUDGET_GRID, ODD_BUDGET_GRID]))
        text = _render_atom(rng, atom)
        out = _outcome(parse_atom, text, universe)
        assert out == _outcome(_grammar_atom, text, universe), text
        if isinstance(out, Atom):
            assert out.universe is universe and type(out.budget) is Fraction
            parsed += 1
            matched += _PLAIN_ATOM.fullmatch(text) is not None
    assert matched > 1000 and parsed - matched > 200  # both paths ran


_BROKEN_LINES = ["{zz} |1 {a}", "{a} |1/0 {a}", "{a} |1/00 {a}", "{a} |1 {a} x",
                 "{a} | {a}", "{a,} |1 {a}", "{a} |1.5.2 {a}", "{a} |\u00b2 {a}"]


def _premise_file(rng, universe):
    """A premise file over ``universe``: comments, a header, blank lines,
    and atom lines in many spellings, duplicates among them; one file in
    three has a broken line."""
    def blank():
        return rng.choice(["", "", " ", "  ", "\t"])

    def attr_set(s):
        names = list(s)
        rng.shuffle(names)
        comma = blank() + "," + blank()
        return "{" + blank() + comma.join(names) + blank() + "}"

    def budget(b):
        spellings = [format_budget(b), f"{b.numerator * 2}/{b.denominator * 2}",
                     f"0{b.numerator}/{b.denominator}"]
        if 10 % b.denominator == 0:
            spellings.append(str(float(b)))
        return rng.choice(spellings)

    atom_list = [random_atom(rng, universe, rng.choice([BUDGET_GRID, ODD_BUDGET_GRID]))
                 for _ in range(rng.randint(0, 12))]
    atom_list += rng.sample(atom_list, min(len(atom_list), 3))
    rng.shuffle(atom_list)
    body = [blank() + attr_set(a.lhs) + blank() + "|" + budget(a.budget) + blank()
            + attr_set(a.rhs) + blank() for a in atom_list]
    if rng.random() < 1 / 3:
        body.insert(rng.randint(0, len(body)), rng.choice(_BROKEN_LINES))
    lines = ["# premises", "attrs: " + ",".join(universe.names)]
    for text in body:
        lines.append(rng.choice(["", "# a comment", "   "]) if rng.random() < 0.2 else "")
        lines.append(text + rng.choice(["", "", "  # note"]))
    return "\n".join(lines) + "\n", [text.strip() for text in body]


def _grammar_hypergraph(lines, universe):
    """``canonical_hypergraph`` of the grammar parser's atom of each line,
    or the type and message of the first error it raises."""
    try:
        return canonical_hypergraph([_grammar_atom(line, universe) for line in lines], universe)
    except FormulaError as exc:
        return type(exc), str(exc)


def test_premise_files_load_as_the_grammar_parser_reads_them(tmp_path, capsys):
    rng = random.Random(97)
    loaded = failed = 0
    for i in range(300):
        universe = random_universe(rng)
        text, lines = _premise_file(rng, universe)
        path = tmp_path / f"premises-{i}.txt"
        path.write_text(text)
        want = _grammar_hypergraph(lines, universe)
        try:
            declared, premises = load_premises(str(path), None)
            got = canonical_hypergraph(premises, declared)
        except FormulaError as exc:
            got = type(exc), str(exc)
        if isinstance(want, tuple):
            assert got == want, text
            argv = ["min-budget", "--premises", str(path), "--from", "{}", "--to", "{}"]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {want[1]}\n"
            failed += 1
            continue
        assert declared == universe
        assert (got.tails, got.heads, got.weights) == (want.tails, want.heads, want.weights), text
        assert all(type(weight) is Fraction for weight in got.weights)
        loaded += 1
    assert loaded > 150 and failed > 50


def test_premise_spellings_of_one_budget_are_one_premise():
    lines = ["{a} |1/2 {b}", "{a} |2/4 {b}", "{ a } |0.5 {b}", "{a} |01/2 {b}", "{a} |1 {b}"]
    premises = parse_premises(lines, AB)
    assert premises == [(1, 2, Fraction(1, 2))] * 4 + [(1, 2, Fraction(1))]
    h = canonical_hypergraph(premises, AB)
    assert (h.tails, h.heads, h.weights) == ((1, 1), (2, 2), (Fraction(1, 2), Fraction(1)))


def test_atoms_over_equal_universes_hash_and_compare_alike():
    u, v = Universe(["a", "b", "c"]), Universe(["a", "b", "c"])
    assert u is not v and u == v and hash(u) == hash(v)
    x = parse_atom("{a} |3/2 {b,c}", u)
    y = Atom(v.set_of(["a"]), v.set_of(["b", "c"]), Fraction(3, 2))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x.lhs | y.rhs == u.full()
    assert x != Atom(v.set_of(["a"]), v.set_of(["b", "c"]), Fraction(1))
    other = Universe(["a", "b", "d"])
    z = Atom(other.set_of(["a"]), other.set_of(["b", "d"]), Fraction(3, 2))
    assert x != z and len({x, z}) == 2  # equal masks, different universes
    with pytest.raises(FormulaError, match="different universes"):
        Atom(u.set_of(["a"]), other.set_of(["b"]), Fraction(1))


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


def _masks(compiled, known):
    """The true and false masks of the atom -> bool mapping ``known``."""
    true = false = 0
    for i, atom in enumerate(compiled.atoms):
        if atom in known:
            if known[atom]:
                true |= 1 << i
            else:
                false |= 1 << i
    return true, false


class _ReadLog(dict):
    """An assignment that logs every atom ``evaluate`` reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read = []

    def __getitem__(self, atom):
        self.read.append(atom)
        return super().__getitem__(atom)


def test_compiled_value_asks_reached_atoms_once():
    """Only the atoms ``evaluate`` reads are asked, once each, in its order."""
    x = parse_atom("{a} |1 {b}", AB)
    y = parse_atom("{b} |1 {a}", AB)
    asked = []

    def oracle(atom):
        asked.append(atom)
        return atom == y

    assert CompiledFormula(Implies(x, y)).value(ask=oracle) is True
    assert asked == [x]  # a false premise short-circuits the implication
    asked.clear()
    assert CompiledFormula(conj(y, disj(x, y))).value(ask=oracle) is True
    assert asked == [y, x]

    rng = random.Random(31)
    for _ in range(500):
        f = random_formula(rng, random_universe(rng, 3), max_atoms=5, max_depth=5)
        values = {atom: rng.random() < 0.5 for atom in atoms(f)}
        log, asked = _ReadLog(values), []
        expected = evaluate(f, log)
        got = CompiledFormula(f).value(ask=lambda atom: asked.append(atom) or values[atom])
        assert got is expected, str(f)
        assert asked == list(dict.fromkeys(log.read)), str(f)


def test_compiled_value_agrees_with_every_completion():
    rng = random.Random(29)
    decided = 0
    for _ in range(300):
        f = random_formula(rng, random_universe(rng, 3), max_atoms=5)
        compiled = CompiledFormula(f)
        used = atoms(f)
        assert compiled.atoms == used
        for known in product([None, False, True], repeat=len(used)):
            partial = {a: v for a, v in zip(used, known) if v is not None}
            value = compiled.value(*_masks(compiled, partial))
            if value is None:
                continue
            decided += 1
            open_atoms = [a for a in used if a not in partial]
            for rest in product([False, True], repeat=len(open_atoms)):
                assert evaluate(f, {**partial, **dict(zip(open_atoms, rest))}) is value
    assert decided > 1000


def test_compiled_value_kleene_unknowns():
    x = parse_formula("{a} |1 {b}", AB)
    y = parse_formula("{b} |1 {a}", AB)
    f = CompiledFormula(Implies(x, y))

    def value(known, formula=f):
        return formula.value(*_masks(formula, known))

    assert value({}) is None
    assert value({x: False}) is True
    assert value({y: True}) is True
    assert value({x: True}) is None
    assert value({x: True, y: False}) is False
    negated = CompiledFormula(Not(Implies(x, y)))
    assert value({x: True, y: False}, negated) is True
    assert value({}, CompiledFormula(Implies(x, x))) is None  # Kleene misses tautologies


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
