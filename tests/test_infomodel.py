import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from budgetfd import (
    Atom,
    AttrSet,
    Universe,
    agrees_on,
    eval_atom_model,
    eval_formula_model,
    make_model,
    mine_dependencies,
    parse_atom,
    parse_formula,
    rank,
    set_cost,
    truncate_costs,
)
from budgetfd import search
from budgetfd.errors import CapExceededError
from budgetfd.infomodel import (
    INF,
    InfoModel,
    atom_witness,
    load_model_csv,
)

from _gen import (
    BUDGET_GRID,
    NAMES,
    random_atom,
    random_attr_set,
    random_formula,
    random_model,
)

AB = Universe(["a", "b"])


# -- the subset-scan oracle --------------------------------------------------
#
# The models' semantics by subset scan: a purchase set is a subset of the
# affordable attributes, tried in order of size (``search.find_witness``) or
# cost (``search.min_cost_subset``), and each try rescans every row.


def _determines(m, key_mask: int, target_mask: int) -> bool:
    key_idx = AttrSet(m.universe, key_mask).indices()
    target_idx = AttrSet(m.universe, target_mask).indices()
    seen: dict[tuple, tuple] = {}
    for row in m.rows:
        key = tuple(row[i] for i in key_idx)
        val = tuple(row[i] for i in target_idx)
        if seen.setdefault(key, val) != val:
            return False
    return True


def _feasible(m, candidates, lhs_mask: int, target_mask: int):
    def feasible(picked: tuple[int, ...]) -> bool:
        extra = sum(1 << candidates[k] for k in picked)
        return _determines(m, lhs_mask | extra, target_mask)

    return feasible


def eval_atom_subset_scan(m, atom) -> bool:
    candidates = [i for i in range(len(m.universe))
                  if not atom.lhs.mask >> i & 1 and m.costs[i] <= atom.budget]
    costs = [m.costs[i] for i in candidates]
    feasible = _feasible(m, candidates, atom.lhs.mask, atom.rhs.mask)
    return search.find_witness(costs, atom.budget, feasible) is not None


def mine_subset_scan(m, budget_cap: Fraction, max_lhs: int) -> list:
    n = len(m.universe)
    minima = {}
    for b in range(n):
        others = [i for i in range(n) if i != b]
        for size in range(min(max_lhs, len(others)) + 1):
            for lhs in combinations(others, size):
                lhs_mask = sum(1 << i for i in lhs)
                candidates = [i for i in range(n)
                              if not lhs_mask >> i & 1 and m.costs[i] <= budget_cap]
                costs = [m.costs[i] for i in candidates]
                found = search.min_cost_subset(
                    costs, budget_cap, _feasible(m, candidates, lhs_mask, 1 << b))
                minima[(b, lhs)] = None if found is None else found[0]
    out = []
    for (b, lhs), price in minima.items():
        if price is None:
            continue
        smaller = (minima[(b, tuple(x for x in lhs if x != drop))] for drop in lhs)
        if any(p is not None and p <= price for p in smaller):
            continue
        lhs_mask = sum(1 << i for i in lhs)
        out.append(Atom(AttrSet(m.universe, lhs_mask), AttrSet(m.universe, 1 << b), price))
    return sorted(out, key=Atom.sort_key)


def assert_minimal_witness(m, atom, witness) -> None:
    """Affordable, sufficient, and no bought attribute can be left out."""
    assert set_cost(m, witness) <= atom.budget
    assert _determines(m, atom.lhs.mask | witness.mask, atom.rhs.mask)
    for drop in witness.indices():
        smaller = witness.mask & ~(1 << drop)
        assert not _determines(m, atom.lhs.mask | smaller, atom.rhs.mask)


ORACLE_PRICES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), INF]


def oracle_model(rng: random.Random) -> InfoModel:
    """2-5 attributes, zero and inf prices, repeated rows, constant columns."""
    n = rng.randint(2, 5)
    constant = {i for i in range(n) if rng.random() < 0.2}
    distinct = [tuple("0" if i in constant else str(rng.randint(0, 2)) for i in range(n))
                for _ in range(rng.randint(1, 10))]
    rows = [rng.choice(distinct) for _ in range(rng.randint(1, 14))]
    costs = tuple(rng.choice(ORACLE_PRICES) for _ in range(n))
    return InfoModel(Universe(NAMES[:n]), costs, tuple(rows))


def test_agrees_on_basics():
    u = Universe(["x", "y"])
    assert agrees_on(("0", "1"), ("0", "0"), u.empty())
    assert agrees_on(("0", "1"), ("0", "1"), u.full())
    assert agrees_on(("0", "1"), ("0", "0"), u.set_of(["x"]))
    assert not agrees_on(("0", "1"), ("0", "0"), u.set_of(["y"]))


def test_set_cost_examples():
    m = make_model(["a", "b", "v"], [3, 5, INF], [("0", "0", "0")])
    u = m.universe
    assert set_cost(m, u.empty()) == 0
    assert set_cost(m, u.set_of(["a", "b"])) == 8
    assert set_cost(m, u.set_of(["a", "v"])) == INF


def test_fig4_model(fig4_model):
    u = fig4_model.universe
    assert not eval_atom_model(fig4_model, parse_atom("{} |4 {b}", u))
    assert eval_atom_model(fig4_model, parse_atom("{} |5 {b}", u))
    assert not eval_atom_model(fig4_model, parse_atom("{a} |4 {b}", u))


def test_reflexivity_holds_in_any_model():
    rng = random.Random(71)
    for _ in range(50):
        m = random_model(rng)
        u = m.universe
        a = random_attr_set(rng, u)
        b = a & random_attr_set(rng, u)  # subset of a
        assert eval_atom_model(m, Atom(a, b, Fraction(0)))


def test_fig5_model(fig5_model):
    u = fig5_model.universe
    assert eval_atom_model(fig5_model, parse_atom("{a} |4 {b}", u))
    assert not eval_atom_model(fig5_model, parse_atom("{} |4 {b}", u))
    f = parse_formula("{a} |4 {b} => {} |4 {b}", u)
    assert eval_formula_model(fig5_model, f) is False


def test_tautology_holds(fig5_model):
    u = fig5_model.universe
    f = parse_formula("{a} |1 {b} | !({a} |1 {b})", u)
    assert eval_formula_model(fig5_model, f)


def test_fig10_finite_model_falsifies_formula_one(fig10_finite_model):
    m = fig10_finite_model
    u = m.universe
    assert eval_atom_model(m, parse_atom("{a} |1 {b}", u))
    assert eval_atom_model(m, parse_atom("{b} |5 {a}", u))
    assert not eval_atom_model(m, parse_atom("{} |5 {a}", u))
    assert not eval_atom_model(m, parse_atom("{} |1 {b}", u))
    assert not eval_atom_model(m, parse_atom("{b} |4 {a}", u))
    f = parse_formula(
        "{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})", u
    )
    assert eval_formula_model(m, f) is False


def test_witness_is_inclusion_minimal():
    rng = random.Random(72)
    for _ in range(150):
        m = random_model(rng)
        atom = random_atom(rng, m.universe)
        holds, witness = atom_witness(m, atom)
        if not holds:
            assert witness is None
            continue
        assert_minimal_witness(m, atom, witness)


def test_closed_set_search_matches_subset_scan():
    rng = random.Random(76)
    for _ in range(1200):
        m = oracle_model(rng)
        cap, max_lhs = rng.choice(BUDGET_GRID), rng.randint(0, 2)
        assert mine_dependencies(m, cap, max_lhs) == mine_subset_scan(m, cap, max_lhs), (
            m, cap, max_lhs)
        for _ in range(3):
            n = len(m.universe)
            lhs = rng.randrange(1 << n) & rng.randrange(1 << n)
            rhs = rng.randrange(1, 1 << n) & rng.randrange(1, 1 << n)
            atom = Atom(AttrSet(m.universe, lhs), AttrSet(m.universe, rhs),
                        rng.choice(BUDGET_GRID[:4]))
            holds, witness = atom_witness(m, atom)
            assert holds == eval_atom_subset_scan(m, atom), (m, atom)
            if holds:
                assert_minimal_witness(m, atom, witness)


def test_budget_monotonicity():
    rng = random.Random(73)
    for _ in range(120):
        m = random_model(rng)
        atom = random_atom(rng, m.universe)
        if eval_atom_model(m, atom):
            assert eval_atom_model(m, Atom(atom.lhs, atom.rhs, atom.budget + 1))


def test_truncate_costs():
    m = make_model(["a", "v"], [3, INF], [("0", "1")])
    t = truncate_costs(m, Fraction(5))
    assert t.costs == (Fraction(3), Fraction(5))
    assert t.rows == m.rows
    low = make_model(["a"], [2], [("0",)])
    assert truncate_costs(low, Fraction(5)).costs == (Fraction(2),)
    assert all(c != INF for c in truncate_costs(m, Fraction(0)).costs)


def test_truncation_preserves_low_rank_formulas():
    rng = random.Random(74)
    for _ in range(120):
        m = random_model(rng, allow_inf=True)
        f = random_formula(rng, m.universe, max_atoms=3)
        r = rank(f) + rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
        assert eval_formula_model(m, f) == eval_formula_model(truncate_costs(m, r), f)


def test_soundness_axiom_suite_small():
    rng = random.Random(75)
    for _ in range(120):
        m = random_model(rng)
        u = m.universe
        a, b, c = (random_attr_set(rng, u) for _ in range(3))
        p = rng.choice([Fraction(0), Fraction(1), Fraction(2)])
        q = rng.choice([Fraction(0), Fraction(1), Fraction(2)])
        if b <= a:
            assert eval_atom_model(m, Atom(a, b, p))
        if eval_atom_model(m, Atom(a, b, p)):
            assert eval_atom_model(m, Atom(a | c, b | c, p))
            assert eval_atom_model(m, Atom(a, b, p + q))
            if eval_atom_model(m, Atom(b, c, q)):
                assert eval_atom_model(m, Atom(a, c, p + q))


def test_mine_fig5(fig5_model):
    u = fig5_model.universe
    found = mine_dependencies(fig5_model, Fraction(5), max_lhs=2)
    texts = {str(atom) for atom in found}
    assert "{a} |4 {b}" in texts
    assert "{} |5 {b}" in texts
    assert not any(t.startswith("{} |") and t.endswith("{b}") and t != "{} |5 {b}" for t in texts)
    assert "{b,c} |0 {a}" in texts  # pad xor relation


def test_mine_single_row_model():
    m = make_model(["a", "b"], [1, 1], [("0", "1")])
    found = mine_dependencies(m, Fraction(0), max_lhs=1)
    assert {str(atom) for atom in found} == {"{} |0 {a}", "{} |0 {b}"}


def test_mine_identical_columns():
    m = make_model(["a", "b"], [0, 0], [("0", "0"), ("1", "1")])
    # each column determines the other at budget 0
    assert eval_atom_model(m, parse_atom("{a} |0 {b}", m.universe))
    assert eval_atom_model(m, parse_atom("{b} |0 {a}", m.universe))
    # with zero prices even the empty left side suffices, and the miner
    # keeps only the inclusion-minimal version
    found = mine_dependencies(m, Fraction(0), max_lhs=1)
    assert {str(atom) for atom in found} == {"{} |0 {a}", "{} |0 {b}"}
    # with unaffordable columns the mutual dependency is what survives
    priced = make_model(["a", "b"], [7, 7], [("0", "0"), ("1", "1")])
    found = mine_dependencies(priced, Fraction(1), max_lhs=1)
    assert {str(atom) for atom in found} == {"{a} |0 {b}", "{b} |0 {a}"}


def test_affordable_cap():
    names = [f"c{i}" for i in range(26)]
    m = make_model(names, [0] * 26, [tuple("0" * 26), tuple("1" * 26)])
    with pytest.raises(CapExceededError):
        eval_atom_model(m, parse_atom("{} |0 {c0}", m.universe))


def test_json_roundtrip(fig5_model):
    blob = json.dumps(fig5_model.to_json_dict())
    again = InfoModel.from_json_dict(json.loads(blob))
    assert again.universe == fig5_model.universe
    assert again.costs == fig5_model.costs
    assert again.rows == fig5_model.rows


def test_csv_loading(tmp_path):
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("a,b,c\n0,0,0\n1,0,1\n")
    costs_file = tmp_path / "costs.txt"
    costs_file.write_text("# prices\na=3\nb=inf\nc=9/2\n")
    m = load_model_csv(str(csv_file), str(costs_file))
    assert m.universe == Universe(["a", "b", "c"])
    assert m.costs == (Fraction(3), INF, Fraction(9, 2))
    assert m.rows == (("0", "0", "0"), ("1", "0", "1"))
    assert eval_atom_model(m, parse_atom("{a} |0 {c}", m.universe))
