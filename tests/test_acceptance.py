"""Acceptance suite: scenario fixtures plus the randomized property gates.

Each test prints one PASS/FAIL line (run pytest with ``-s`` to see them all)
and enforces its wall-clock budget.
"""

import random
import time
from fractions import Fraction

from budgetfd import (
    Atom,
    Cut,
    Universe,
    check_proof,
    decide_valid,
    derive_general_augmentation,
    derive_monotonicity,
    derive_weakening,
    entails,
    eval_atom_model,
    eval_formula_hypergraph,
    eval_formula_model,
    min_budget,
    min_budget_bruteforce,
    parse_atom,
    parse_formula,
    rank,
    truncate_costs,
)
from budgetfd.formula import Implies, Not
from budgetfd.synth import (
    check_flip_claims,
    choice_function,
    count_paths,
    eval_formula_linear,
    flip_vector,
    has_hypercycle,
    materialize_acyclic,
    synthesize_model,
    verify_equations_sampled,
)

from _gen import (
    BUDGET_GRID,
    random_attr_set,
    random_formula,
    random_hypergraph,
    random_model,
)


def _report(name: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"[{status}] {name}: {elapsed:.1f}s (limit {limit:.0f}s){extra}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: took {elapsed:.1f}s, limit {limit}s"


# -- 1. paper-scenario fixtures ---------------------------------------------

def test_acceptance_1_fixtures(fig4_premises, fig5_premises, fig10_premises,
                               fig4_universe, fig5_universe, fig10_universe):
    start = time.perf_counter()

    # folder-price scenario: buying b is the only route to b
    u = fig4_universe
    assert not entails(fig4_premises, parse_atom("{} |4 {b}", u)).entailed
    assert entails(fig4_premises, parse_atom("{} |5 {b}", u)).entailed
    assert not entails(fig4_premises, parse_atom("{a} |4 {b}", u)).entailed
    fig4_elapsed = time.perf_counter() - start

    # one-time-pad scenario
    t = time.perf_counter()
    u = fig5_universe
    answer = entails(fig5_premises, parse_atom("{a} |4 {b}", u))
    assert answer.entailed and check_proof(answer.proof, fig5_premises)
    assert not entails(fig5_premises, parse_atom("{} |4 {b}", u)).entailed
    imp = parse_formula("{a} |4 {b} => {} |4 {b}", u)
    assert decide_valid(imp).verdict == "invalid"
    fig5_elapsed = time.perf_counter() - t

    # asymmetric-price scenario
    t = time.perf_counter()
    u = fig10_universe
    for goal, expected in [
        ("{a} |1 {b}", True),
        ("{b} |5 {a}", True),
        ("{} |5 {a}", False),
        ("{} |1 {b}", False),
        ("{b} |4 {a}", False),
    ]:
        answer = entails(fig10_premises, parse_atom(goal, u))
        assert answer.entailed == expected, goal
        if expected:
            assert check_proof(answer.proof, fig10_premises)
    formula_one = parse_formula(
        "{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})",
        Universe(["a", "b"]),
    )
    assert decide_valid(formula_one).verdict == "invalid"
    fig10_elapsed = time.perf_counter() - t

    # derived rules: valid as formulas, constructed proofs check
    t = time.perf_counter()
    u4 = Universe(["a", "b", "c", "d"])
    weakening = parse_formula("{a} |2 {c,d} => {a,b} |2 {c}", u4)
    monotonicity = parse_formula("{a} |1 {b} => {a} |3 {b}", u4)
    augmentation = parse_formula("{a} |1 {b} => {a,c} |1 {b,c}", u4)
    for f in (weakening, monotonicity, augmentation):
        assert decide_valid(f).verdict == "valid", str(f)

    wk = derive_weakening(Fraction(2), u4.set_of(["a"]), u4.set_of(["b"]),
                          u4.set_of(["c"]), u4.set_of(["d"]))
    assert check_proof(wk, [parse_atom("{a} |2 {c,d}", u4)])
    mono = derive_monotonicity(u4.set_of(["a"]), u4.set_of(["b"]), Fraction(1), Fraction(3))
    assert check_proof(mono, [parse_atom("{a} |1 {b}", u4)])
    gaug = derive_general_augmentation(
        u4.set_of(["a"]), u4.set_of(["b"]), u4.set_of(["c"]), u4.set_of(["d"]),
        Fraction(1), Fraction(2),
    )
    assert check_proof(gaug, [parse_atom("{a} |1 {b}", u4), parse_atom("{c} |2 {d}", u4)])
    assert gaug.concludes == parse_atom("{a,c} |3 {b,d}", u4)
    rules_elapsed = time.perf_counter() - t

    elapsed = time.perf_counter() - start
    for name, block in [
        ("fig4", fig4_elapsed),
        ("fig5", fig5_elapsed),
        ("fig10", fig10_elapsed),
        ("derived-rules", rules_elapsed),
    ]:
        assert block < 1.0, f"{name} fixture took {block:.2f}s (limit 1s)"
    _report("acceptance-1 paper fixtures", True, elapsed, 4.0)


# -- 2. oracle equivalence ----------------------------------------------------

def test_acceptance_2_min_budget_oracle():
    start = time.perf_counter()
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(500):
        h = random_hypergraph(rng, max_vertices=6, max_edges=12)
        source = random_attr_set(rng, h.universe)
        target = random_attr_set(rng, h.universe)
        fast = min_budget(h, source, target)
        slow = min_budget_bruteforce(h, source, target)
        if fast != slow:
            mismatches += 1
    _report(
        "acceptance-2 min-budget oracle equivalence (500 hypergraphs)",
        mismatches == 0,
        time.perf_counter() - start,
        60.0,
        detail=f"{mismatches} mismatches",
    )


# -- 3. axiom soundness on random explicit models -----------------------------

def test_acceptance_3_soundness_suite():
    start = time.perf_counter()
    rng = random.Random(3033)
    violations = 0
    budgets = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for _ in range(500):
        m = random_model(rng, max_attrs=5, max_rows=6)
        u = m.universe
        a = random_attr_set(rng, u)
        b = random_attr_set(rng, u)
        c = random_attr_set(rng, u)
        p, q = rng.choice(budgets), rng.choice(budgets)
        sub = a & b
        if not eval_atom_model(m, Atom(a, sub, p)):  # reflexivity
            violations += 1
        if eval_atom_model(m, Atom(a, b, p)):
            if not eval_atom_model(m, Atom(a | c, b | c, p)):  # augmentation
                violations += 1
            if not eval_atom_model(m, Atom(a, b, p + q)):  # monotonicity
                violations += 1
            if eval_atom_model(m, Atom(b, c, q)):
                if not eval_atom_model(m, Atom(a, c, p + q)):  # transitivity
                    violations += 1
    _report(
        "acceptance-3 axiom soundness (500 models)",
        violations == 0,
        time.perf_counter() - start,
        60.0,
        detail=f"{violations} violations",
    )


# -- 4. completeness pipeline -------------------------------------------------

def _map_to_prefixed_universe(f, universe):
    """Rebuild a vertex-universe formula over the materialized model's
    'v:'-prefixed attribute names."""
    if isinstance(f, Atom):
        return Atom(
            universe.set_of(f"v:{n}" for n in f.lhs),
            universe.set_of(f"v:{n}" for n in f.rhs),
            f.budget,
        )
    if isinstance(f, Not):
        return Not(_map_to_prefixed_universe(f.inner, universe))
    if isinstance(f, Implies):
        return Implies(
            _map_to_prefixed_universe(f.left, universe),
            _map_to_prefixed_universe(f.right, universe),
        )
    raise TypeError(f)


def test_acceptance_4_completeness_pipeline():
    start = time.perf_counter()
    rng = random.Random(4044)
    invalid_seen = 0
    mismatches = 0
    materialized = 0
    while invalid_seen < 100:
        u = Universe("abc"[: rng.randint(2, 3)])
        f = random_formula(rng, u, max_atoms=4, budgets=BUDGET_GRID)
        answer = decide_valid(f)
        if answer.verdict != "invalid":
            continue
        invalid_seen += 1
        h = answer.hypergraph
        if eval_formula_hypergraph(h, f):  # mechanical recheck
            mismatches += 1
            continue
        if has_hypercycle(h):
            continue
        materialized += 1
        lm = materialize_acyclic(synthesize_model(h))
        r = rank(f) + 1
        truncated = lm.truncated(r)
        if eval_formula_linear(truncated, f):
            mismatches += 1
        if eval_formula_linear(lm, f) != eval_formula_linear(truncated, f):
            mismatches += 1  # truncation above the rank must not matter
        if lm.dimension <= 10:
            explicit = truncate_costs(lm.to_info_model(), r)
            mapped = _map_to_prefixed_universe(f, explicit.universe)
            if eval_formula_model(explicit, mapped):
                mismatches += 1
    _report(
        "acceptance-4 completeness pipeline (100 invalid formulas, "
        f"{materialized} materialized)",
        mismatches == 0,
        time.perf_counter() - start,
        120.0,
        detail=f"{mismatches} mismatches",
    )


# -- 5. flip-vector verification ----------------------------------------------

def test_acceptance_5_flip_lemma():
    start = time.perf_counter()
    rng = random.Random(5055)
    violations = 0
    cyclic_seen = 0
    done = 0
    while done < 200:
        h = random_hypergraph(rng, max_vertices=5, max_edges=6)
        pm = synthesize_model(h)
        if count_paths(pm, 6) > 20000:
            continue
        right = random_attr_set(rng, h.universe)
        if not right:
            continue
        cut = Cut(right.complement(), right)
        root = rng.choice(right.indices())
        if has_hypercycle(h):
            cyclic_seen += 1
        flip = flip_vector(choice_function(h, cut, root))
        if not verify_equations_sampled(flip, pm, 6).ok:
            violations += 1
        if not check_flip_claims(flip, pm, 6).ok:
            violations += 1
        done += 1
    _report(
        f"acceptance-5 flip-vector checks (200 triples, {cyclic_seen} cyclic)",
        violations == 0 and cyclic_seen > 0,
        time.perf_counter() - start,
        60.0,
        detail=f"{violations} violations",
    )


# -- 6. truncation invariance ---------------------------------------------------

def test_acceptance_6_truncation_invariance():
    start = time.perf_counter()
    rng = random.Random(6066)
    violations = 0
    for _ in range(200):
        m = random_model(rng, max_attrs=5, max_rows=6, allow_inf=True)
        f = random_formula(rng, m.universe, max_atoms=3)
        r = rank(f) + rng.choice([Fraction(1, 2), Fraction(1), Fraction(3)])
        if eval_formula_model(m, f) != eval_formula_model(truncate_costs(m, r), f):
            violations += 1
    _report(
        "acceptance-6 truncation invariance (200 cases)",
        violations == 0,
        time.perf_counter() - start,
        30.0,
        detail=f"{violations} violations",
    )
