import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from budgetfd import gf2, search
from budgetfd import (
    Atom,
    Cut,
    Hypergraph,
    Universe,
    canonical_hypergraph,
    check_proof,
    closure,
    decide_valid,
    parse_atom,
    parse_formula,
)
from budgetfd.entailment import hyper_eval_atom, search_hypergraph
from budgetfd.errors import BudgetFDError, CapExceededError
from budgetfd.hypergraph import reachability_cut
from budgetfd.infomodel import eval_atom_model
from budgetfd.synth import (
    EDGE,
    VERTEX,
    EquationReport,
    FlipClaimReport,
    Path,
    ZeroVector,
    check_flip_claims,
    choice_function,
    count_paths,
    counterexample_for,
    enumerate_paths,
    equation_coords,
    eval_atom_linear,
    flip_vector,
    has_hypercycle,
    materialize_acyclic,
    package_to_json_dict,
    synthesize_model,
    tree_membership,
    verify_equations_sampled,
)

from _gen import (
    BUDGET_GRID,
    ODD_BUDGET_GRID,
    ODD_WEIGHT_GRID,
    random_atom,
    random_attr_set,
    random_hypergraph,
)


def chain_graph():
    u = Universe(["a", "b", "c"])
    return Hypergraph(u, [(["a"], ["b"], 1), (["b"], ["c"], 1)])


def single_edge_graph():
    u = Universe(["a", "b"])
    return Hypergraph(u, [(["a"], ["b"], Fraction(2))])


def _random_cut_and_root(rng, h):
    u = h.universe
    while True:
        right = random_attr_set(rng, u)
        if right:
            break
    left = right.complement()
    root = rng.choice(right.indices())
    return Cut(left, right), root


def test_enumerate_paths_edgeless():
    u = Universe(["a", "b"])
    h = Hypergraph(u, [])
    pm = synthesize_model(h)
    assert enumerate_paths(pm, (VERTEX, 0), 5) == [Path(False, (0,))]
    assert count_paths(pm, 5) == 2


def test_enumerate_paths_fig9(fig9):
    pm = synthesize_model(fig9)
    paths = enumerate_paths(pm, (EDGE, 0), 2)
    assert Path(True, (0, 3, 1, 5)) in paths  # <e0, v4, e1, v6>
    long_vertex_path = Path(False, (0, 0, 3, 1, 5))  # <v1, e0, v4, e1, v6>
    assert long_vertex_path in enumerate_paths(pm, (VERTEX, 0), 2)
    assert long_vertex_path.is_valid(fig9)


def test_enumerate_paths_chain():
    h = chain_graph()
    pm = synthesize_model(h)
    paths = enumerate_paths(pm, (VERTEX, 0), 4)
    assert paths == [
        Path(False, (0,)),
        Path(False, (0, 0, 1)),
        Path(False, (0, 0, 1, 1, 2)),
    ]


def test_path_validity():
    h = single_edge_graph()
    assert Path(False, (0, 0, 1)).is_valid(h)  # <a, e, b>
    assert not Path(False, (1, 0, 1)).is_valid(h)  # b is not a tail of e
    assert not Path(True, (0, 0)).is_valid(h)  # a is not a head of e
    with pytest.raises(ValueError):
        Path(True, (0,))  # edge-initiated paths end at a vertex


def test_has_hypercycle():
    assert not has_hypercycle(chain_graph())
    u = Universe(["a", "b"])
    cyc = Hypergraph(u, [(["a"], ["b"], 1), (["b"], ["a"], 1)])
    assert has_hypercycle(cyc)
    self_loop = Hypergraph(u, [(["a"], ["a"], 1)])
    assert has_hypercycle(self_loop)


def test_materialize_single_edge_equation():
    h = single_edge_graph()
    lm = materialize_acyclic(synthesize_model(h))
    assert len(lm.coords) == 4
    assert len(lm.equations) == 1
    assert lm.dimension == 3
    # the one equation ties f_e(<e,b>), f_a(<a,e,b>) and f_b(<b>)
    expected = {
        ((EDGE, 0), Path(True, (0, 1))),
        ((VERTEX, 0), Path(False, (0, 0, 1))),
        ((VERTEX, 1), Path(False, (1,))),
    }
    row = lm.equations[0]
    touched = {lm.coords[i] for i in range(len(lm.coords)) if row >> i & 1}
    assert touched == expected


def test_materialize_edgeless_full_space():
    u = Universe(["a", "b", "c"])
    lm = materialize_acyclic(synthesize_model(Hypergraph(u, [])))
    assert lm.dimension == 3
    assert sorted(lm.basis) == [1, 2, 4]


def test_materialize_dimension_matches_rank_oracle():
    rng = random.Random(81)
    checked = 0
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=4, max_edges=4)
        if has_hypercycle(h):
            continue
        pm = synthesize_model(h)
        lm = materialize_acyclic(pm)
        rows = lm.equations
        # one row per edge path in enumeration order, over equation_coords
        position = {coord: i for i, coord in enumerate(lm.coords)}
        maxlen = max(1, len(h.universe))
        equations = [equation_coords(h, path) for e in range(len(h.edges))
                     for path in enumerate_paths(pm, (EDGE, e), maxlen)]
        assert list(rows) == [sum(1 << position[coord] for coord in zip(eq[::2], eq[1::2]))
                              for eq in equations]
        if rows:
            mat = np.array(
                [[r >> c & 1 for c in range(len(lm.coords))] for r in rows],
                dtype=np.uint8,
            )
            rank = _gf2_rank_dense(mat)
        else:
            rank = 0
        assert lm.dimension == len(lm.coords) - rank
        checked += 1
    assert checked > 25


def _gf2_rank_dense(mat):
    m = mat.copy() % 2
    rank = 0
    for col in range(m.shape[1]):
        pivots = [r for r in range(rank, m.shape[0]) if m[r, col]]
        if not pivots:
            continue
        r = pivots[0]
        m[[rank, r]] = m[[r, rank]]
        for other in range(m.shape[0]):
            if other != rank and m[other, col]:
                m[other] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def test_materialize_rejects_cyclic():
    u = Universe(["a", "b"])
    cyc = Hypergraph(u, [(["a"], ["b"], 1), (["b"], ["a"], 1)])
    with pytest.raises(BudgetFDError):
        materialize_acyclic(synthesize_model(cyc))


def test_materialize_cap():
    with pytest.raises(CapExceededError):
        materialize_acyclic(synthesize_model(chain_graph()), cap=3)


# -- the subset-scan oracle for linear models ---------------------------------
#
# A linear model's atom by subset scan: purchase sets of affordable
# attributes are tried in order of size (``search.find_witness``), and each
# try runs a fresh GF(2) nullspace over the basis.


def _linear_determines(lm, key_attrs, target_attrs) -> bool:
    """Every combination of basis vectors vanishing on the key's coordinates
    (differences of legitimate vectors are exactly these) vanishes on the
    target's."""
    key = target = 0
    for attr in key_attrs:
        key |= lm.attr_masks[attr]
    for attr in target_attrs:
        target |= lm.attr_masks[attr]
    constraint_rows = [
        sum(1 << k for k, vec in enumerate(lm.basis) if vec >> pos & 1)
        for pos in range(len(lm.coords)) if key >> pos & 1
    ]
    for combo in gf2.nullspace(constraint_rows, len(lm.basis)):
        diff = 0
        for k, vec in enumerate(lm.basis):
            if combo >> k & 1:
                diff ^= vec
        if diff & target:
            return False
    return True


def eval_atom_linear_subset_scan(lm, atom) -> bool:
    source = [(VERTEX, i) for i in atom.lhs.indices()]
    target = [(VERTEX, i) for i in atom.rhs.indices()]
    candidates = [a for a in lm.attrs if a not in source and lm.costs[a] <= atom.budget]
    costs = [lm.costs[a] for a in candidates]

    def feasible(picked: tuple[int, ...]) -> bool:
        return _linear_determines(lm, source + [candidates[k] for k in picked], target)

    return search.find_witness(costs, atom.budget, feasible) is not None


def test_linear_cl_single_edge():
    h = single_edge_graph()
    lm = materialize_acyclic(synthesize_model(h))
    a, b, edge = 1, 2, 4  # vertex v is bit v, edge e is bit len(vertices) + e
    assert lm.cl(a, edge) == lm.cl(a | edge) == a | b | edge  # the key opens b
    assert lm.cl(a) == a
    assert lm.cl(0) == 0


def test_linear_cl_is_an_exact_closure_operator():
    rng = random.Random(86)
    checked = 0
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=4, max_edges=4, weights=ODD_WEIGHT_GRID)
        if has_hypercycle(h):
            continue
        lm = materialize_acyclic(synthesize_model(h))
        cl = lm.cl
        full = (1 << len(lm.attrs)) - 1
        for _ in range(6):
            x = rng.randrange(full + 1)
            y = x | rng.randrange(full + 1)
            cx = cl(x)
            assert x & ~cx == 0  # extensive
            assert cl(cx) == cx  # idempotent
            assert cx & ~cl(y) == 0  # monotone
            key = [attr for i, attr in enumerate(lm.attrs) if x >> i & 1]
            assert cx == sum(1 << i for i, attr in enumerate(lm.attrs)
                             if _linear_determines(lm, key, [attr]))
            checked += 1
    assert checked > 100


def test_eval_atom_linear_matches_subset_scan():
    rng = random.Random(87)
    verdicts = []
    for _ in range(300):
        h = random_hypergraph(rng, max_vertices=5, max_edges=6, weights=ODD_WEIGHT_GRID)
        if has_hypercycle(h):
            continue
        lm = materialize_acyclic(synthesize_model(h))
        for _ in range(10):
            atom = random_atom(rng, h.universe, ODD_BUDGET_GRID)
            holds = eval_atom_linear(lm, atom)
            assert holds == eval_atom_linear_subset_scan(lm, atom), (h.to_json_dict(), atom)
            verdicts.append(holds)
    assert len(verdicts) > 900 and 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_linear_atoms_read_the_affordable_cap(monkeypatch):
    from budgetfd import infomodel

    h = single_edge_graph()
    lm = materialize_acyclic(synthesize_model(h))
    monkeypatch.setattr(infomodel, "AFFORDABLE_ATTR_CAP", 0)
    assert not eval_atom_linear(lm, parse_atom("{a} |1 {b}", h.universe))  # none affordable
    with pytest.raises(CapExceededError):
        eval_atom_linear(lm, parse_atom("{a} |2 {b}", h.universe))


def test_materialized_package_runs_no_subset_scan(monkeypatch, fig5_universe):
    def scan(*args):
        raise AssertionError("subset scan called")

    monkeypatch.setattr(search, "find_witness", scan)
    monkeypatch.setattr(search, "min_cost_subset", scan)
    f = parse_formula("{a} |4 {b} => {} |4 {b}", fig5_universe)
    pkg = counterexample_for(decide_valid(f).hypergraph, f)
    assert pkg.linear is not None
    assert {str(atom): holds for atom, holds in pkg.linear_evals.items()} == {
        "{a} |4 {b}": True, "{} |4 {b}": False}


def test_eval_atom_linear_single_edge():
    h = single_edge_graph()
    u = h.universe
    lm = materialize_acyclic(synthesize_model(h))
    assert eval_atom_linear(lm, parse_atom("{a} |2 {b}", u))  # buy the edge key
    assert not eval_atom_linear(lm, parse_atom("{a} |1 {b}", u))
    assert not eval_atom_linear(lm, parse_atom("{} |2 {b}", u))
    assert eval_atom_linear(lm, parse_atom("{a} |0 {a}", u))


def test_linear_model_agrees_with_explicit_enumeration():
    rng = random.Random(82)
    checked = 0
    for _ in range(40):
        h = random_hypergraph(rng, max_vertices=3, max_edges=3)
        if has_hypercycle(h):
            continue
        lm = materialize_acyclic(synthesize_model(h))
        if lm.dimension > 8:
            continue
        explicit = lm.to_info_model()
        u = h.universe
        for _ in range(4):
            atom = Atom(
                random_attr_set(rng, u),
                random_attr_set(rng, u),
                rng.choice([Fraction(0), Fraction(1), Fraction(2)]),
            )
            mapped = Atom(
                explicit.universe.set_of(f"v:{n}" for n in atom.lhs),
                explicit.universe.set_of(f"v:{n}" for n in atom.rhs),
                atom.budget,
            )
            assert eval_atom_linear(lm, atom) == eval_atom_model(explicit, mapped)
            checked += 1
    assert checked > 40


def test_hypergraph_and_linear_semantics_agree_desk_scale():
    rng = random.Random(83)
    checked = 0
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=4, max_edges=4)
        if has_hypercycle(h):
            continue
        lm = materialize_acyclic(synthesize_model(h))
        u = h.universe
        weights = [e.weight for e in h.edges]
        sums = {Fraction(0)}
        for w in weights:
            sums |= {s + w for s in sums}
        for _ in range(5):
            atom = Atom(
                random_attr_set(rng, u),
                random_attr_set(rng, u),
                rng.choice(sorted(sums)),
            )
            assert hyper_eval_atom(h, atom) == eval_atom_linear(lm, atom), (h.to_json_dict(), atom)
            checked += 1
    assert checked > 50


def test_agreement_on_closure_coordinates():
    # rows agreeing on start∪edges coordinates agree on the closure's
    rng = random.Random(84)
    checked = 0
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=4, max_edges=4)
        if has_hypercycle(h):
            continue
        lm = materialize_acyclic(synthesize_model(h))
        a = random_attr_set(rng, h.universe)
        ids = [e for e in range(len(h.edges)) if rng.random() < 0.5]
        closed = closure(h, a, ids)
        key = a.mask | sum(1 << len(h.universe) + e for e in ids)
        assert closed.mask & ~lm.cl(key) == 0
        checked += 1
    assert checked > 25


def test_choice_function_picks_least_right_tail():
    u = Universe(["h", "k", "m"])
    h = Hypergraph(u, [(["h", "k"], ["m"], 1)])
    cut = Cut(u.empty(), u.full())
    cf = choice_function(h, cut, u.index("m"))
    assert cf.kappa == {0: u.index("h")}  # least index among {h, k}

    forced = Hypergraph(u, [(["k"], ["m"], 1)])
    cf2 = choice_function(forced, cut, u.index("m"))
    assert cf2.kappa == {0: u.index("k")}


def test_choice_function_skips_crossing_edges():
    u = Universe(["a", "b"])
    h = Hypergraph(u, [(["a"], ["b"], 1)])
    cut = Cut(u.set_of(["a"]), u.set_of(["b"]))
    cf = choice_function(h, cut, u.index("b"))
    assert cf.crossing == {0}
    assert cf.kappa == {}


def test_choice_function_requires_right_root():
    u = Universe(["a", "b"])
    h = Hypergraph(u, [])
    cut = Cut(u.set_of(["a"]), u.set_of(["b"]))
    with pytest.raises(ValueError):
        choice_function(h, cut, u.index("a"))


def test_tree_membership_examples():
    u = Universe(["u", "w", "root"])
    h = Hypergraph(u, [(["u", "w"], ["root"], 1)])
    cut = Cut(u.empty(), u.full())
    cf = choice_function(h, cut, u.index("root"))
    root = u.index("root")
    assert tree_membership(Path(False, (root,)), cf)
    assert not tree_membership(Path(False, (u.index("u"),)), cf)  # wrong end
    assert tree_membership(Path(False, (u.index("u"), 0, root)), cf)  # u = kappa(e)
    assert not tree_membership(Path(False, (u.index("w"), 0, root)), cf)
    assert tree_membership(Path(True, (0, root)), cf)


def _tree_membership_by_elements(path, cf):
    """The element walk ``tree_membership`` replaced: the path ends at the
    root, every vertex lies on the right side, crossing edges appear only
    first, and every vertex before an edge is that edge's chosen tail."""
    if path.terminal_vertex != cf.root:
        return False
    right = cf.cut.right.mask
    elems = list(path.elements())
    for at, (kind, step) in enumerate(elems):
        if kind == VERTEX:
            if not right >> step & 1:
                return False
        elif at > 0:
            if step in cf.crossing or cf.kappa.get(step) != elems[at - 1][1]:
                return False
    return True


def test_tree_membership_matches_element_walk_at_maximal_stuck_cuts():
    rng = random.Random(47)
    depth, members, checked = 4, 0, 0
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=5, max_edges=7)
        pm = synthesize_model(h)
        paths = [p for v in range(len(h.universe))
                 for p in enumerate_paths(pm, (VERTEX, v), depth)]
        paths += [p for e in range(len(h.edges))
                  for p in enumerate_paths(pm, (EDGE, e), depth)]
        full = h.universe.full().mask
        for _ in range(3):
            source = random_attr_set(rng, h.universe)
            _, family = search_hypergraph(h, source.mask, full, rng.choice(BUDGET_GRID))
            maximal = [s for s in family if not any(s != t and s & ~t == 0 for t in family)]
            for state in maximal:
                cut = reachability_cut(h, source, h.edge_ids(family[state][1]))
                for root in cut.right.indices():
                    cf = choice_function(h, cut, root)
                    for path in paths:
                        expected = _tree_membership_by_elements(path, cf)
                        assert tree_membership(path, cf) is expected, (h.to_json_dict(), path)
                        members += expected
                        checked += 1
    assert checked > 100_000 and members > 5_000


def test_flip_vector_coordinates():
    u = Universe(["x", "y", "root"])
    h = Hypergraph(
        u,
        [
            (["x"], ["root"], 1),   # crossing (tail on the left)
            (["y"], ["root"], 1),   # inside the right side
        ],
    )
    cut = Cut(u.set_of(["x"]), u.set_of(["y", "root"]))
    cf = choice_function(h, cut, u.index("root"))
    flip = flip_vector(cf)
    root = u.index("root")
    assert flip.coord((VERTEX, root), Path(False, (root,))) == 1
    # left-side vertex coordinates never flip
    x = u.index("x")
    for path in enumerate_paths(synthesize_model(h), (VERTEX, x), 3):
        assert flip.coord((VERTEX, x), path) == 0
    # non-crossing edges never flip
    assert flip.coord((EDGE, 1), Path(True, (1, root))) == 0
    # crossing edge flips exactly on tree paths
    assert flip.coord((EDGE, 0), Path(True, (0, root))) == 1


def test_zero_vector_satisfies_equations():
    rng = random.Random(85)
    for _ in range(40):
        h = random_hypergraph(rng, max_vertices=4, max_edges=5)
        pm = synthesize_model(h)
        if count_paths(pm, 5) > 3000:
            continue
        report = verify_equations_sampled(ZeroVector(), pm, 5)
        assert report.ok


def test_flip_vector_satisfies_equations_random():
    rng = random.Random(86)
    checked = 0
    while checked < 60:
        h = random_hypergraph(rng, max_vertices=5, max_edges=6)
        pm = synthesize_model(h)
        if count_paths(pm, 6) > 4000:
            continue
        cut, root = _random_cut_and_root(rng, h)
        flip = flip_vector(choice_function(h, cut, root))
        report = verify_equations_sampled(flip, pm, 6)
        assert report.ok, (h.to_json_dict(), cut, root, report.violations)
        claims = check_flip_claims(flip, pm, 6)
        assert claims.ok
        checked += 1


class _CorruptedVector:
    """Wraps a vector, toggles a single coordinate and lists it in the
    support; a wrapped flip vector's choice function stays readable."""

    def __init__(self, base, attr, path):
        self.base = base
        self.attr = attr
        self.path = path

    @property
    def cf(self):
        return self.base.cf

    def coord(self, attr, path):
        value = self.base.coord(attr, path)
        if tuple(attr) == tuple(self.attr) and path == self.path:
            value ^= 1
        return value

    def support(self, pm, maxlen):
        support = self.base.support(pm, maxlen)
        toggled = (self.attr, self.path)
        return support if toggled in support else support + [toggled]


def test_corrupted_vector_is_caught():
    h = chain_graph()
    pm = synthesize_model(h)
    # toggle f_b(<b>): the equation for <e0,b> must break
    bad = _CorruptedVector(ZeroVector(), (VERTEX, 1), Path(False, (1,)))
    report = verify_equations_sampled(bad, pm, 4)
    assert not report.ok
    assert Path(True, (0, 1)) in report.violations


def test_verify_depth_respects_model_bound():
    h = chain_graph()
    pm = synthesize_model(h, depth=2)
    with pytest.raises(ValueError):
        verify_equations_sampled(ZeroVector(), pm, 3)
    with pytest.raises(ValueError, match="at least 1"):  # would check no path
        counterexample_for(h, parse_formula("{a} |1 {c}", h.universe), verify_depth=0)


def test_counterexample_fig4(fig4_universe, fig4_premises):
    h = canonical_hypergraph(fig4_premises, fig4_universe)
    f = parse_formula("{} |4 {b}", fig4_universe)
    pkg = counterexample_for(h, f)
    assert pkg.all_checks_ok
    assert len(pkg.false_atoms) == 1
    ref = pkg.false_atoms[0]
    assert str(ref.atom) == "{} |4 {b}"
    assert ref.records, "at least the empty purchase set must be recorded"
    for rec in ref.records:
        assert not ref.atom.rhs <= rec.cut.left
        assert rec.claims.root_flipped
    assert pkg.linear is not None  # buy-edges only: acyclic
    assert pkg.linear_evals[ref.atom] is False


def test_counterexample_formula_one():
    u = Universe(["a", "b"])
    f = parse_formula(
        "{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})", u
    )
    answer = decide_valid(f)
    assert answer.verdict == "invalid"
    pkg = counterexample_for(answer.hypergraph, f)
    assert pkg.all_checks_ok
    proved = {str(entry.atom) for entry in pkg.true_atoms}
    assert proved == {"{a} |1 {b}", "{b} |5 {a}"}
    for entry in pkg.true_atoms:
        edge_atoms = [
            Atom(e.tails, e.heads, e.weight) for e in answer.hypergraph.edges
        ]
        assert check_proof(entry.proof, edge_atoms)
    refuted = {str(ref.atom) for ref in pkg.false_atoms}
    assert refuted == {"{} |5 {a}", "{} |1 {b}", "{b} |4 {a}"}
    assert pkg.linear is None  # the countermodel is cyclic
    blob = package_to_json_dict(pkg)
    assert blob["formula"] == str(f)
    assert len(blob["false_atoms"]) == 3


def test_counterexample_records_are_maximal_stuck_closures(
    fig4_universe, fig4_premises, fig5_universe, fig5_premises
):
    formula_one = parse_formula(
        "{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})",
        Universe(["a", "b"]),
    )
    cases = [
        (canonical_hypergraph(fig4_premises, fig4_universe),
         parse_formula("{} |4 {b}", fig4_universe)),
        (canonical_hypergraph(fig5_premises, fig5_universe),
         parse_formula("{a} |4 {b} => {} |4 {b}", fig5_universe)),
        (decide_valid(formula_one).hypergraph, formula_one),
    ]
    for h, f in cases:
        pkg = counterexample_for(h, f)
        assert pkg.all_checks_ok
        for ref in pkg.false_atoms:
            cuts = [rec.cut.left.mask for rec in ref.records]
            assert len(set(cuts)) == len(cuts)
            assert not any(i != j and x & ~y == 0
                           for i, x in enumerate(cuts) for j, y in enumerate(cuts))
            for mask in range(1 << len(h.edges)):
                ids = h.edge_ids(mask)
                if h.weight_of(ids) <= ref.atom.budget:
                    reach = closure(h, ref.atom.lhs, ids).mask
                    assert any(reach & ~cut == 0 for cut in cuts)


def test_counterexample_requires_falsified_formula():
    u = Universe(["a"])
    h = canonical_hypergraph([], u)
    with pytest.raises(ValueError):
        counterexample_for(h, parse_formula("{a} |0 {a}", u))


def test_verify_equations_random_flags_corruption():
    from budgetfd.synth import verify_equations_random

    h = chain_graph()
    pm = synthesize_model(h)
    bad = _CorruptedVector(ZeroVector(), (VERTEX, 1), Path(False, (1,)))
    report = verify_equations_random(bad, pm, 200, 3, random.Random(5))
    assert report.violations


# -- The all-path scans and per-bit rendering that the support checks and
# sliced rows replaced, kept as oracles --------------------------------------

def _vectors_oracle(lm):
    """Each combination of basis vectors, XORed from scratch."""
    out = []
    for bits in range(1 << lm.dimension):
        vec = 0
        m = bits
        while m:
            vec ^= lm.basis[(m & -m).bit_length() - 1]
            m &= m - 1
        out.append(vec)
    return out


def _rows_oracle(lm):
    """One row per vector: each attribute's coordinate bits joined one by one."""
    positions = {attr: [i for i, (a, _) in enumerate(lm.coords) if a == attr]
                 for attr in lm.attrs}
    return tuple(
        tuple("".join(str(vec >> i & 1) for i in positions[attr]) for attr in lm.attrs)
        for vec in _vectors_oracle(lm)
    )


def _equations_oracle(vec, pm, maxlen):
    """Every edge-initiated path enumerated afresh, its equation built on the spot."""
    h = pm.hypergraph
    report = EquationReport(0)
    for e in range(len(h.edges)):
        for path in enumerate_paths(pm, (EDGE, e), maxlen):
            report.paths_checked += 1
            total = vec.coord((EDGE, e), path)
            for u in h.edges[e].tails.indices():
                total ^= vec.coord((VERTEX, u), path.prepend_vertex(u))
            suffix = path.drop_first()
            if total != vec.coord((VERTEX, suffix.steps[0]), suffix):
                report.violations.append(path)
    return report


def _flip_claims_oracle(flip, pm, maxlen):
    h = pm.hypergraph
    cf = flip.cf
    report = FlipClaimReport()
    for v in cf.cut.left.indices():
        for path in enumerate_paths(pm, (VERTEX, v), maxlen):
            if flip.coord((VERTEX, v), path):
                report.left_flips.append(((VERTEX, v), path))
    for e in range(len(h.edges)):
        if e not in cf.crossing:
            for path in enumerate_paths(pm, (EDGE, e), maxlen):
                if flip.coord((EDGE, e), path):
                    report.edge_flips.append(((EDGE, e), path))
    root_path = Path(False, (cf.root,))
    report.root_flipped = flip.coord((VERTEX, cf.root), root_path) == 1
    return report


def test_sliced_rows_match_per_bit_rendering():
    rng = random.Random(87)
    checked = 0
    for _ in range(150):
        h = random_hypergraph(rng, max_vertices=4, max_edges=4)
        if has_hypercycle(h):
            continue
        lm = materialize_acyclic(synthesize_model(h))
        if lm.dimension > 9:
            continue
        assert lm.vectors() == _vectors_oracle(lm)
        model = lm.to_info_model()
        assert model.rows == _rows_oracle(lm)
        assert model.universe.names == tuple(
            f"v:{h.universe.names[i]}" if kind == VERTEX else f"e:{i}" for kind, i in lm.attrs)
        checked += 1
    assert checked > 60


def test_sliced_rows_need_contiguous_coordinates():
    lm = materialize_acyclic(synthesize_model(chain_graph()))
    masks = dict(lm.attr_masks)
    masks[lm.attrs[0]] |= 1 << len(lm.coords)  # a gap after its own range
    with pytest.raises(ValueError, match="contiguous"):
        dataclasses.replace(lm, attr_masks=masks).to_info_model()


def _choice_functions(rng, h):
    """Choice functions at one random cut and at the maximal stuck cuts of
    one random search, each with a random root on its right side."""
    cut, root = _random_cut_and_root(rng, h)
    found = [choice_function(h, cut, root)]
    source = random_attr_set(rng, h.universe)
    full = h.universe.full().mask
    _, family = search_hypergraph(h, source.mask, full, rng.choice(BUDGET_GRID))
    for state in family:
        if any(state != other and state & ~other == 0 for other in family):
            continue
        cut = reachability_cut(h, source, h.edge_ids(family[state][1]))
        if cut.right:
            found.append(choice_function(h, cut, rng.choice(cut.right.indices())))
    return found


def _corrupted_choices(rng, h, cf):
    """The choice function with one edge's ``kappa`` tail moved to another
    vertex, and with one edge's crossing flag toggled."""
    out = []
    if cf.kappa and len(h.universe) > 1:
        e = rng.choice(sorted(cf.kappa))
        tail = rng.choice([u for u in range(len(h.universe)) if u != cf.kappa[e]])
        out.append(dataclasses.replace(cf, kappa={**cf.kappa, e: tail}))
    if h.edges:
        out.append(dataclasses.replace(cf, crossing=cf.crossing ^ {rng.randrange(len(h.edges))}))
    return out


def _checks_match_oracles(vec, pm, depth):
    """Both support checks equal the all-path oracles, violations as sets;
    returns whether the vector passes them."""
    equations, want = verify_equations_sampled(vec, pm, depth), _equations_oracle(vec, pm, depth)
    assert equations.paths_checked == want.paths_checked
    assert len(set(equations.violations)) == len(equations.violations)
    assert set(equations.violations) == set(want.violations)
    claims, want = check_flip_claims(vec, pm, depth), _flip_claims_oracle(vec, pm, depth)
    for found, expected in ((claims.left_flips, want.left_flips),
                            (claims.edge_flips, want.edge_flips)):
        assert len(found) == len(expected) and set(found) == set(expected)
    assert claims.root_flipped == want.root_flipped
    return equations.ok and claims.ok


def test_support_checks_match_the_all_path_scan():
    """A flip vector's support is exactly the set of coordinates where the
    scan of every path up to the depth finds ``coord`` at 1, and the checks
    that read it equal the all-path oracles: on seeded acyclic and cyclic
    graphs, at random and maximal stuck cuts, for corrupted choice
    functions, and for vectors with one coordinate toggled."""
    rng = random.Random(88)
    graphs = cyclic = corrupted = failing_choices = 0
    while graphs < 40:
        h = random_hypergraph(rng, max_vertices=5, max_edges=6)
        pm = synthesize_model(h)
        depth = rng.randrange(1, 6)
        if count_paths(pm, depth) > 3000:
            continue
        everything = [(attr, path) for attr in pm.attributes()
                      for path in enumerate_paths(pm, attr, depth)]
        edge_paths = [path for (kind, _), path in everything if kind == EDGE]
        for cf in _choice_functions(rng, h):
            for choice in [cf] + _corrupted_choices(rng, h, cf):
                flip = flip_vector(choice)
                support = flip.support(pm, depth)
                assert len(set(support)) == len(support)
                assert set(support) == {(a, p) for a, p in everything if flip.coord(a, p)}
                passed = _checks_match_oracles(flip, pm, depth)
                assert passed or choice is not cf
                failing_choices += not passed
                # on the genuine choice function, each toggle breaks a check
                toggles = [rng.choice(support)]
                if edge_paths:
                    coords = equation_coords(h, rng.choice(edge_paths))
                    at = rng.randrange(0, len(coords), 2)
                    toggles.append(coords[at:at + 2])
                for v in cf.cut.left.indices():
                    toggles.append(
                        ((VERTEX, v), rng.choice(enumerate_paths(pm, (VERTEX, v), depth))))
                for attr, path in toggles:
                    bad = _CorruptedVector(flip, attr, path)
                    assert not _checks_match_oracles(bad, pm, depth) or choice is not cf
                    # toggled back: the flip's values, with the coordinate
                    # listed in the support even where it is 0
                    twice = _CorruptedVector(bad, attr, path)
                    assert _checks_match_oracles(twice, pm, depth) == passed
                corrupted += len(toggles)
        cyclic += has_hypercycle(h)
        graphs += 1
    assert cyclic > 15 and graphs - cyclic > 8 and corrupted > 500 and failing_choices > 40


def test_cyclic_package_enumerates_no_paths(monkeypatch, fig4_universe, fig4_premises):
    """Only materialization enumerates paths: a cyclic package none, an
    acyclic materialized one each attribute's once."""
    from budgetfd import synth

    calls = []
    enumerate_all = synth.enumerate_paths
    monkeypatch.setattr(synth, "enumerate_paths",
                        lambda *args: calls.append(args) or enumerate_all(*args))
    u = Universe(["a", "b"])
    f = parse_formula("{a} |1 {b} & {b} |5 {a} => ({} |5 {a} | {} |1 {b} | {b} |4 {a})", u)
    h = decide_valid(f).hypergraph
    assert has_hypercycle(h)
    assert counterexample_for(h, f).all_checks_ok
    assert calls == []
    h = canonical_hypergraph(fig4_premises, fig4_universe)
    pkg = counterexample_for(h, parse_formula("{} |4 {b}", fig4_universe))
    assert pkg.linear is not None
    assert len(calls) == len(synthesize_model(h).attributes())
