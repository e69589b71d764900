"""Path-coordinate informational models built from hypergraphs.

The model over a hypergraph treats vertices and edges alike as attributes.
A vertex attribute's value is a GF(2) function over the paths leaving that
vertex; an edge attribute's value is a function over the paths leaving
that edge.  The legitimate vectors are those satisfying, for every
edge-initiated path, the one-time-pad split

    f_e(<e,v,rest>) + sum over tails u of f_u(<u,e,v,rest>)
        = f_v(<v,rest>)   (mod 2):

the head coordinate splits into an edge key plus one share per tail, so
information flows against edge direction while the dependency follows it.

Vertices are priced at +inf (never purchasable), edges at their weight.
Witnesses against failed dependencies are "flip vectors": starting from
the all-zero vector, toggle the coordinates lying on a backward tree of
paths rooted at an unreached vertex, limited by a reachability cut.  The
result stays legitimate, agrees with zero on the cut's left side and on
every non-crossing edge, yet differs at the root — exactly the pair of
rows that breaks the dependency.

On a cyclic hypergraph the tree is infinite, but membership in it is
decided edge by edge by the tail-choice map, so every claim about a flip
vector reduces to one finite condition per edge, exact at every depth
(``verify_equations_sampled``, ``check_flip_claims``).
Acyclic hypergraphs have finitely many paths and materialize into an
exact linear model whose legitimate set is the GF(2) solution space of
all path equations, the one place every path is enumerated.  Its
"determines" is a closure operator too, ``LinearModel.cl``, so its atoms
are decided by ``infomodel.cheapest_purchase``, the closed-set search the
explicit-row models run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Union

from . import gf2
from .entailment import (
    hyper_eval_atom,  # unused here; perfbench/tracer.py wraps it by this name
    proof_by_edges,
    search_hypergraph,
)
from .errors import BudgetFDError, CapExceededError
from .formula import (
    AttrSet,
    Atom,
    CompiledFormula,
    Formula,
    Texts,
    Universe,
    atoms,
    evaluate,
    to_text,
)
from .hypergraph import Cut, Hypergraph, crossing_edges, reachability_cut
from .infomodel import INF, Cost, InfoModel, affordable_purchases, cheapest_purchase
from .proofs import Proof, proof_to_json_dict

VERTEX = "v"
EDGE = "e"
Attr = tuple  # (VERTEX, vertex_index) or (EDGE, edge_index)

MATERIALIZE_COORD_CAP = 4000
ENUMERATE_VECTOR_CAP = 4096


@dataclass(frozen=True, slots=True)
class Path:
    """Alternating vertex/edge sequence; always terminates at a vertex.

    A vertex-initiated path ``<v0, e1, v1, ..., en, vn>`` needs each
    ``v(k-1)`` among the tails of ``e(k)`` and each ``v(k)`` among its
    heads.  Edge-initiated paths drop the leading vertex and need at least
    one edge.  ``steps`` stores the raw ids; the kind flag disambiguates.
    """

    starts_at_edge: bool
    steps: tuple[int, ...]

    def __post_init__(self):
        if self.starts_at_edge:
            if len(self.steps) < 2 or len(self.steps) % 2:
                raise ValueError("edge-initiated paths alternate e,v,...,v")
        elif len(self.steps) % 2 == 0:
            raise ValueError("vertex-initiated paths alternate v,e,...,v")

    @property
    def first_attr(self) -> Attr:
        return (EDGE if self.starts_at_edge else VERTEX, self.steps[0])

    @property
    def terminal_vertex(self) -> int:
        return self.steps[-1]

    @property
    def n_edges(self) -> int:
        return len(self.steps) // 2

    def elements(self) -> Iterator[Attr]:
        offset = 0 if self.starts_at_edge else 1
        for at, step in enumerate(self.steps):
            yield ((EDGE, step) if (at + offset) % 2 == 0 else (VERTEX, step))

    def drop_first(self) -> "Path":
        if not self.starts_at_edge:
            raise ValueError("can only drop the edge of an edge-initiated path")
        return Path(False, self.steps[1:])

    def prepend_vertex(self, v: int) -> "Path":
        if not self.starts_at_edge:
            raise ValueError("a vertex prepends only to an edge-initiated path")
        return Path(False, (v,) + self.steps)

    def prepend_edge(self, e: int) -> "Path":
        if self.starts_at_edge:
            raise ValueError("an edge prepends only to a vertex-initiated path")
        return Path(True, (e,) + self.steps)

    def is_valid(self, h: Hypergraph) -> bool:
        elems = list(self.elements())
        for at, (kind, step) in enumerate(elems):
            if kind == VERTEX:
                if step >= len(h.universe):
                    return False
            else:
                if step >= len(h.edges):
                    return False
                edge = h.edges[step]
                if at > 0:
                    prev = elems[at - 1][1]
                    if not edge.tails.mask >> prev & 1:
                        return False
                nxt = elems[at + 1][1] if at + 1 < len(elems) else None
                if nxt is None or not edge.heads.mask >> nxt & 1:
                    return False
        return True


@dataclass(frozen=True)
class PathModel:
    """View of a hypergraph as an informational model over path coordinates."""

    hypergraph: Hypergraph

    def attributes(self) -> list[Attr]:
        h = self.hypergraph
        return [(VERTEX, i) for i in range(len(h.universe))] + [
            (EDGE, e) for e in range(len(h.edges))
        ]

    def cost(self, attr: Attr) -> Cost:
        kind, idx = attr
        return self.hypergraph.edges[idx].weight if kind == EDGE else INF


def synthesize_model(h: Hypergraph) -> PathModel:
    return PathModel(h)


def enumerate_paths(pm: PathModel, origin: Attr, maxlen: int) -> list[Path]:
    """All paths from an attribute with at most ``maxlen`` edges, shortest
    first, extensions in ascending (edge id, head vertex) order."""
    h = pm.hypergraph
    kind, idx = origin
    out: list[Path] = []
    frontier: list[Path] = []
    if kind == VERTEX:
        seed = Path(False, (idx,))
        out.append(seed)
        frontier.append(seed)
    else:
        if maxlen >= 1:
            for head in sorted(h.edges[idx].heads.indices()):
                p = Path(True, (idx, head))
                out.append(p)
                frontier.append(p)
    while frontier:
        nxt: list[Path] = []
        for path in frontier:
            if path.n_edges >= maxlen:
                continue
            tail = path.terminal_vertex
            for edge in h.edges:
                if not edge.tails.mask >> tail & 1:
                    continue
                for head in sorted(edge.heads.indices()):
                    grown = Path(path.starts_at_edge, path.steps + (edge.index, head))
                    out.append(grown)
                    nxt.append(grown)
        frontier = nxt
    return out


def has_hypercycle(h: Hypergraph) -> bool:
    """True when some vertex reaches itself through tail-to-head adjacency."""
    n = len(h.universe)
    succ: list[set[int]] = [set() for _ in range(n)]
    for edge in h.edges:
        for u in edge.tails.indices():
            succ[u].update(edge.heads.indices())
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    for root in range(n):
        if color[root]:
            continue
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(sorted(succ[root])))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if color[child] == 1:
                    return True
                if color[child] == 0:
                    color[child] = 1
                    stack.append((child, iter(sorted(succ[child]))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


# -- Cut-limited backward trees and flip vectors ---------------------------

@dataclass(frozen=True)
class ChoiceFunction:
    """Uniform per-edge tail choice for the backward tree below a cut.

    For every non-crossing edge with a head on the right side, ``kappa``
    picks one tail on the right side (the least-index one; existence is
    guaranteed because a non-crossing edge with a right-side head must
    have a right-side tail).  Fixing one tail per edge makes the possibly
    infinite tree a regular path set with a linear-scan membership test.
    """

    cut: Cut
    root: int
    kappa: Mapping[int, int]
    crossing: frozenset[int]


def choice_function(h: Hypergraph, cut: Cut, root: int) -> ChoiceFunction:
    if not cut.right.mask >> root & 1:
        raise ValueError("the tree root must lie on the right side of the cut")
    crossing = crossing_edges(h, cut)
    kappa: dict[int, int] = {}
    for edge in h.edges:
        if edge.index in crossing:
            continue
        if edge.heads.isdisjoint(cut.right):
            continue
        inside = edge.tails & cut.right
        assert inside, "non-crossing edge with right-side head has a right-side tail"
        kappa[edge.index] = inside.indices()[0]
    return ChoiceFunction(cut, root, kappa, crossing)


def tree_membership(path: Path, cf: ChoiceFunction) -> bool:
    """Single-scan membership test for the cut-limited backward tree.

    A path belongs to the tree iff it ends at the root and every vertex
    immediately preceding an edge is that edge's chosen tail.  ``kappa``
    chooses tails on the right side for non-crossing edges only, so such a
    path stays inside the right side, with a crossing edge at most as its
    first element.
    """
    steps = path.steps
    first = 2 if path.starts_at_edge else 1  # the first edge with a vertex before it
    kappa = cf.kappa
    return path.terminal_vertex == cf.root and all(
        kappa.get(edge) == tail for tail, edge in zip(steps[first - 1::2], steps[first::2]))


class ZeroVector:
    """The all-zero legitimate vector."""

    def coord(self, attr: Attr, path: Path) -> int:
        if path.first_attr != tuple(attr):
            raise ValueError(f"path {path} is not initiated at {attr}")
        return 0


class FlipVector:
    """Zero with the backward-tree coordinates toggled.

    Vertex coordinates flip on every tree path; edge coordinates flip only
    for crossing edges.  Relative to the zero vector this leaves the cut's
    left side and every non-crossing edge untouched while flipping the
    root's trivial path, and it satisfies every path equation.
    """

    def __init__(self, cf: ChoiceFunction):
        self.cf = cf

    def coord(self, attr: Attr, path: Path) -> int:
        kind, idx = attr
        if path.first_attr != (kind, idx):
            raise ValueError(f"path {path} is not initiated at {attr}")
        if kind == EDGE and idx not in self.cf.crossing:
            return 0
        return 1 if tree_membership(path, self.cf) else 0


def flip_vector(cf: ChoiceFunction) -> FlipVector:
    return FlipVector(cf)


def tree_vertices(h: Hypergraph, cf: ChoiceFunction) -> int:
    """The mask of the vertices some valid tree path starts at, which are
    the vertices where the flip vector has a 1 coordinate: the root, then,
    until none is added, ``kappa[e]`` for each edge ``e`` with a head among
    them whose chosen tail really is one of its tails."""
    kappa = cf.kappa
    chosen = [(heads, 1 << kappa[e]) for e, (tails, heads) in enumerate(zip(h.tails, h.heads))
              if e in kappa and tails >> kappa[e] & 1]
    tree = grown = 1 << cf.root
    while grown:
        grown = 0
        for heads, tail in chosen:
            if heads & tree and not tail & tree:
                grown |= tail
        tree |= grown
    return tree


Vector = Union[ZeroVector, FlipVector]


@dataclass
class EquationReport:
    """The broken path equations: the edges whose equations fail, from the
    exact check, or the failing paths, from the random spot check."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def equation_coords(h: Hypergraph, path: Path) -> tuple:
    """The coordinates the path equation at edge-initiated ``path`` ties,
    flat as attribute, path, attribute, path, ...: the edge's on ``path``
    itself, each tail's on the path with that tail prepended, and the
    head's on the path without its edge.  Their bits XOR to zero."""
    e = path.steps[0]
    coords = [(EDGE, e), path]
    for u in h.edges[e].tails.indices():
        coords += ((VERTEX, u), path.prepend_vertex(u))
    suffix = path.drop_first()
    coords += ((VERTEX, suffix.steps[0]), suffix)
    return tuple(coords)


def _violated(vec: Vector, coords: tuple) -> bool:
    """True when the bits of one equation's coordinates XOR to 1."""
    total = 0
    pairs = iter(coords)
    for attr, path in zip(pairs, pairs):
        total ^= vec.coord(attr, path)
    return bool(total)


def verify_equations_sampled(flip: FlipVector, h: Hypergraph) -> EquationReport:
    """Every path equation of a flip vector, checked exactly at any depth,
    one condition per edge.

    Take an edge-initiated path ``<e, v, rest>`` and let ``m`` be the tree
    membership of ``<v, rest>``.  ``tree_membership`` reads the same
    choices on ``<e, v, rest>``, so its edge coordinate is
    ``m·[e crossing]``; a tail ``u``'s coordinate on ``<u, e, v, rest>`` is
    ``m·[kappa[e] = u]``, which sums over the tails of ``e`` to
    ``m·[kappa[e] is a tail of e]``; and the head's coordinate is ``m``.
    So the equation fails exactly when ``m`` is 1 and ``e`` is both or
    neither of crossing and a real ``kappa`` edge.  Some valid path from
    ``v`` has ``m`` at 1 exactly when ``v`` is in ``tree_vertices``, by a
    tree path of fewer than |V| edges.  So every equation holds if and
    only if each edge with a head there is exactly one of the two, and the
    report lists the edges that are not.
    """
    cf = flip.cf
    crossing, kappa = cf.crossing, cf.kappa
    tree = tree_vertices(h, cf)
    return EquationReport([
        e for e, (tails, heads) in enumerate(zip(h.tails, h.heads))
        if heads & tree and (e in crossing) == (e in kappa and bool(tails >> kappa[e] & 1))
    ])


def verify_equations_random(
    vec: Vector, pm: PathModel, samples: int, maxlen: int, rng
) -> EquationReport:
    """Spot-check the path equation along random backward walks.

    Unused: ``verify_equations_sampled`` is exact and cheaper.  It stays
    because perfbench/tracer.py wraps it by this name."""
    h = pm.hypergraph
    report = EquationReport()
    if not h.edges:
        return report
    for _ in range(samples):
        e = rng.randrange(len(h.edges))
        heads = sorted(h.edges[e].heads.indices())
        if not heads:
            continue
        path = Path(True, (e, rng.choice(heads)))
        for _ in range(rng.randrange(maxlen)):
            tail = path.terminal_vertex
            options = [
                (edge.index, head)
                for edge in h.edges
                if edge.tails.mask >> tail & 1
                for head in edge.heads.indices()
            ]
            if not options:
                break
            step = rng.choice(options)
            path = Path(True, path.steps + step)
        if _violated(vec, equation_coords(h, path)):
            report.violations.append(path)
    return report


@dataclass
class FlipClaimReport:
    """``left_flips`` masks the left-side vertices where the flip vector has
    a 1 coordinate; ``root_flipped`` says its root's trivial path has one."""

    left_flips: int
    root_flipped: bool

    @property
    def ok(self) -> bool:
        return self.root_flipped and not self.left_flips


def check_flip_claims(flip: FlipVector, h: Hypergraph) -> FlipClaimReport:
    """The witness structure of a flip vector, exact at any depth: the
    root's trivial-path coordinate is 1, and no left-side vertex is in
    ``tree_vertices``.  Non-crossing edges need no check, since
    ``FlipVector.coord`` is 0 on them by definition."""
    cf = flip.cf
    return FlipClaimReport(
        left_flips=tree_vertices(h, cf) & cf.cut.left.mask,
        root_flipped=flip.coord((VERTEX, cf.root), Path(False, (cf.root,))) == 1,
    )


# -- Exact materialization for acyclic hypergraphs --------------------------

@dataclass
class LinearModel:
    """Explicit path-coordinate model with a linear legitimate set.

    ``coords`` enumerates every (attribute, path) coordinate; ``basis``
    spans the GF(2) solution space of all path equations (each basis
    vector is a bitmask over coordinate positions).  Attribute domains are
    the bit-tuples over that attribute's coordinates.
    """

    hypergraph: Hypergraph
    attrs: tuple[Attr, ...]
    costs: dict
    coords: tuple[tuple[Attr, Path], ...]
    equations: tuple[int, ...]
    basis: tuple[int, ...]
    attr_masks: dict = field(repr=False, default_factory=dict)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def cl(self) -> Callable[..., int]:
        """The model's closure operator, memoised per set: ``close(X, heads)``
        is every attribute whose coordinates are zero on each difference of
        legitimate vectors (a vector of the basis's span) that is zero on the
        coordinates of ``X | heads``.  Attribute ``i`` of ``attrs`` is bit
        ``i``: vertex ``v`` is bit ``v`` and edge ``e`` is bit ``n + e``."""
        masks = [self.attr_masks[attr] for attr in self.attrs]
        memo: dict[int, int] = {}

        def close(attrs: int, heads: int = 0) -> int:
            attrs |= heads
            found = memo.get(attrs)
            if found is None:
                key = 0
                for i, mask in enumerate(masks):
                    if attrs >> i & 1:
                        key |= mask
                moving = gf2.support_vanishing_on(self.basis, key)
                found = memo[attrs] = sum(
                    1 << i for i, mask in enumerate(masks) if not mask & moving
                )
            return found

        return close

    def truncated(self, r: Fraction) -> "LinearModel":
        r = Fraction(r)
        capped = {
            attr: (cost if cost != INF and cost <= r else r)
            for attr, cost in self.costs.items()
        }
        return replace(self, costs=capped)

    def vectors(self, cap: int = ENUMERATE_VECTOR_CAP) -> list[int]:
        """The legitimate vectors: the k-th XORs the basis vectors at the set
        bits of k, so it is the vector of k without its lowest set bit XOR
        that bit's basis vector."""
        if 1 << self.dimension > cap:
            raise CapExceededError(
                f"2^{self.dimension} legitimate vectors exceed the cap {cap}"
            )
        out = [0]
        for bits in range(1, 1 << self.dimension):
            out.append(out[bits & (bits - 1)] ^ self.basis[(bits & -bits).bit_length() - 1])
        return out

    def to_info_model(self, cap: int = ENUMERATE_VECTOR_CAP) -> InfoModel:
        """Explicit-row model: one row per legitimate vector, attribute
        values are that attribute's coordinate bits rendered as a string,
        lowest coordinate first.  Each attribute's coordinates must be one
        contiguous range, as ``materialize_acyclic`` lays them out."""
        vertex_names = self.hypergraph.universe.names
        names = [
            f"v:{vertex_names[idx]}" if kind == VERTEX else f"e:{idx}"
            for kind, idx in self.attrs
        ]
        spans = []
        for attr in self.attrs:
            mask = self.attr_masks[attr]
            low = (mask & -mask).bit_length() - 1 if mask else 0
            run = mask >> low
            if run & (run + 1):
                raise ValueError(f"coordinates of {attr} are not one contiguous range")
            spans.append(slice(low, mask.bit_length()))
        width = f"0{len(self.coords)}b"
        rows = []
        for vec in self.vectors(cap):
            bits = format(vec, width)[::-1]  # bits[i] is coordinate i
            rows.append(tuple(map(bits.__getitem__, spans)))
        costs = tuple(self.costs[attr] for attr in self.attrs)
        return InfoModel(Universe(names), costs, tuple(rows))


def materialize_acyclic(pm: PathModel, cap: int = MATERIALIZE_COORD_CAP) -> LinearModel:
    """Enumerate all coordinates and solve the path equations exactly.

    Only meaningful when the hypergraph is acyclic (every path is finite);
    refuses cyclic inputs rather than truncating, since truncation leaves
    boundary coordinates unconstrained and would wrongly break
    dependencies that must hold.
    """
    h = pm.hypergraph
    if has_hypercycle(h):
        raise BudgetFDError("cannot materialize a cyclic hypergraph exactly")
    maxlen = max(1, len(h.universe))
    attrs = pm.attributes()

    coords: list[tuple[Attr, Path]] = []
    index: dict[tuple[Attr, tuple[int, ...]], int] = {}
    for attr in attrs:
        for path in enumerate_paths(pm, attr, maxlen):
            index[attr, path.steps] = len(coords)
            coords.append((attr, path))
            if len(coords) > cap:
                raise CapExceededError(f"coordinate count exceeds the cap {cap}")

    # one row per edge-initiated path, edge by edge, tying the coordinates
    # that equation_coords lists
    rows: list[int] = []
    for at, ((kind, e), path) in enumerate(coords):
        if kind != EDGE:
            continue
        steps = path.steps
        row = 1 << at
        for u in h.edges[e].tails.indices():
            row ^= 1 << index[(VERTEX, u), (u,) + steps]
        row ^= 1 << index[(VERTEX, steps[1]), steps[1:]]
        rows.append(row)

    basis = gf2.nullspace(rows, len(coords))
    costs = {attr: pm.cost(attr) for attr in attrs}
    attr_masks: dict[Attr, int] = {attr: 0 for attr in attrs}
    for i, (attr, _) in enumerate(coords):
        attr_masks[attr] |= 1 << i
    return LinearModel(
        h,
        tuple(attrs),
        costs,
        tuple(coords),
        tuple(rows),
        tuple(basis),
        attr_masks,
    )


def eval_atom_linear(lm: LinearModel, atom: Atom) -> bool:
    """Atom semantics on the materialized model, purchase sets included."""
    if atom.universe != lm.hypergraph.universe:
        raise BudgetFDError(f"atom {atom} over a different universe")
    _, limit, affordable = affordable_purchases([lm.costs[attr] for attr in lm.attrs], atom.budget)
    return cheapest_purchase(lm.cl, affordable, limit, atom.lhs.mask, atom.rhs.mask) is not None


def eval_formula_linear(lm: LinearModel, f: Formula) -> bool:
    return CompiledFormula(f).value(ask=lambda atom: eval_atom_linear(lm, atom))


# -- Counterexample packages -------------------------------------------------

@dataclass
class FlipWitnessRecord:
    """One refutation witness: a purchase attempt and the vector pair
    separating its closure from the goal."""

    edge_ids: frozenset[int]
    cut: Cut
    root: int
    kappa: dict[int, int]
    equations: EquationReport
    claims: FlipClaimReport
    agreement_ok: bool

    @property
    def ok(self) -> bool:
        return self.equations.ok and self.claims.ok and self.agreement_ok


@dataclass
class AtomRefutation:
    atom: Atom
    records: list[FlipWitnessRecord]


@dataclass
class AtomProofEntry:
    atom: Atom
    proof: Proof


@dataclass
class CounterexamplePackage:
    hypergraph: Hypergraph
    formula: Formula
    true_atoms: list[AtomProofEntry]
    false_atoms: list[AtomRefutation]
    linear: LinearModel | None = None
    linear_evals: dict[Atom, bool] | None = None

    @property
    def all_checks_ok(self) -> bool:
        return all(rec.ok for ref in self.false_atoms for rec in ref.records)


def _agreement_ok(
    claims: FlipClaimReport, cf: ChoiceFunction, lhs: AttrSet, edge_ids: Iterable[int]
) -> bool:
    """Flip vector agrees with zero on the atom's left side and every
    purchased edge: no purchased edge crosses the cut (``coord`` is 0 on
    the others), and no vertex of the left side is a recorded left flip."""
    return cf.crossing.isdisjoint(edge_ids) and not claims.left_flips & lhs.mask


def counterexample_for(
    h: Hypergraph,
    f: Formula,
    materialize: bool = True,
    materialize_cap: int = MATERIALIZE_COORD_CAP,
) -> CounterexamplePackage:
    """Assemble the full witness package for a formula failing in ``h``.

    Every atom true in the hypergraph gets a checkable proof from the
    edge premises.  Every false atom gets one record per state of its
    family, each set ``search_hypergraph`` reaches within its budget: the
    edges reaching it, its reachability cut, a root the goal misses, the
    tail-choice map, and the zero/flip vector pair with its equation,
    structure and agreement checks, exact at every depth.  An affordable
    purchase set's closure under it and the zero-weight edges is such a
    state, and no edge of the purchase crosses that state's cut, so the
    state's record witnesses the purchase.  Acyclic hypergraphs
    additionally materialize the exact linear model with per-atom
    evaluations.

    ``choice_function``, ``verify_equations_sampled``, ``check_flip_claims``
    and ``_agreement_ok`` are called through this module's globals, under
    the names perfbench/tracer.py wraps.
    """
    searches = {
        atom: search_hypergraph(h, atom.lhs.mask, atom.rhs.mask, atom.budget)
        for atom in atoms(f)
    }
    holds = {
        atom: found is not None and found[0] <= atom.budget
        for atom, (found, _) in searches.items()
    }
    if evaluate(f, holds):
        raise ValueError("formula holds in the hypergraph; nothing to refute")

    true_entries: list[AtomProofEntry] = []
    false_entries: list[AtomRefutation] = []
    for atom, (found, family) in searches.items():
        if holds[atom]:
            proof = proof_by_edges(h, atom, h.edge_ids(found[1]))
            true_entries.append(AtomProofEntry(atom, proof))
            continue
        records: list[FlipWitnessRecord] = []
        for _, fired in family.values():
            ids = h.edge_ids(fired)
            cut = reachability_cut(h, atom.lhs, ids)
            root = (atom.rhs - cut.left).indices()[0]
            cf = choice_function(h, cut, root)
            flip = flip_vector(cf)
            claims = check_flip_claims(flip, h)
            records.append(
                FlipWitnessRecord(
                    edge_ids=frozenset(ids),
                    cut=cut,
                    root=root,
                    kappa=dict(cf.kappa),
                    equations=verify_equations_sampled(flip, h),
                    claims=claims,
                    agreement_ok=_agreement_ok(claims, cf, atom.lhs, ids),
                )
            )
        false_entries.append(AtomRefutation(atom, records))

    linear = None
    linear_evals = None
    if materialize and not has_hypercycle(h):
        linear = materialize_acyclic(synthesize_model(h), materialize_cap)
        linear_evals = {atom: eval_atom_linear(linear, atom) for atom in atoms(f)}
    return CounterexamplePackage(h, f, true_entries, false_entries, linear, linear_evals)


def package_to_json_dict(pkg: CounterexamplePackage) -> dict:
    h = pkg.hypergraph
    names = h.universe.names
    texts = Texts(h.universe)

    def cut_json(cut: Cut) -> dict:
        return {"left": sorted(cut.left), "right": sorted(cut.right)}

    out: dict = {
        "hypergraph": h.to_json_dict(),
        "formula": to_text(pkg.formula, texts.atom),
        "true_atoms": [
            {"atom": texts.atom(entry.atom), "proof": proof_to_json_dict(entry.proof, texts)}
            for entry in pkg.true_atoms
        ],
        "false_atoms": [
            {
                "atom": texts.atom(ref.atom),
                "witnesses": [
                    {
                        "edges": sorted(rec.edge_ids),
                        "cut": cut_json(rec.cut),
                        "root": names[rec.root],
                        "kappa": {
                            f"e:{e}": f"v:{names[v]}"
                            for e, v in sorted(rec.kappa.items())
                        },
                        "checks": {
                            "equation_violations": len(rec.equations.violations),
                            "structure_ok": rec.claims.ok,
                            "agreement_ok": rec.agreement_ok,
                            "root_flipped": rec.claims.root_flipped,
                        },
                    }
                    for rec in ref.records
                ],
            }
            for ref in pkg.false_atoms
        ],
    }
    if pkg.linear is not None:
        linear: dict = {
            "coordinates": len(pkg.linear.coords),
            "dimension": pkg.linear.dimension,
            "atom_evals": {
                texts.atom(atom): value for atom, value in sorted(
                    (pkg.linear_evals or {}).items(), key=lambda kv: kv[0].sort_key()
                )
            },
        }
        if 1 << pkg.linear.dimension <= ENUMERATE_VECTOR_CAP:
            linear["model"] = pkg.linear.to_info_model().to_json_dict()
        out["linear"] = linear
    return out
