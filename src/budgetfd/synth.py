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

A flip vector is 1 only on its tree, so its checks, exact up to a depth
bound on cyclic hypergraphs too, read only that support, grown backwards
from the root: an equation holding no support coordinate ties zeros.
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
    """View of a hypergraph as an informational model over path coordinates,
    with a bound on the path lengths that checks of it may ask for."""

    hypergraph: Hypergraph
    depth: int
    _edge_paths: dict[int, int] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth bound must be at least 1")

    def edge_paths(self, maxlen: int) -> int:
        """``count_edge_paths(self, maxlen)``, counted once per length."""
        count = self._edge_paths.get(maxlen)
        if count is None:
            count = self._edge_paths[maxlen] = count_edge_paths(self, maxlen)
        return count

    def attributes(self) -> list[Attr]:
        h = self.hypergraph
        return [(VERTEX, i) for i in range(len(h.universe))] + [
            (EDGE, e) for e in range(len(h.edges))
        ]

    def cost(self, attr: Attr) -> Cost:
        kind, idx = attr
        return self.hypergraph.edges[idx].weight if kind == EDGE else INF


def default_depth(h: Hypergraph) -> int:
    return 2 * (len(h.universe) + len(h.edges)) + 2


def synthesize_model(h: Hypergraph, depth: int | None = None) -> PathModel:
    return PathModel(h, default_depth(h) if depth is None else depth)


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


def _count_grown(h: Hypergraph, by_terminal: list[int], steps: int) -> int:
    """The paths counted in ``by_terminal`` by the vertex they end at, plus
    their extensions by up to ``steps`` edges.  Counting by terminal vertex
    is exact because a path's extension choices depend only on where it
    ends; the count costs no path objects, however many paths there are."""
    total = sum(by_terminal)
    for _ in range(steps):
        if not any(by_terminal):
            break
        nxt = [0] * len(by_terminal)
        for v, c in enumerate(by_terminal):
            if not c:
                continue
            for e in h.edges:
                if e.tails.mask >> v & 1:
                    for head in e.heads.indices():
                        nxt[head] += c
        by_terminal = nxt
        total += sum(nxt)
    return total


def count_edge_paths(pm: PathModel, maxlen: int) -> int:
    """The number of edge-initiated paths with at most ``maxlen`` edges."""
    h = pm.hypergraph
    if maxlen < 1:
        return 0
    one_edge = [0] * len(h.universe)
    for e in h.edges:
        for head in e.heads.indices():
            one_edge[head] += 1
    return _count_grown(h, one_edge, maxlen - 1)


def count_paths(pm: PathModel, maxlen: int) -> int:
    """Total path count across all origins up to ``maxlen`` edges."""
    h = pm.hypergraph
    return _count_grown(h, [1] * len(h.universe), maxlen) + count_edge_paths(pm, maxlen)


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


def _edges_into(h: Hypergraph) -> list[list[int]]:
    """For each vertex, the edges with a head there, in index order."""
    into: list[list[int]] = [[] for _ in range(len(h.universe))]
    for edge in h.edges:
        for v in edge.heads.indices():
            into[v].append(edge.index)
    return into


class ZeroVector:
    """The all-zero legitimate vector."""

    def coord(self, attr: Attr, path: Path) -> int:
        if path.first_attr != tuple(attr):
            raise ValueError(f"path {path} is not initiated at {attr}")
        return 0

    def support(self, pm: PathModel, maxlen: int) -> list[tuple[Attr, Path]]:
        return []


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

    def support(self, pm: PathModel, maxlen: int) -> list[tuple[Attr, Path]]:
        """Every coordinate on a path of at most ``maxlen`` edges whose
        ``coord`` is 1, grown backwards from the root's trivial path.  At a
        path's front vertex, each crossing edge with a head there gives an
        edge coordinate and ends the branch, and each ``kappa`` edge with a
        head there prepends its chosen tail and grows on.  The tree is
        suffix-closed, so this reaches all of it."""
        cf = self.cf
        h = pm.hypergraph
        into = _edges_into(h)
        root = Path(False, (cf.root,))
        out: list[tuple[Attr, Path]] = [((VERTEX, cf.root), root)]
        frontier = [root]
        for _ in range(maxlen):
            grown = []
            for path in frontier:
                for e in into[path.steps[0]]:
                    if e in cf.crossing:
                        out.append(((EDGE, e), path.prepend_edge(e)))
                    tail = cf.kappa.get(e)
                    if tail is not None and h.edges[e].tails.mask >> tail & 1:
                        longer = Path(False, (tail, e) + path.steps)
                        out.append(((VERTEX, tail), longer))
                        grown.append(longer)
            frontier = grown
        return out


def flip_vector(cf: ChoiceFunction) -> FlipVector:
    return FlipVector(cf)


Vector = Union[ZeroVector, FlipVector]


@dataclass
class EquationReport:
    paths_checked: int
    violations: list[Path] = field(default_factory=list)

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


def verify_equations_sampled(vec: Vector, pm: PathModel, maxlen: int) -> EquationReport:
    """Check the path equation on every edge-initiated path up to ``maxlen``
    edges.  An equation of zeros holds, so only those holding a coordinate
    of ``vec.support``, which lists every coordinate where ``coord`` is 1,
    are evaluated: an edge coordinate's own path, the path a vertex
    coordinate's path is a tail-prepended copy of, and the paths one edge
    longer that it is the suffix of.  ``paths_checked`` counts them all."""
    if maxlen > pm.depth:
        raise ValueError(f"maxlen {maxlen} exceeds the model depth {pm.depth}")
    h = pm.hypergraph
    into = _edges_into(h)
    touched: dict[Path, None] = {}
    for (kind, idx), path in vec.support(pm, maxlen):
        if kind == EDGE:
            touched[path] = None
            continue
        if path.n_edges:
            touched[Path(True, path.steps[1:])] = None
        if path.n_edges < maxlen:
            for e in into[idx]:
                touched[path.prepend_edge(e)] = None
    report = EquationReport(pm.edge_paths(maxlen))
    report.violations = [path for path in touched if _violated(vec, equation_coords(h, path))]
    return report


def verify_equations_random(
    vec: Vector, pm: PathModel, samples: int, maxlen: int, rng
) -> EquationReport:
    """Spot-check the path equation along random backward walks.

    Unused: ``verify_equations_sampled`` is exact and cheaper.  It stays
    because perfbench/tracer.py wraps it by this name."""
    h = pm.hypergraph
    report = EquationReport(0)
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
        report.paths_checked += 1
        if _violated(vec, equation_coords(h, path)):
            report.violations.append(path)
    return report


@dataclass
class FlipClaimReport:
    left_flips: list[tuple[Attr, Path]] = field(default_factory=list)
    edge_flips: list[tuple[Attr, Path]] = field(default_factory=list)
    root_flipped: bool = False

    @property
    def ok(self) -> bool:
        return self.root_flipped and not self.left_flips and not self.edge_flips


def check_flip_claims(flip: FlipVector, pm: PathModel, maxlen: int) -> FlipClaimReport:
    """Mechanically verify the witness structure of a flip vector:
    left-side vertices and non-crossing edges keep zero coordinates on all
    paths up to ``maxlen``, and the root's trivial-path coordinate is 1.
    Only the coordinates in ``flip.support`` can be 1, so only they are read."""
    cf = flip.cf
    left = cf.cut.left.mask
    report = FlipClaimReport()
    for attr, path in flip.support(pm, maxlen):
        kind, idx = attr
        if kind == VERTEX:
            if left >> idx & 1 and flip.coord(attr, path):
                report.left_flips.append((attr, path))
        elif idx not in cf.crossing and flip.coord(attr, path):
            report.edge_flips.append((attr, path))
    root_path = Path(False, (cf.root,))
    report.root_flipped = flip.coord((VERTEX, cf.root), root_path) == 1
    return report


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
    verify_depth: int
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
    purchased edge, read off the structure report: it fails on a recorded
    flip there, or on a purchased crossing edge, which the report skips."""
    purchased = {(VERTEX, v) for v in lhs.indices()} | {(EDGE, e) for e in edge_ids}
    flips = claims.left_flips + claims.edge_flips
    return cf.crossing.isdisjoint(edge_ids) and not any(a in purchased for a, _ in flips)


def counterexample_for(
    h: Hypergraph,
    f: Formula,
    verify_depth: int = 6,
    materialize: bool = True,
    materialize_cap: int = MATERIALIZE_COORD_CAP,
) -> CounterexamplePackage:
    """Assemble the full witness package for a formula failing in ``h``.

    Every atom true in the hypergraph gets a checkable proof from the
    edge premises.  Every false atom gets one record per maximal stuck
    closure, an inclusion-maximal set ``search_hypergraph`` reaches within
    its budget, which holds the closure of any affordable purchase set:
    the edges reaching it, its reachability cut, a root the goal misses,
    the tail-choice map, and the zero/flip vector pair with its equation
    and structure checks.  Acyclic hypergraphs additionally materialize
    the exact linear model with per-atom evaluations.

    Each record's equation and structure checks are exact up to
    ``verify_depth`` edges and read only its flip vector's support.
    """
    if verify_depth < 1:
        raise ValueError("the verify depth must be at least 1")
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
    pm = synthesize_model(h)
    verify_depth = min(verify_depth, pm.depth)

    true_entries: list[AtomProofEntry] = []
    false_entries: list[AtomRefutation] = []
    for atom, (found, family) in searches.items():
        if holds[atom]:
            proof = proof_by_edges(h, atom, h.edge_ids(found[1]))
            true_entries.append(AtomProofEntry(atom, proof))
            continue
        maximal: list[int] = []  # larger sets first, so a superset comes before
        for state in sorted(family, key=lambda s: bin(s).count("1"), reverse=True):
            if all(state & ~bigger for bigger in maximal):
                maximal.append(state)
        records: list[FlipWitnessRecord] = []
        for state in maximal:
            ids = h.edge_ids(family[state][1])
            cut = reachability_cut(h, atom.lhs, ids)
            root = (atom.rhs - cut.left).indices()[0]
            cf = choice_function(h, cut, root)
            flip = flip_vector(cf)
            claims = check_flip_claims(flip, pm, verify_depth)
            records.append(
                FlipWitnessRecord(
                    edge_ids=frozenset(ids),
                    cut=cut,
                    root=root,
                    kappa=dict(cf.kappa),
                    equations=verify_equations_sampled(flip, pm, verify_depth),
                    claims=claims,
                    agreement_ok=_agreement_ok(claims, cf, atom.lhs, ids),
                )
            )
        false_entries.append(AtomRefutation(atom, records))

    linear = None
    linear_evals = None
    if materialize and not has_hypercycle(h):
        linear = materialize_acyclic(pm, materialize_cap)
        linear_evals = {atom: eval_atom_linear(linear, atom) for atom in atoms(f)}
    return CounterexamplePackage(
        h, f, verify_depth, true_entries, false_entries, linear, linear_evals
    )


def package_to_json_dict(pkg: CounterexamplePackage) -> dict:
    h = pkg.hypergraph
    names = h.universe.names
    texts = Texts(h.universe)

    def cut_json(cut: Cut) -> dict:
        return {"left": sorted(cut.left), "right": sorted(cut.right)}

    out: dict = {
        "hypergraph": h.to_json_dict(),
        "formula": to_text(pkg.formula, texts.atom),
        "verify_depth": pkg.verify_depth,
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
                            "paths_checked": rec.equations.paths_checked,
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
