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

Cyclic hypergraphs have infinitely many paths; their witnesses stay
symbolic (coordinate oracles checked up to a depth bound).  Acyclic ones
have finitely many paths and materialize into an exact linear model whose
legitimate set is the GF(2) solution space of all path equations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from . import gf2, search
from .entailment import (
    hyper_eval_atom,  # unused here; perfbench/tracer.py wraps it by this name
    proof_by_edges,
    search_hypergraph,
)
from .errors import BudgetFDError, CapExceededError
from .formula import AttrSet, Atom, CompiledFormula, Formula, Universe, atoms, evaluate
from .hypergraph import Cut, Hypergraph, crossing_edges, reachability_cut
from .infomodel import INF, Cost, InfoModel
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
    """View of a hypergraph as an informational model over path coordinates.

    Paths depend only on the hypergraph and a length bound, so a model
    enumerates each origin's paths once per bound and keeps one equation
    table per bound; every check and the materialization read these.
    """

    hypergraph: Hypergraph
    depth: int
    _paths: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _equations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth bound must be at least 1")

    def paths(self, origin: Attr, maxlen: int) -> list[Path]:
        """``enumerate_paths(self, origin, maxlen)``, enumerated on first use.
        Callers share the list and must not change it."""
        key = (origin, maxlen)
        found = self._paths.get(key)
        if found is None:
            found = self._paths[key] = enumerate_paths(self, origin, maxlen)
        return found

    def equations(self, maxlen: int) -> list[tuple]:
        """The path equation at every edge-initiated path up to ``maxlen``
        edges, edge by edge in enumeration order, as ``equation_coords``
        lays it out.  Its tail-prepended paths and suffix are the model's
        own vertex-initiated paths up to ``maxlen`` edges and its attributes
        are shared, so an equation adds one tuple and no path."""
        table = self._equations.get(maxlen)
        if table is None:
            h = self.hypergraph
            vertex_attrs = [(VERTEX, v) for v in range(len(h.universe))]
            known = {
                path.steps: path
                for attr in vertex_attrs
                for path in self.paths(attr, maxlen)
            }
            table = self._equations[maxlen] = []
            for e, edge in enumerate(h.edges):
                edge_attr = (EDGE, e)
                tails = edge.tails.indices()
                for path in self.paths(edge_attr, maxlen):
                    steps = path.steps
                    coords = [edge_attr, path]
                    for u in tails:
                        coords += (vertex_attrs[u], known[(u,) + steps])
                    coords += (vertex_attrs[steps[1]], known[steps[1:]])
                    table.append(tuple(coords))
        return table

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


def count_paths(pm: PathModel, maxlen: int, cap: int) -> int:
    """Total path count across all origins up to ``maxlen`` edges.

    Counting by terminal vertex is exact because a path's extension
    choices depend only on where it currently ends.  Returns early once
    the cap is passed, so callers can reject explosive instances cheaply.
    """
    h = pm.hypergraph
    n = len(h.universe)

    def extend(by_terminal: list[int]) -> list[int]:
        nxt = [0] * n
        for v in range(n):
            c = by_terminal[v]
            if not c:
                continue
            for e in h.edges:
                if e.tails.mask >> v & 1:
                    for head in e.heads.indices():
                        nxt[head] += c
        return nxt

    total = n  # trivial vertex paths
    current = [1] * n
    for _ in range(maxlen):
        current = extend(current)
        total += sum(current)
        if total > cap or not any(current):
            break
    if total > cap:
        return total

    current = [0] * n  # edge-initiated paths, one edge so far
    for e in h.edges:
        for head in e.heads.indices():
            current[head] += 1
    total += sum(current)
    for _ in range(maxlen - 1):
        if total > cap or not any(current):
            break
        current = extend(current)
        total += sum(current)
    return total


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


def _check_equation(vec: Vector, coords: tuple, report: EquationReport) -> None:
    report.paths_checked += 1
    total = 0
    pairs = iter(coords)
    for attr, path in zip(pairs, pairs):
        total ^= vec.coord(attr, path)
    if total:
        report.violations.append(coords[1])


def verify_equations_sampled(vec: Vector, pm: PathModel, maxlen: int) -> EquationReport:
    """Check the path equation on every edge-initiated path up to ``maxlen``."""
    if maxlen > pm.depth:
        raise ValueError(f"maxlen {maxlen} exceeds the model depth {pm.depth}")
    report = EquationReport(0)
    for coords in pm.equations(maxlen):
        _check_equation(vec, coords, report)
    return report


def verify_equations_random(
    vec: Vector, pm: PathModel, samples: int, maxlen: int, rng
) -> EquationReport:
    """Spot-check the path equation along random backward walks."""
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
        _check_equation(vec, equation_coords(h, path), report)
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
    paths up to ``maxlen``, and the root's trivial-path coordinate is 1."""
    h = pm.hypergraph
    cf = flip.cf
    report = FlipClaimReport()
    for v in cf.cut.left.indices():
        for path in pm.paths((VERTEX, v), maxlen):
            if flip.coord((VERTEX, v), path):
                report.left_flips.append(((VERTEX, v), path))
    for e in range(len(h.edges)):
        if e in cf.crossing:
            continue
        for path in pm.paths((EDGE, e), maxlen):
            if flip.coord((EDGE, e), path):
                report.edge_flips.append(((EDGE, e), path))
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

    def attr_mask(self, attrs: Iterable[Attr]) -> int:
        mask = 0
        for attr in attrs:
            mask |= self.attr_masks[tuple(attr)]
        return mask

    def with_costs(self, costs: Mapping) -> "LinearModel":
        return LinearModel(
            self.hypergraph,
            self.attrs,
            dict(costs),
            self.coords,
            self.equations,
            self.basis,
            self.attr_masks,
        )

    def truncated(self, r: Fraction) -> "LinearModel":
        r = Fraction(r)
        capped = {
            attr: (cost if cost != INF and cost <= r else r)
            for attr, cost in self.costs.items()
        }
        return self.with_costs(capped)

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
    attrs: list[Attr] = [(VERTEX, i) for i in range(len(h.universe))]
    attrs += [(EDGE, e) for e in range(len(h.edges))]

    coords: list[tuple[Attr, Path]] = []
    index: dict[tuple[Attr, Path], int] = {}
    for attr in attrs:
        for path in pm.paths(attr, maxlen):
            index[(attr, path)] = len(coords)
            coords.append((attr, path))
            if len(coords) > cap:
                raise CapExceededError(f"coordinate count exceeds the cap {cap}")

    rows: list[int] = []
    for equation in pm.equations(maxlen):
        row = 0
        pairs = iter(equation)
        for coord in zip(pairs, pairs):
            row ^= 1 << index[coord]
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


def subspace_fd_check(
    lm: LinearModel,
    source_attrs: Iterable[Attr],
    target_attrs: Iterable[Attr],
    extra_attrs: Iterable[Attr] = (),
) -> bool:
    """Dependency test on the linear legitimate set.

    Holds iff every combination of basis vectors vanishing on the
    source∪extra coordinates also vanishes on the target coordinates
    (differences of legitimate vectors are exactly such combinations).
    """
    key_mask = lm.attr_mask(source_attrs) | lm.attr_mask(extra_attrs)
    target_mask = lm.attr_mask(target_attrs)
    if target_mask == 0:
        return True
    constraint_rows = []
    m = key_mask
    while m:
        pos = (m & -m).bit_length() - 1
        m &= m - 1
        row = 0
        for k, vec in enumerate(lm.basis):
            if vec >> pos & 1:
                row |= 1 << k
        constraint_rows.append(row)
    for combo in gf2.nullspace(constraint_rows, len(lm.basis)):
        vec = 0
        m = combo
        while m:
            vec ^= lm.basis[(m & -m).bit_length() - 1]
            m &= m - 1
        if vec & target_mask:
            return False
    return True


def eval_atom_linear(lm: LinearModel, atom: Atom, cap: int = 24) -> bool:
    """Atom semantics on the materialized model, purchase sets included."""
    if atom.universe != lm.hypergraph.universe:
        raise BudgetFDError(f"atom {atom} over a different universe")
    source = [(VERTEX, i) for i in atom.lhs.indices()]
    target = [(VERTEX, i) for i in atom.rhs.indices()]
    taken = set(source)
    candidates = [
        attr
        for attr in lm.attrs
        if attr not in taken and lm.costs[attr] <= atom.budget
    ]
    if len(candidates) > cap:
        raise CapExceededError(f"{len(candidates)} affordable attributes exceeds {cap}")
    costs = [lm.costs[attr] for attr in candidates]

    def feasible(picked: tuple[int, ...]) -> bool:
        extra = [candidates[k] for k in picked]
        return subspace_fd_check(lm, source, target, extra)

    return search.find_witness(costs, atom.budget, feasible) is not None


def eval_formula_linear(lm: LinearModel, f: Formula, cap: int = 24) -> bool:
    return CompiledFormula(f).value(ask=lambda atom: eval_atom_linear(lm, atom, cap))


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
    samples: int | None = None,
    rng=None,
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

    Equation checks are exhaustive up to ``verify_depth``; pass ``samples``
    (with a seeded ``rng``) to spot-check random walks instead, for graphs
    whose path count explodes.
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
    pm = synthesize_model(h)
    verify_depth = min(verify_depth, pm.depth)

    def check_equations(vec: Vector) -> EquationReport:
        if samples is not None:
            walker = rng if rng is not None else random.Random(0)
            return verify_equations_random(vec, pm, samples, verify_depth, walker)
        return verify_equations_sampled(vec, pm, verify_depth)
    edge_atoms = [Atom(e.tails, e.heads, e.weight) for e in h.edges]

    true_entries: list[AtomProofEntry] = []
    false_entries: list[AtomRefutation] = []
    for atom, (found, family) in searches.items():
        if holds[atom]:
            proof = proof_by_edges(h, edge_atoms, atom, h.edge_ids(found[1]))
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
                    equations=check_equations(flip),
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

    def cut_json(cut: Cut) -> dict:
        return {"left": sorted(cut.left), "right": sorted(cut.right)}

    out: dict = {
        "hypergraph": h.to_json_dict(),
        "formula": str(pkg.formula),
        "verify_depth": pkg.verify_depth,
        "true_atoms": [
            {"atom": str(entry.atom), "proof": proof_to_json_dict(entry.proof)}
            for entry in pkg.true_atoms
        ],
        "false_atoms": [
            {
                "atom": str(ref.atom),
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
                str(atom): value for atom, value in sorted(
                    (pkg.linear_evals or {}).items(), key=lambda kv: kv[0].sort_key()
                )
            },
        }
        if 1 << pkg.linear.dimension <= ENUMERATE_VECTOR_CAP:
            linear["model"] = pkg.linear.to_info_model().to_json_dict()
        out["linear"] = linear
    return out
