"""Weighted directed hypergraphs and their closure/cut machinery.

An edge has a tail set and a head set; it can fire once every tail is
reached, and firing reaches every head.  ``closure`` is the least fixpoint
of repeated firing, restricted to a chosen edge subset.  A hypergraph
stores its edges as three parallel tuples, tail masks, head masks and
weights, which the closure kernel, the searches and the proof builder read;
the ``Edge`` objects, the kernel and the weights in units come on first use.
Hypergraphs are immutable after construction; closure queries allocate
private scratch state, so one hypergraph can serve concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import kernels
from .formula import AttrSet, Universe, format_budget, in_units, parse_budget


@dataclass(frozen=True)
class Edge:
    index: int
    tails: AttrSet
    heads: AttrSet
    weight: Fraction

    def __post_init__(self):
        universe = self.tails.universe
        if universe is not self.heads.universe and universe != self.heads.universe:
            raise ValueError("edge tails/heads over different universes")
        if not isinstance(self.weight, Fraction):
            object.__setattr__(self, "weight", Fraction(self.weight))
        if self.weight.numerator < 0:
            raise ValueError(f"negative edge weight {self.weight}")


class Hypergraph:
    """Finite vertex universe plus a list of weighted directed edges.

    Edges may repeat: parallel edges with different weights are meaningful
    for minimum-budget queries.  Edge ``e`` has the tail mask ``tails[e]``,
    the head mask ``heads[e]`` and the weight ``weights[e]``.
    """

    def __init__(self, universe: Universe, edges: Iterable = ()):
        built: list[Edge] = []
        for spec in edges:
            if isinstance(spec, Edge):
                tails, heads, weight = spec.tails, spec.heads, spec.weight
            else:
                tails, heads, weight = spec
            if not isinstance(tails, AttrSet):
                tails = universe.set_of(tails)
            if not isinstance(heads, AttrSet):
                heads = universe.set_of(heads)
            if (tails.universe is not universe and tails.universe != universe
                    or heads.universe is not universe and heads.universe != universe):
                raise ValueError("edge endpoints over a different universe")
            built.append(Edge(len(built), tails, heads, weight))
        self._set_masks(universe, [e.tails.mask for e in built],
                        [e.heads.mask for e in built], [e.weight for e in built])
        self.edges = tuple(built)

    @classmethod
    def from_masks(cls, universe: Universe, tails: Sequence[int], heads: Sequence[int],
                   weights: Sequence[Fraction]) -> "Hypergraph":
        """The hypergraph with edge ``e`` from ``tails[e]`` to ``heads[e]`` at
        ``weights[e]``.  The masks must lie within the universe and the
        weights be non-negative fractions; neither is checked."""
        h = cls.__new__(cls)
        h._set_masks(universe, tails, heads, weights)
        return h

    def _set_masks(self, universe, tails, heads, weights) -> None:
        self.universe = universe
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self.weights = tuple(weights)
        self._kernel = None

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        u = self.universe
        return tuple(
            Edge(e, AttrSet(u, tails), AttrSet(u, heads), weight)
            for e, (tails, heads, weight) in enumerate(zip(self.tails, self.heads, self.weights))
        )

    def __len__(self) -> int:
        return len(self.tails)

    def __repr__(self) -> str:
        return f"Hypergraph({len(self.universe)} vertices, {len(self)} edges)"

    @property
    def all_edges_mask(self) -> int:
        return (1 << len(self.tails)) - 1

    def edge_mask(self, edge_ids: Iterable[int]) -> int:
        n = len(self.tails)
        mask = 0
        for e in edge_ids:
            if not 0 <= e < n:
                raise ValueError(f"edge id {e} out of range")
            mask |= 1 << e
        return mask

    def edge_ids(self, mask: int) -> tuple[int, ...]:
        out = []
        while mask:
            out.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return tuple(out)

    def weight_of(self, edge_ids: Iterable[int]) -> Fraction:
        weights = self.weights
        return sum((weights[e] for e in set(edge_ids) if weights[e].numerator), Fraction(0))

    def closure_kernel(self):
        if self._kernel is None:
            self._kernel = kernels.closure_kernel(self.tails, self.heads, len(self.universe))
        return self._kernel

    @cached_property
    def units(self) -> tuple[int, list[int]]:
        """``formula.in_units`` of the weights: the searches' integer costs."""
        return in_units(self.weights)

    # -- JSON wire format ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.universe.names),
            "edges": [
                {
                    "in": sorted(e.tails),
                    "out": sorted(e.heads),
                    "w": format_budget(e.weight),
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Hypergraph":
        universe = Universe(data["vertices"])
        edges = [
            (spec["in"], spec["out"], parse_budget(str(spec["w"])))
            for spec in data["edges"]
        ]
        return cls(universe, edges)


@dataclass(frozen=True)
class Cut:
    """An ordered partition (left, right) of the vertex set."""

    left: AttrSet
    right: AttrSet

    def __post_init__(self):
        if self.left.universe != self.right.universe:
            raise ValueError("cut sides over different universes")
        if not self.left.isdisjoint(self.right):
            raise ValueError("cut sides overlap")
        if (self.left | self.right) != self.left.universe.full():
            raise ValueError("cut does not cover the vertex set")


@dataclass(frozen=True)
class ClosureTrace:
    """Serialized closure run: sets[0], edges[0], sets[1], ..., sets[-1].

    ``sets[i] | heads(edges[i]) == sets[i+1]`` and every fired edge's tails
    lie in the set it fired from; the final set is the closure.
    """

    sets: tuple[AttrSet, ...]
    edges: tuple[int, ...]

    def final(self) -> AttrSet:
        return self.sets[-1]

    def conditions_hold(self, h: Hypergraph, start: AttrSet, edge_ids: Iterable[int]) -> bool:
        """Mechanical check of the serial-trace conditions."""
        allowed = set(edge_ids)
        if len(self.sets) != len(self.edges) + 1 or not self.sets:
            return False
        if self.sets[0] != start:
            return False
        if len(set(self.edges)) != len(self.edges):
            return False
        for i, e in enumerate(self.edges):
            if e not in allowed:
                return False
            before = self.sets[i].mask
            if h.tails[e] & ~before:
                return False
            if self.sets[i + 1] != AttrSet(h.universe, before | h.heads[e]):
                return False
        return self.sets[-1] == closure(h, start, allowed)


def closure(h: Hypergraph, start: AttrSet, edge_ids: Iterable[int]) -> AttrSet:
    """All vertices reachable from ``start`` by firing edges in ``edge_ids``."""
    mask = h.closure_kernel().closure(h.edge_mask(edge_ids), start.mask)
    return AttrSet(h.universe, mask)


def closure_rounds(h: Hypergraph, start: AttrSet, edge_ids: Iterable[int]) -> AttrSet:
    """Naive round-based fixpoint; reference oracle for the kernels."""
    ids = sorted(set(edge_ids))
    tails, heads = h.tails, h.heads
    current = start.mask
    for _ in range(len(h.universe) + 1):
        nxt = current
        for e in ids:
            if tails[e] & ~current == 0:
                nxt |= heads[e]
        if nxt == current:
            break
        current = nxt
    return AttrSet(h.universe, current)


def closure_trace(h: Hypergraph, start: AttrSet, edge_ids: Iterable[int]) -> ClosureTrace:
    """Deterministic firing sequence reaching the closure.

    Rounds mirror the fixpoint; within a round, edges that became enabled
    (tails reached, heads not yet all reached) fire in ascending id order.
    Each edge fires at most once.
    """
    tails, heads = h.tails, h.heads
    remaining = sorted(set(edge_ids))
    reached = [start.mask]
    fired: list[int] = []
    current = start.mask
    while True:
        ready = [e for e in remaining if not tails[e] & ~current and heads[e] & ~current]
        if not ready:
            break
        for e in ready:
            current |= heads[e]
            fired.append(e)
            reached.append(current)
            remaining.remove(e)
    u = h.universe
    return ClosureTrace((start,) + tuple(AttrSet(u, m) for m in reached[1:]), tuple(fired))


def crossing_edges(h: Hypergraph, cut: Cut) -> frozenset[int]:
    """Edges with every tail in ``cut.left`` and some head in ``cut.right``."""
    left, right = cut.left.mask, cut.right.mask
    return frozenset(
        e for e, (tails, heads) in enumerate(zip(h.tails, h.heads))
        if not tails & ~left and heads & right
    )


def reachability_cut(h: Hypergraph, start: AttrSet, edge_ids: Iterable[int]) -> Cut:
    """Cut (closure, complement); no edge of ``edge_ids`` crosses it."""
    left = closure(h, start, edge_ids)
    return Cut(left, left.complement())
