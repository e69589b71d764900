"""Pure-Python closure kernel, the twin of the compiled one in
``budgetfd._closure_c``.

One worklist algorithm: ``extend`` grows a set already closed by looking
only at the edges with a tail among the vertices it adds.  ``closure`` is
``extend`` from the empty set, which is closed under every edge with a tail,
once the tail-less edges have fired.  Start vertices at or above
``n_vertices`` stay in the result but have no out-edges.
"""

from __future__ import annotations

from typing import Sequence


class ClosureKernel:
    is_compiled = False

    def __init__(self, tail_masks: Sequence[int], head_masks: Sequence[int], n_vertices: int):
        if len(tail_masks) != len(head_masks):
            raise ValueError("tail/head lists differ in length")
        self.heads = list(head_masks)
        self.vertices = (1 << n_vertices) - 1
        self.tailless = sum(1 << e for e, tails in enumerate(tail_masks) if not tails)
        # vertex -> (edge bit, tail mask, head mask) of each edge with that tail
        adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(n_vertices)]
        for e, (tails, heads) in enumerate(zip(tail_masks, self.heads)):
            m = tails
            while m:
                adjacency[(m & -m).bit_length() - 1].append((1 << e, tails, heads))
                m &= m - 1
        self.adjacency = adjacency

    def closure(self, edge_mask: int, start: int) -> int:
        heads = self.heads
        fire = edge_mask & self.tailless
        while fire:
            low = fire & -fire
            fire ^= low
            start |= heads[low.bit_length() - 1]
        return self.extend(edge_mask, 0, start)

    def extend(self, edge_mask: int, closed: int, new: int) -> int:
        """``closure(edge_mask, closed | new)`` for ``closed`` closed under
        ``edge_mask``: only edges with a tail outside ``closed`` can fire."""
        adjacency = self.adjacency
        reached = closed | new
        pending = new & ~closed & self.vertices
        while pending:
            low = pending & -pending
            pending ^= low
            for bit, tails, heads in adjacency[low.bit_length() - 1]:
                if edge_mask & bit and not tails & ~reached:
                    fresh = heads & ~reached
                    reached |= fresh
                    pending |= fresh
        return reached
