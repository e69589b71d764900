"""Pure-Python closure kernel.

Counter-based forward closure: each enabled edge keeps the bitmask of its
still-unreached tails; a worklist of newly reached vertices decrements
edges adjacent to them, and an edge fires once its mask empties.  This is
the fallback twin of the compiled kernel in ``budgetfd._closure_c``.
``extend`` grows a set already closed by looking only at the edges with a
tail among the vertices it adds.
"""

from __future__ import annotations

from typing import Sequence


class ClosureKernel:
    is_compiled = False

    def __init__(self, tail_masks: Sequence[int], head_masks: Sequence[int], n_vertices: int):
        self.tails = list(tail_masks)
        self.heads = list(head_masks)
        self.n_vertices = n_vertices
        adjacency: list[list[int]] = [[] for _ in range(n_vertices)]
        for e, tails in enumerate(self.tails):
            m = tails
            while m:
                adjacency[(m & -m).bit_length() - 1].append(e)
                m &= m - 1
        self.adjacency = adjacency

    def closure(self, edge_mask: int, start: int) -> int:
        tails = self.tails
        heads = self.heads
        reached = start
        missing: dict[int, int] = {}
        queue: list[int] = []

        m = edge_mask
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            gap = tails[e] & ~start
            if gap:
                missing[e] = gap
            else:
                new = heads[e] & ~reached
                if new:
                    reached |= new
                    while new:
                        queue.append((new & -new).bit_length() - 1)
                        new &= new - 1

        while queue:
            v = queue.pop()
            for e in self.adjacency[v]:
                gap = missing.get(e)
                if gap is None:
                    continue
                gap &= ~(1 << v)
                if gap:
                    missing[e] = gap
                else:
                    del missing[e]
                    new = heads[e] & ~reached
                    if new:
                        reached |= new
                        while new:
                            queue.append((new & -new).bit_length() - 1)
                            new &= new - 1
        return reached

    def extend(self, edge_mask: int, closed: int, new: int) -> int:
        """``closure(edge_mask, closed | new)`` for ``closed`` closed under
        ``edge_mask``: only edges with a tail outside ``closed`` can fire."""
        tails = self.tails
        heads = self.heads
        adjacency = self.adjacency
        reached = closed | new
        pending = new & ~closed
        while pending:
            low = pending & -pending
            pending ^= low
            for e in adjacency[low.bit_length() - 1]:
                if edge_mask >> e & 1 and not tails[e] & ~reached:
                    fresh = heads[e] & ~reached
                    reached |= fresh
                    pending |= fresh
        return reached
