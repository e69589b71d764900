"""Closure-kernel selection: the compiled extension when it is built and the
instance fits its 64-vertex, 64-edge arrays, the pure-Python kernel otherwise.

Both kernels run one worklist algorithm and answer ``closure(edge_mask,
start)`` and ``extend(edge_mask, closed, new)``, the closure of ``closed |
new`` for a ``closed`` already closed under ``edge_mask``."""

from __future__ import annotations

from typing import Sequence

from . import _closure_py

try:
    from . import _closure_c
except ImportError:  # extension not built; pure fallback only
    _closure_c = None


def compiled_available() -> bool:
    return _closure_c is not None


def closure_kernel(tail_masks: Sequence[int], head_masks: Sequence[int], n_vertices: int):
    """Build a closure kernel answering ``closure`` and ``extend``."""
    if _closure_c is not None and n_vertices <= 64 and len(tail_masks) <= 64:
        return _closure_c.ClosureKernel(tail_masks, head_masks, n_vertices)
    return _closure_py.ClosureKernel(tail_masks, head_masks, n_vertices)
