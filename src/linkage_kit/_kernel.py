"""Kernel selection: compiled extension when available, pure Python otherwise.

Individual calls also fall back transparently when the compiled kernel
reports that an input is outside its 64-bit integer range.
"""

from __future__ import annotations

from . import _purekernel

try:
    from . import _speedups as _fast
except ImportError:
    _fast = None

IMPLEMENTATION = "cython" if _fast is not None else "python"


def linkage_bfs(num_embeddings, rank, coroots, fund, heights, dens, start, shifted, guard):
    if _fast is not None:
        try:
            return _fast.linkage_bfs(
                num_embeddings, rank, coroots, fund, heights, dens, start, shifted, guard
            )
        except _fast.KernelOverflow:
            pass
    return _purekernel.linkage_bfs(
        num_embeddings, rank, coroots, fund, heights, dens, start, shifted, guard
    )
