"""Reference sets used to validate the linkage search.

stabilized_chain_set enumerates every gated reflection sequence literally
(no deduplication of states), which is exponentially slower than the
production BFS; agreement of the two is the package's main self-check and
is exposed behind the CLI's --oracle flag.  It shares the integer
gate-and-move step with the BFS kernel (_purekernel._gated_children); only
the traversal is independent.

dot_orbit is the ungated container of every linkage closure: the orbit of
a weight under the dot action of the Weyl group, found by closing under
the simple reflections without enumerating the group itself, on the
closure engine: linkage._embedding_closures driving _purekernel.bfs.
"""

from __future__ import annotations

import itertools

from ._purekernel import _gated_children, bfs
from .linkage import DEFAULT_ORBIT_GUARD, _embedding_closures
from .rootsys import root_tables
from .weights_chars import (
    LocAnChar,
    WeightL,
    _weight_unchecked,
    check_convention,
    from_integer_encoding,
    integer_encoding,
)


def stabilized_chain_set(
    chi: LocAnChar, convention: str, *, max_depth: int = 128
) -> frozenset[LocAnChar]:
    """Endpoints of every gated reflection sequence from chi, chi included.

    Level d holds the endpoint of each gated sequence of length d, one
    entry per sequence, and level d+1 extends every entry by one gated
    step.  The enumeration stops at the first level adding no new
    endpoint: every longer sequence factors through a shorter endpoint,
    so no later level can add one either.  Raises RuntimeError if level
    max_depth still adds endpoints."""
    check_convention(convention)
    ctx = chi.algebraic.context
    coroots, fund, heights = root_tables(ctx.base)
    dens, start = integer_encoding(chi.algebraic)
    centrals = tuple(chi.algebraic.central(s) for s in range(ctx.num_embeddings))
    step = (ctx.num_embeddings, ctx.rank, coroots, fund, heights, dens, convention == "shifted")
    level = [tuple(start)]
    endpoints = set(level)
    for _ in range(max_depth):
        level = [child for state in level for _label, child in _gated_children(*step, state)]
        before = len(endpoints)
        endpoints.update(level)
        if len(endpoints) == before:
            return frozenset(
                LocAnChar(from_integer_encoding(ctx, dens, st, centrals), chi.smooth_tag)
                for st in endpoints
            )
    raise RuntimeError(f"chain enumeration did not stabilize within depth {max_depth}")


def dot_orbit(lam: WeightL, *, size_guard: int = DEFAULT_ORBIT_GUARD) -> frozenset[WeightL]:
    """Full dot orbit of a weight, as the product of per-embedding orbits.

    Each embedding's block is encoded as scaled integers (denominator D)
    and shifted by rho, which is D in every coordinate; there the dot
    action of s_i is linear and subtracts m_i times column i of the
    Cartan matrix, so a breadth-first closure under the simple
    reflections visits exactly the orbit.  Repeated blocks are searched
    once; central blocks ride along unchanged.  Raises OrbitGuardExceeded
    as soon as one embedding's orbit or the running product exceeds
    ``size_guard``.
    """
    ctx = lam.context
    columns = list(zip(*ctx.base.cartan))

    def reflections(m):
        for i, column in enumerate(columns):
            mi = m[i]
            if mi:  # s_i fixes m when m_i == 0
                yield i, tuple(a - mi * c for a, c in zip(m, column))

    def search(block, d):
        states, parent_state, parent_label = bfs(tuple(x + d for x in block), reflections, size_guard)
        return [tuple(x - d for x in m) for m in states], parent_state, parent_label

    closures = _embedding_closures(lam, search, size_guard)
    return frozenset(
        _weight_unchecked(ctx, rows) for rows in itertools.product(*(rows for rows, _, _ in closures))
    )
