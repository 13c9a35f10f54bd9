"""Reference sets used to validate the linkage search.

stabilized_chain_set enumerates every gated reflection sequence literally
(no deduplication of states), which is exponentially slower than the
production BFS; agreement of the two is the package's main self-check and
is exposed behind the CLI's --oracle flag.  Its gate-and-move step
(_gated_children) is its own: it computes every pairing as a dot product
with a coroot and moves the unshifted state along the root, while the
kernel reads pairings and children off signed permutations of the
coroots.

dot_orbit is the ungated container of every linkage closure: the orbit of
a weight under the dot action of the Weyl group, found by closing under
the simple reflections without enumerating the group itself, on the
closure engine: linkage._embedding_closures driving _kernel.bfs over
the kernel's reflection step.
"""

from __future__ import annotations

import itertools
from functools import partial

from ._kernel import bfs, reflection_children, reflection_table
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


def _gated_children(num_embeddings, rank, coroots, fund, heights, dens, shifted, state):
    """Yield (global root index, child state) for every dominance-gated dot
    reflection that moves the scaled-integer state; the index of root r in
    embedding sigma is sigma * nroots + r."""
    nroots = len(heights)
    for sigma in range(num_embeddings):
        base = sigma * rank
        d = dens[sigma]
        for r in range(nroots):
            k = coroots[r]
            num = sum(k[i] * state[base + i] for i in range(rank))
            if num % d:
                continue  # pairing not an integer
            if shifted:
                if num + d * heights[r] <= 0:
                    continue
            elif num < 0:
                continue
            coeff = num // d + heights[r]
            if coeff == 0:
                continue
            f = fund[r]
            child = list(state)
            for i in range(rank):
                child[base + i] -= coeff * d * f[i]
            yield sigma * nroots + r, tuple(child)


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
    action of s_i is linear and moves the block unless its i-th
    coordinate is 0, so a breadth-first closure under the simple
    reflections visits exactly the orbit.  Its step is the kernel's
    reflection step with one gate per simple root and no integrality
    gate.  Repeated blocks are searched once; central blocks ride along
    unchanged.  Raises OrbitGuardExceeded as soon as one embedding's
    orbit or the running product exceeds ``size_guard``.
    """
    ctx = lam.context
    coroots, fund, _heights = root_tables(ctx.base)
    table = reflection_table(coroots, fund)
    nroots = len(table.position)
    # s_i moves the shifted block exactly when q_i != 0, that is when
    # E[i] >= 1 or E[nroots + i] >= 1; simple coroot i sits at place i
    gates = [(i, at, 1, table.picks[i]) for i in range(ctx.rank) for at in (i, nroots + i)]
    children = partial(reflection_children, table.sums, gates, 1)

    def search(block, d):
        states, parent_state, parent_label = bfs(tuple(x + d for x in block), children, size_guard)
        return [tuple(x - d for x in m) for m in states], parent_state, parent_label

    closures = _embedding_closures(lam, search, size_guard)
    return frozenset(
        _weight_unchecked(ctx, rows) for rows in itertools.product(*(rows for rows, _, _ in closures))
    )
