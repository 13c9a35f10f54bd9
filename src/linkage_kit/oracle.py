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
a weight under the dot action of the Weyl group: the product of the
per-embedding closures of linkage._embedding_closures under the kernel's
orbit gates, found without enumerating the group itself.
"""

from __future__ import annotations

import itertools
from functools import partial

from .linkage import DEFAULT_ORBIT_GUARD, _embedding_closures
from .weights_chars import (
    LocAnChar,
    WeightL,
    _weight_unchecked,
    check_convention,
    from_integer_encoding,
    integer_encoding,
)


def _gated_children(rs, dens, shifted, state):
    """Yield (global root index, child state) for every dominance-gated dot
    reflection that moves the scaled-integer state (one block of root
    system rs per denominator in dens); the index of root r in embedding
    sigma is sigma * nroots + r."""
    rank, coroots, fund, heights = rs.rank, rs.coroot_coeffs, rs.root_fund, rs.coroot_heights
    nroots = len(heights)
    for sigma, d in enumerate(dens):
        base = sigma * rank
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


def stabilized_chain_set(chi: LocAnChar, convention: str) -> frozenset[LocAnChar]:
    """Endpoints of every gated reflection sequence from chi, chi included.

    Level d holds the endpoint of each gated sequence of length d, one
    entry per sequence, and level d+1 extends every entry by one gated
    step.  The enumeration stops at the first level adding no new
    endpoint: every longer sequence factors through a shorter endpoint,
    so no later level can add one either.  It always stops, because every
    sequence is finite: each gated step subtracts a positive multiple of a
    positive root from one component, which stays in its finite dot orbit."""
    check_convention(convention)
    ctx = chi.algebraic.context
    dens, start = integer_encoding(chi.algebraic)
    centrals = tuple(chi.algebraic.central(s) for s in range(ctx.num_embeddings))
    step = partial(_gated_children, ctx.base, dens, convention == "shifted")
    level = [tuple(start)]
    endpoints = set(level)
    while True:
        level = [child for state in level for _label, child in step(state)]
        before = len(endpoints)
        endpoints.update(level)
        if len(endpoints) == before:
            break
    return frozenset(
        LocAnChar(from_integer_encoding(ctx, dens, st, centrals), chi.smooth_tag)
        for st in endpoints
    )


def dot_orbit(lam: WeightL, *, size_guard: int = DEFAULT_ORBIT_GUARD) -> frozenset[WeightL]:
    """Full dot orbit of a weight, as the product of per-embedding orbits.

    Each embedding's block is closed under the kernel's orbit gates (every
    simple reflection that moves it), which visits exactly its orbit.
    Repeated blocks are searched once; central blocks ride along
    unchanged.  Raises OrbitGuardExceeded as soon as one embedding's
    orbit or the running product exceeds ``size_guard``.
    """
    closures = _embedding_closures(lam, None, size_guard)
    return frozenset(
        _weight_unchecked(lam.context, rows)
        for rows in itertools.product(*(rows for rows, _, _ in closures))
    )
