"""Reference sets used to validate the linkage search.

stabilized_chain_set enumerates every gated reflection sequence literally
(no deduplication of states), which is exponentially slower than the
production BFS; agreement of the two is the package's main self-check and
is exposed behind the CLI's --oracle flag.  It shares the integer
gate-and-move step with the BFS kernel (_purekernel._gated_children); only
the traversal is independent.

dot_orbit is the ungated container of every linkage closure: the orbit of
a weight under the dot action of the Weyl group, found by closing under
the simple reflections without enumerating the group itself.
"""

from __future__ import annotations

from ._purekernel import _gated_children
from .errors import OrbitGuardExceeded
from .linkage import DEFAULT_ORBIT_GUARD
from .rootsys import root_tables
from .weights_chars import (
    LocAnChar,
    WeightL,
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
        level = [child for state in level for _s, _r, child in _gated_children(state, *step)]
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
    reflections visits exactly the orbit.  Central blocks ride along
    unchanged.  Raises OrbitGuardExceeded as soon as one embedding's
    orbit or the running product exceeds ``size_guard``.
    """
    ctx = lam.context
    rank = ctx.rank
    cartan = ctx.base.cartan
    columns = [tuple(cartan[j][i] for j in range(rank)) for i in range(rank)]
    dens, flat = integer_encoding(lam)
    centrals = tuple(lam.central(s) for s in range(ctx.num_embeddings))
    product: list[tuple[int, ...]] = [()]
    for sigma, d in enumerate(dens):
        start = tuple(x + d for x in flat[sigma * rank : (sigma + 1) * rank])
        seen = {start}
        orbit = [start]
        for m in orbit:  # grows while it is walked: breadth-first
            for i in range(rank):
                mi = m[i]
                if mi == 0:
                    continue  # s_i fixes m
                nxt = tuple(a - mi * c for a, c in zip(m, columns[i]))
                if nxt not in seen:
                    if len(seen) >= size_guard:
                        raise OrbitGuardExceeded(
                            f"dot orbit of embedding {sigma} exceeds size guard {size_guard}"
                        )
                    seen.add(nxt)
                    orbit.append(nxt)
        if len(product) * len(orbit) > size_guard:
            raise OrbitGuardExceeded(
                f"dot orbit product over embeddings 0..{sigma} "
                f"({len(product)} x {len(orbit)}) exceeds size guard {size_guard}"
            )
        block = [tuple(x - d for x in m) for m in orbit]
        product = [p + b for p in product for b in block]
    return frozenset(from_integer_encoding(ctx, dens, st, centrals) for st in product)
