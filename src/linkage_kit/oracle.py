"""Reference sets used to validate the linkage search.

linkage_by_chains enumerates every gated reflection sequence literally
(no deduplication of states), which is exponentially slower than the
production BFS and shares nothing with it beyond the weight/reflection
primitives; agreement of the two is the package's main self-check and is
exposed behind the CLI's --oracle flag.

dot_orbit is the ungated container of every linkage closure: the orbit of
a weight under the dot action of the Weyl group, found by closing under
the simple reflections without enumerating the group itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernel
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


@dataclass(frozen=True)
class OracleConfig:
    max_chain_length: int
    convention: str

    def __post_init__(self):
        if self.max_chain_length < 1:
            raise ValueError("max_chain_length must be >= 1")
        check_convention(self.convention)


def linkage_by_chains(chi: LocAnChar, cfg: OracleConfig) -> frozenset[LocAnChar]:
    """Endpoints of all gated reflection sequences of length up to
    cfg.max_chain_length, plus chi itself.

    Once the depth covers the longest gated chain this is the full
    strong-linkage set; see stabilized_chain_set for depth selection."""
    ctx = chi.algebraic.context
    coroots, fund, heights = root_tables(ctx.base)
    dens, start = integer_encoding(chi.algebraic)
    centrals = tuple(chi.algebraic.central(s) for s in range(ctx.num_embeddings))
    endpoints = _kernel.chain_endpoints(
        ctx.num_embeddings,
        ctx.rank,
        coroots,
        fund,
        heights,
        dens,
        start,
        cfg.convention == "shifted",
        cfg.max_chain_length,
    )
    return frozenset(
        LocAnChar(from_integer_encoding(ctx, dens, st, centrals), chi.smooth_tag)
        for st in endpoints
    )


def stabilized_chain_set(
    chi: LocAnChar, convention: str, *, max_depth: int = 128
) -> frozenset[LocAnChar]:
    """Run linkage_by_chains at depths d and d+1 until the two agree.

    The endpoint set is monotone in depth, and a depth adding nothing new
    can never add anything later (every longer sequence factors through a
    shorter endpoint), so equality certifies stabilization."""
    depth = 1
    prev = linkage_by_chains(chi, OracleConfig(depth, convention))
    while depth < max_depth:
        cur = linkage_by_chains(chi, OracleConfig(depth + 1, convention))
        if cur == prev:
            return cur
        prev = cur
        depth += 1
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
