"""Reference sets and the closure certificate used to validate the linkage
search.

stabilized_chain_set walks the gated reflection sequences level by level:
level d is the set of endpoints of the gated sequences of length d.
Unlike the production BFS, it does not deduplicate across levels, so a
state reached at several depths is expanded at each of them; every level
is a subset of the closure, so memory is bounded by the closure size.  Its
agreement with the BFS is the package's main self-check, exposed behind
the CLI's --oracle flag (which runs it after the guarded closure, so the
guard bounds its levels too).  Its gate-and-move step (_gated_children) is
its own: it computes every pairing as a dot product with a coroot and
moves the unshifted state along the root, while the kernel reads pairings
and children off signed permutations of the coroots.

verify_closure certifies a closure without the integer kernels: the
witness chains replay through the Fraction-level dominance gate and dot
reflection, and the member set is closed under every gated link.

dot_orbit is the ungated container of every linkage closure: the orbit of
a weight under the dot action of the Weyl group: the product of the
per-embedding closures of linkage._embedding_closures under the kernel's
orbit gates, found without enumerating the group itself.
"""

from __future__ import annotations

import itertools
from functools import partial

from .errors import LinkageKitError
from .linkage import DEFAULT_ORBIT_GUARD, LinkageResult, _embedding_closures, up_link_candidates
from .weights_chars import (
    LocAnChar,
    WeightL,
    _weight_unchecked,
    check_convention,
    dot_reflect_char,
    from_integer_encoding,
    integer_encoding,
    is_alpha_dominant,
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

    Level d is the set of endpoints of the gated sequences of length d,
    and level d+1 is the set of gated children of its states.  The walk
    stops at the first level adding no new endpoint: every longer
    sequence factors through a shorter endpoint, so no later level can
    add one either.  It always stops, because every sequence is finite:
    each gated step subtracts a positive multiple of a positive root from
    one component, which stays in its finite dot orbit.  Every level is a
    subset of the closure, so memory is bounded by the closure size; the
    time is about the closure size times the longest sequence, since a
    state reached at several depths is expanded at each of them."""
    check_convention(convention)
    ctx = chi.algebraic.context
    dens, start = integer_encoding(chi.algebraic)
    centrals = tuple(chi.algebraic.central(s) for s in range(ctx.num_embeddings))
    step = partial(_gated_children, ctx.base, dens, convention == "shifted")
    level = {start}
    endpoints = set(level)
    while True:
        level = {child for state in level for _, child in step(state)}
        if level <= endpoints:
            break
        endpoints |= level
    return frozenset(
        LocAnChar(from_integer_encoding(ctx, dens, st, centrals), chi.smooth_tag)
        for st in endpoints
    )


def verify_closure(result: LinkageResult) -> bool:
    """Whether ``result.members`` is exactly the closure of its origin,
    checked through the Fraction-level primitives only.

    Three checks: the origin is a member; every member's witness chain
    replays from the origin through gated dot reflections that move, step
    by step onto the recorded characters, and ends at the member; and
    every gated link out of every member lands on a member.  The chains
    put the members inside the closure, and closedness puts the closure
    inside the members.  A malformed result (a missing chain, a root
    outside the context) gives False, not an error."""
    origin, members, convention = result.origin, result.members, result.convention
    if origin not in members:
        return False
    for member in members:
        chain = result.witness.get(member)
        if chain is None:
            return False
        cur = origin
        for root, to in chain.steps:
            try:
                if not is_alpha_dominant(cur, root, convention):
                    return False
                nxt = dot_reflect_char(cur, root)
            except LinkageKitError:  # a root outside the context
                return False
            if nxt == cur or nxt != to:
                return False
            cur = nxt
        if cur != member:
            return False
        if any(child not in members for _, child in up_link_candidates(member, convention)):
            return False
    return True


def dot_orbit(lam: WeightL, *, guard: int = DEFAULT_ORBIT_GUARD) -> frozenset[WeightL]:
    """Full dot orbit of a weight, as the product of per-embedding orbits.

    Each embedding's block is closed under the kernel's orbit gates (every
    simple reflection that moves it), which visits exactly its orbit.
    Repeated blocks are searched once; central blocks ride along
    unchanged.  Raises OrbitGuardExceeded as soon as one embedding's
    orbit or the running product exceeds ``guard``.
    """
    closures = _embedding_closures(lam, None, guard)
    return frozenset(
        _weight_unchecked(lam.context, rows)
        for rows in itertools.product(*(rows for rows, _, _ in closures))
    )
