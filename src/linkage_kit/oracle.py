"""Reference sets and the certificates used to validate the linkage search.

stabilized_chain_set walks the gated reflection sequences level by level:
level d is the set of endpoints of the gated sequences of length d.
Unlike the production BFS, it does not deduplicate across levels, so a
state reached at several depths is expanded at each of them; every level
is a subset of the closure, so memory is bounded by the closure size.  Its
agreement with the BFS is the package's main self-check, exposed behind
the CLI's --oracle flag (which runs it after the guarded closure, so the
guard bounds its levels too).  A state is one scaled-integer block per
embedding in the kernel's row encoding (weights_chars.encode_row and
decode_block), but the gate-and-move step (_gated_children) is its own:
it computes every pairing as a dot product with a coroot and moves the
unshifted block along the root, while the kernel reads pairings and
children off signed permutations of the coroots.

verify_closure (closures and candidate sets) and verify_orbit (dot
orbits) certify a result through the Fraction-level primitives only, never
through the search kernel.  They rest on the theorem in linkage's
docstring: a reflection at (sigma, r) reads and writes only component
sigma.  So each embedding's factor is found by closing the origin's
sigma-row under the sigma-links with the other components held at the
origin's, recording each link; a result must be exactly the product of
its (filtered) factors, and every witness chain must walk recorded links
from the origin to its member.  Rows are looked up by weights_chars.row_key,
which hashes ints rather than Fractions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import partial
from math import prod

from .linkage import LinkageChain, LinkageResult
from .parabolic import row_in_lambda_p_plus
from .weights_chars import (
    EmbeddingContext,
    GlobalRoot,
    LocAnChar,
    WeightL,
    _weight_unchecked,
    check_convention,
    decode_block,
    dot_reflect,
    encode_row,
    is_alpha_dominant,
    row_key,
)


def _gated_children(rs, dens, shifted, state):
    """Yield (global root index, child state) for every dominance-gated dot
    reflection that moves the state, a tuple of scaled-integer blocks of
    root system rs, one per denominator in dens; the index of root r in
    embedding sigma is sigma * nroots + r."""
    coroots, fund, heights = rs.coroot_coeffs, rs.root_fund, rs.coroot_heights
    nroots = len(heights)
    for sigma, (d, block) in enumerate(zip(dens, state)):
        for r in range(nroots):
            num = sum(k * x for k, x in zip(coroots[r], block))
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
            step = coeff * d
            child = list(state)
            child[sigma] = tuple([x - step * f for x, f in zip(block, fund[r])])
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
    lam = chi.algebraic
    ctx = lam.context
    dens, start = zip(*(encode_row(lam.semisimple(s)) for s in range(ctx.num_embeddings)))
    centrals = [lam.central(s) for s in range(ctx.num_embeddings)]
    step = partial(_gated_children, ctx.base, dens, convention == "shifted")
    level = {start}
    endpoints = set(level)
    while True:
        level = {child for state in level for _, child in step(state)}
        if level <= endpoints:
            break
        endpoints |= level

    def decode(state):
        rows = (decode_block(d, block) + c for d, block, c in zip(dens, state, centrals))
        return LocAnChar(_weight_unchecked(ctx, tuple(rows)), chi.smooth_tag)

    return frozenset(map(decode, endpoints))


# moves(weight, sigma) yields (root index, moved weight) for every link out
# of the weight that moves its sigma-row
_Moves = Callable[[WeightL, int], Iterator[tuple[int, WeightL]]]


def _gated_moves(tag: str, convention: str, lam: WeightL, sigma: int):
    """The linkage links: every dominance-gated dot reflection at a root of
    embedding sigma that moves the weight."""
    chi = LocAnChar(lam, tag)
    row = lam.components[sigma]
    for r in range(lam.context.base.num_positive):
        root = GlobalRoot(sigma, r)
        if is_alpha_dominant(chi, root, convention):
            moved = dot_reflect(lam, root)
            if moved.components[sigma] != row:
                yield r, moved


def _simple_moves(lam: WeightL, sigma: int):
    """The orbit links: every simple dot reflection of embedding sigma that
    moves the weight (the simple roots are positive roots 0 .. rank-1)."""
    row = lam.components[sigma]
    for i in range(lam.context.rank):
        moved = dot_reflect(lam, GlobalRoot(sigma, i))
        if moved.components[sigma] != row:
            yield i, moved


def _factor(lam: WeightL, sigma: int, moves: _Moves):
    """Closure of lam's sigma-row under ``moves``, the other rows held at
    lam's: the rows in discovery order (lam's first), each row's key to its
    number, and the recorded links (row number, root index) -> row number."""
    rows = [lam.components[sigma]]
    numbers = {row_key(rows[0]): 0}
    links: dict[tuple[int, int], int] = {}
    weights = [lam]
    for n, weight in enumerate(weights):  # grows while it is walked
        for r, moved in moves(weight, sigma):
            row = moved.components[sigma]
            key = row_key(row)
            m = numbers.get(key)
            if m is None:
                m = numbers[key] = len(rows)
                rows.append(row)
                weights.append(moved)
            links[n, r] = m
    return rows, numbers, links


def _row_numbers(lam: WeightL, ctx: EmbeddingContext, numbers: list[dict]) -> list[int] | None:
    """The number of each of lam's rows in its embedding's factor, or None
    when lam is not in the product of the factors ``numbers``."""
    if lam.context != ctx or len(lam.components) != len(numbers):
        return None
    out = []
    for row, index in zip(lam.components, numbers):
        n = index.get(row_key(row))
        if n is None:
            return None
        out.append(n)
    return out


def _replay(chain: LinkageChain, origin: LocAnChar, factors: list) -> list[int] | None:
    """The row numbers the chain ends at, walking from the origin's (all 0),
    or None unless every step is a recorded link of its embedding onto the
    recorded character: that embedding's row moved, the rest and the tag
    kept."""
    at = [0] * len(factors)
    current = origin.algebraic.components
    for root, to in chain.steps:
        sigma = root.sigma
        if not 0 <= sigma < len(factors):
            return None
        _, numbers, links = factors[sigma]
        n = links.get((at[sigma], root.root_index))
        rows = to.algebraic.components
        if (
            n is None
            or to.smooth_tag != origin.smooth_tag
            or to.algebraic.context != origin.algebraic.context
            or len(rows) != len(current)
            or numbers.get(row_key(rows[sigma])) != n
            or rows[:sigma] != current[:sigma]
            or rows[sigma + 1 :] != current[sigma + 1 :]
        ):
            return None
        at[sigma] = n
        current = rows
    return at


def verify_closure(result: LinkageResult) -> bool:
    """Whether ``result`` is exactly what it claims, checked through the
    Fraction-level primitives only: a strong-linkage closure
    (``strongly_linked_set``) or, for a non-empty ``result.parabolic``,
    the closure's members whose every row passes ``row_in_lambda_p_plus``
    (``verma_factor_candidates``).

    For each embedding sigma the origin's sigma-row is closed under the
    gated moving reflections at the roots of sigma, the other components
    held at the origin's, and each link is recorded.  Three checks follow:
    every member has the origin's tag and its rows in the filtered
    factors; the member count is the product of the filtered factor
    sizes, so the members are exactly that product; and every member's
    witness chain starts at the origin, steps only along recorded links
    and ends at the member.  A malformed result (a missing chain, a root
    or a parabolic index outside the context) gives False, not an error."""
    origin, members, parabolic = result.origin, result.members, result.parabolic
    lam = origin.algebraic
    ctx = lam.context
    if origin not in members or not parabolic <= frozenset(range(ctx.rank)):
        return False
    moves = partial(_gated_moves, origin.smooth_tag, result.convention)
    factors = [_factor(lam, sigma, moves) for sigma in range(ctx.num_embeddings)]
    kept = [
        {key: n for key, n in numbers.items() if row_in_lambda_p_plus(rows[n], parabolic)}
        for rows, numbers, _ in factors
    ]
    if len(members) != prod(map(len, kept)):
        return False
    for member in members:
        if member.smooth_tag != origin.smooth_tag:
            return False
        end = _row_numbers(member.algebraic, ctx, kept)
        chain = result.witness.get(member)
        if end is None or chain is None or _replay(chain, origin, factors) != end:
            return False
    return True


def verify_orbit(lam: WeightL, orbit: frozenset[WeightL]) -> bool:
    """Whether ``orbit`` is exactly the dot orbit of lam (as ``dot_orbit``
    returns it), checked through the Fraction-level dot reflection only.

    For each embedding sigma, lam's sigma-row is closed under the simple
    dot reflections of sigma that move it (which generate that
    embedding's Weyl group), the other components held at lam's.  The
    orbit must have exactly the product of the factor sizes as members,
    each with its rows in the factors."""
    ctx = lam.context
    numbers = [_factor(lam, sigma, _simple_moves)[1] for sigma in range(ctx.num_embeddings)]
    if len(orbit) != prod(map(len, numbers)):
        return False
    return all(_row_numbers(w, ctx, numbers) is not None for w in orbit)
