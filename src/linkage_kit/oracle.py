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
unshifted block along the root, both over the nonzero entries of the
root system's sparse form, while the kernel reads pairings and children
off signed permutations of the coroots.  The CLI compares on the
oracle's integer states (_states_agree): it filters the level walk's
states by the parabolic in integers and encodes the printed members with
the origin's denominators, so no state is decoded.

verify_closure (closures and candidate sets) and verify_orbit (dot
orbits) certify a result without the search kernel: they close each
factor on the oracle's integer step.  They rest on the theorem in
linkage's docstring: a reflection at (sigma, r) reads and writes only
component sigma.  So each embedding's factor is found by closing the
origin's sigma-row under the sigma-links with the other components held
at the origin's, recording each link; a result must be exactly the
product of its (filtered) factors, and every witness chain must walk
recorded links from the origin to its member.  Rows are looked up by
weights_chars.row_key, which hashes ints rather than Fractions.
"""

from __future__ import annotations

from functools import partial
from math import prod

from .linkage import LinkageChain, LinkageResult
from .parabolic import row_in_lambda_p_plus
from .weights_chars import (
    EmbeddingContext,
    LocAnChar,
    WeightL,
    _weight_unchecked,
    check_convention,
    decode_block,
    encode_row,
    row_key,
)


def _gated_children(rs, dens, convention, state):
    """Yield (global root index, child state) for every gated dot
    reflection that moves the state, a tuple of scaled-integer blocks of
    root system rs, one per denominator in dens; the index of root r in
    embedding sigma is sigma * nroots + r.  The gates are the linkage
    gates of convention "paper" or "shifted", or for None the orbit gates:
    every simple root (positive roots 0 .. rank-1), with no integrality
    test.  Pairings and moves read only the nonzero entries of the coroot
    and root rows (rs._nonzeros)."""
    nonzeros, heights = rs._nonzeros, rs.coroot_heights
    nroots = len(heights)
    roots = range(rs.rank if convention is None else nroots)
    shifted = convention == "shifted"
    for sigma, (d, block) in enumerate(zip(dens, state)):
        for r in roots:
            coroot, root = nonzeros[r]
            num = 0
            for i, k in coroot:
                num += k * block[i]
            step = num + d * heights[r]  # d times the rho-shifted pairing
            if convention is not None:
                if d != 1 and num % d:
                    continue  # pairing not an integer
                if step <= 0 if shifted else num < 0:
                    continue
            if step == 0:
                continue
            moved = list(block)
            for i, f in root:
                moved[i] -= step * f
            child = list(state)
            child[sigma] = tuple(moved)
            yield sigma * nroots + r, tuple(child)


def _chain_states(lam: WeightL, convention: str):
    """The level walk of stabilized_chain_set on scaled-integer states:
    (dens, start, endpoints), with dens the denominator of each of lam's
    semisimple rows, start lam's state and endpoints the set of states
    (start included)."""
    dens, start = zip(*(encode_row(lam.semisimple(s)) for s in range(lam.context.num_embeddings)))
    step = partial(_gated_children, lam.context.base, dens, convention)
    level = {start}
    endpoints = set(level)
    while True:
        level = {child for state in level for _, child in step(state)}
        if level <= endpoints:
            break
        endpoints |= level
    return dens, start, endpoints


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
    dens, _, endpoints = _chain_states(lam, convention)
    centrals = [lam.central(s) for s in range(ctx.num_embeddings)]

    def decode(state):
        rows = (decode_block(d, block) + c for d, block, c in zip(dens, state, centrals))
        return LocAnChar(_weight_unchecked(ctx, tuple(rows)), chi.smooth_tag)

    return frozenset(map(decode, endpoints))


def _states_agree(chi, convention, indices, members, drop_origin) -> tuple[bool, int]:
    """The CLI's --oracle check, on the oracle's integer states: whether
    ``members`` (the production closure, candidate set or obstruction
    list of chi, a collection of LocAnChar) are exactly the endpoints of
    stabilized_chain_set whose rows pass row_in_lambda_p_plus for the
    parabolic ``indices`` (0-based), without chi's own when drop_origin;
    and how many such endpoints there are.

    Nothing is decoded.  The filter reads each state in integers (b[i]
    divisible by d and >= 0).  A member with chi's context, smooth tag and
    central blocks, whose denominators divide chi's d of each embedding,
    is encoded with those d; any other member cannot be an endpoint.  The
    two state sets are compared, and the member count too, so that a
    repeated member disagrees."""
    check_convention(convention)
    lam = chi.algebraic
    ctx = lam.context
    dens, start, endpoints = _chain_states(lam, convention)
    if indices:
        endpoints = {
            state
            for state in endpoints
            if all(b[i] % d == 0 and b[i] >= 0 for d, b in zip(dens, state) for i in indices)
        }
    if drop_origin:
        endpoints.discard(start)
    rank, tag = ctx.rank, chi.smooth_tag
    per_row = list(zip(dens, (lam.central(s) for s in range(ctx.num_embeddings))))

    def encode(m):
        if m.smooth_tag != tag or m.algebraic.context != ctx:
            return None
        state = []
        for (d, central), row in zip(per_row, m.algebraic.components):
            if row[rank:] != central or any(d % x.denominator for x in row[:rank]):
                return None
            state.append(tuple([x.numerator * (d // x.denominator) for x in row[:rank]]))
        return tuple(state)

    states = set(map(encode, members))
    return len(states) == len(members) and states == endpoints, len(endpoints)


def _factor(lam: WeightL, sigma: int, convention: str | None):
    """Closure of lam's sigma-row under the gated reflections of embedding
    sigma (_gated_children's gates for ``convention``), the other rows held
    at lam's: the rows in discovery order (lam's first), each row's key to
    its number, and the recorded links (row number, root index) -> row
    number."""
    d, block = encode_row(lam.semisimple(sigma))
    step = partial(_gated_children, lam.context.base, (d,), convention)
    index = {(block,): 0}
    states = [(block,)]
    links: dict[tuple[int, int], int] = {}
    for n, state in enumerate(states):  # grows while it is walked
        for r, child in step(state):
            m = index.get(child)
            if m is None:
                m = index[child] = len(states)
                states.append(child)
            links[n, r] = m
    central = lam.central(sigma)
    rows = [decode_block(d, nums) + central for (nums,) in states]
    return rows, {row_key(row): n for n, row in enumerate(rows)}, links


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
    """Whether ``result`` is exactly what it claims, checked without the
    search kernel: a strong-linkage closure (``strongly_linked_set``) or,
    for a non-empty ``result.parabolic``, the closure's members whose
    every row passes ``row_in_lambda_p_plus`` (``verma_factor_candidates``).

    For each embedding sigma the origin's sigma-row is closed under the
    gated moving reflections at the roots of sigma, on the oracle's
    integer step, the other components held at the origin's, and each
    link is recorded.  Three checks follow: every member has the origin's
    tag and its rows in the filtered factors; the member count is the
    product of the filtered factor sizes, so the members are exactly that
    product; and every member's witness chain starts at the origin, steps
    only along recorded links and ends at the member.  A malformed result (a missing chain, a root
    or a parabolic index outside the context) gives False, not an error;
    a convention other than "paper" or "shifted" raises ValueError."""
    check_convention(result.convention)
    origin, members, parabolic = result.origin, result.members, result.parabolic
    lam = origin.algebraic
    ctx = lam.context
    if origin not in members or not parabolic <= frozenset(range(ctx.rank)):
        return False
    factors = [_factor(lam, sigma, result.convention) for sigma in range(ctx.num_embeddings)]
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
    returns it), checked without the search kernel.

    For each embedding sigma, lam's sigma-row is closed under the simple
    dot reflections of sigma that move it (which generate that
    embedding's Weyl group), on the oracle's integer step, the other
    components held at lam's.  The
    orbit must have exactly the product of the factor sizes as members,
    each with its rows in the factors."""
    ctx = lam.context
    numbers = [_factor(lam, sigma, None)[1] for sigma in range(ctx.num_embeddings)]
    if len(orbit) != prod(map(len, numbers)):
        return False
    return all(_row_numbers(w, ctx, numbers) is not None for w in orbit)
