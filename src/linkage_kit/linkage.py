"""Strong-linkage closures, the factor/obstruction sets built on them,
and dot orbits.

A gated dot reflection at a global root (sigma, r) reads and writes only
component sigma, so the reachability graph of a character is the
Cartesian product of its per-embedding graphs, and the strong-linkage
closure is the product of the per-embedding closures.  The search runs
the kernel's breadth-first closure (_kernel.linkage_bfs) on each
embedding's semisimple row and takes the product; the chain count
explodes combinatorially but each factor is bounded by the dot orbit, so
BFS is the right algorithm.  Witness chains are built on lookup from the
per-embedding BFS trees; a chain replays from the origin to its member,
and nothing more (no minimality, no particular chain) is promised.  Under
the orbit gates the same per-embedding search gives the dot orbit.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from . import _kernel
from .errors import OrbitGuardExceeded
from .parabolic import (
    ParabolicSubset,
    _central_block,
    _join_central_key,
    require_parabolic_dominant,
    row_in_lambda_p_plus,
)
from .weights_chars import (
    GlobalRoot,
    LocAnChar,
    WeightL,
    _weight_unchecked,
    check_convention,
    dot_reflect_char,
    is_alpha_dominant,
    row_key,
    weight_sort_key,
)

DEFAULT_ORBIT_GUARD = 10**6


def char_sort_key(chi: LocAnChar):
    """The weight key of the algebraic part, then the smooth tag; fixes the
    output order of character lists everywhere."""
    return (weight_sort_key(chi.algebraic), chi.smooth_tag)


@dataclass(frozen=True)
class LinkageChain:
    """Witness for one membership: the gated reflections walking the
    origin character down to the member, with each intermediate result."""

    steps: tuple[tuple[GlobalRoot, LocAnChar], ...]


@dataclass(frozen=True, eq=False)
class LinkageResult:
    """Closure of ``origin`` under gated dot reflections.

    ``members`` always contains the origin; ``witness`` maps each member
    to a chain that replays from the origin to it (the origin's chain is
    empty), built on lookup.
    ``parabolic`` holds the simple-root indices whose parabolic filter
    the members passed, empty for a full closure; ``upper_bound`` marks
    the candidate sets of a proper parabolic, which are only a superset of
    the true factor set."""

    origin: LocAnChar
    members: frozenset[LocAnChar]
    witness: Mapping[LocAnChar, LinkageChain]
    convention: str
    parabolic: frozenset[int] = frozenset()

    @property
    def upper_bound(self) -> bool:
        return bool(self.parabolic)

    def sorted_members(self) -> list[LocAnChar]:
        """The members in ``char_sort_key`` order.

        Every row of a context has the same length and the smooth tag is
        shared, so that order is the product order of the per-embedding
        kept rows, each sorted by ``row_key``; a closure result walks that
        product, sorting each embedding's rows once, and sorts no members.
        A result whose members are not its witness map's own (built by
        hand, or by ``dataclasses.replace``) sorts its members instead."""
        chains = _own_chains(self)
        if chains is None:
            return sorted(self.members, key=char_sort_key)
        ctx = self.origin.algebraic.context
        tag = self.origin.smooth_tag
        factors = [
            [rows[n] for n in order]
            for (rows, _, _), order in zip(chains._closures, chains._order())
        ]
        return [
            LocAnChar(_weight_unchecked(ctx, rows), tag) for rows in itertools.product(*factors)
        ]

    def __len__(self) -> int:
        return len(self.members)


def up_link_candidates(chi: LocAnChar, convention: str) -> list[tuple[GlobalRoot, LocAnChar]]:
    """All single gated links out of chi: for every global root whose
    dominance gate passes, the reflected character; links that do not move
    the character are dropped."""
    check_convention(convention)
    out = []
    for r in chi.algebraic.context.global_roots():
        if is_alpha_dominant(chi, r, convention):
            nxt = dot_reflect_char(chi, r)
            if nxt != chi:
                out.append((r, nxt))
    return out


# one embedding's closure: decoded rows (rows[0] is the origin's) and the
# BFS tree, parent state and edge label (for linkage, root index) per row
_EmbeddingClosure = tuple[list[tuple], list[int], list[int]]


class _WitnessChains(Mapping[LocAnChar, LinkageChain]):
    """Read-only map from each member of a product closure to its witness
    chain, built on lookup from the per-embedding BFS trees.

    A member is one kept row number per embedding: ``_kept[sigma]`` holds
    the numbers of the rows of closure sigma that passed the parabolic
    filter (every row without one).  ``_order()`` sorts them by
    ``row_key`` on first use, and the product of those lists lists the
    members in ``char_sort_key`` order (``LinkageResult.sorted_members``
    and the CLI read it).

    A chain walks embedding 0 down its tree with the other embeddings at
    their origin values, then embedding 1, and so on.  Each step ends at a
    product state, one row number per embedding in the full closures
    (rows a parabolic filter dropped included), numbered in mixed radix.
    ``_walk`` is that walk, step by step; the map keeps the
    ``(GlobalRoot, LocAnChar)`` step it builds for each state, keyed by the
    state's number.  So chains with a common prefix share their step
    objects, and the map holds at most one step per product state walked,
    for as long as the result holds the map.  Looking up a character
    outside ``members`` raises KeyError."""

    def __init__(
        self,
        origin: LocAnChar,
        members: frozenset[LocAnChar],
        closures: list[_EmbeddingClosure],
        kept: list[Sequence[int]],
    ):
        self._origin = origin
        self._members = members
        self._closures = closures
        self._kept = kept
        self._sorted: list[list[int]] | None = None
        self._index: list[dict[tuple, int]] | None = None
        self._steps: dict[int, tuple[GlobalRoot, LocAnChar]] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[LocAnChar]:
        return iter(self._members)

    def __contains__(self, chi: object) -> bool:
        return chi in self._members

    def _order(self) -> list[list[int]]:
        """Each embedding's kept row numbers in ``row_key`` order of their
        rows, sorted on the first call."""
        if self._sorted is None:
            self._sorted = [
                _in_row_order(rows, kept) for (rows, _, _), kept in zip(self._closures, self._kept)
            ]
        return self._sorted

    def _walk(self, targets: Sequence[int]) -> Iterator[tuple[int, int, int]]:
        """The chain to the product state with row number targets[sigma] in
        each embedding sigma: per step, the number of the state it ends at,
        its embedding and its row number there."""
        base, stride = 0, 1  # the state walked so far; the place value of embedding sigma
        for sigma, ((rows, parent_state, _), target) in enumerate(zip(self._closures, targets)):
            path = []
            k = target
            while k:
                path.append(k)
                k = parent_state[k]
            for k in reversed(path):
                yield base + k * stride, sigma, k
            base += target * stride
            stride *= len(rows)

    def __getitem__(self, chi: LocAnChar) -> LinkageChain:
        if chi not in self._members:
            raise KeyError(chi)
        if self._index is None:
            self._index = [
                {row_key(row): n for n, row in enumerate(rows)} for rows, _, _ in self._closures
            ]
        targets = [
            index[row_key(row)] for index, row in zip(self._index, chi.algebraic.components)
        ]
        origin = self._origin
        ctx = origin.algebraic.context
        memo = self._steps
        current = list(origin.algebraic.components)
        steps = []
        for state, sigma, k in self._walk(targets):
            rows, _, parent_root = self._closures[sigma]
            current[sigma] = rows[k]
            step = memo.get(state)
            if step is None:
                step = memo[state] = (
                    GlobalRoot(sigma, parent_root[k]),
                    LocAnChar(_weight_unchecked(ctx, tuple(current)), origin.smooth_tag),
                )
            steps.append(step)
        return LinkageChain(tuple(steps))


def _own_chains(result: LinkageResult) -> _WitnessChains | None:
    """The result's witness map when it is a closure's own, holding the
    per-embedding rows its members are the product of; else None."""
    chains = result.witness
    if isinstance(chains, _WitnessChains) and chains._members is result.members:
        return chains
    return None


def _in_row_order(rows: list[tuple], numbers: Iterable[int]) -> list[int]:
    """The row numbers ``numbers`` sorted by ``row_key`` of their rows.
    All rows of a context have one length, so the product of such lists,
    one per embedding, runs in ``weight_sort_key`` order."""
    return sorted(numbers, key=lambda n: row_key(rows[n]))


def _embedding_closures(
    lam: WeightL, convention: str | None, guard: int
) -> list[_EmbeddingClosure]:
    """Per-embedding closures of lam: the kernel's linkage_bfs tree of each
    embedding's semisimple row, under the linkage gates of ``convention``
    or, for None, the orbit gates, with the central block appended to
    every row.  Raises OrbitGuardExceeded once one embedding's search, or
    the product of the closure sizes over the embeddings so far, exceeds
    ``guard``."""
    rs = lam.context.base
    closures: list[_EmbeddingClosure] = []
    size = 1
    for sigma in range(lam.context.num_embeddings):
        try:
            rows, parent_state, parent_label = _kernel.linkage_bfs(
                rs, lam.semisimple(sigma), convention, guard
            )
        except OrbitGuardExceeded:
            raise OrbitGuardExceeded(
                f"search of embedding {sigma} exceeded the visited-state cap {guard}"
            ) from None
        central = lam.central(sigma)
        if central:
            rows = [row + central for row in rows]
        if size * len(rows) > guard:
            raise OrbitGuardExceeded(
                f"closure product over embeddings 0..{sigma} "
                f"({size} x {len(rows)} = {size * len(rows)} members) "
                f"exceeds the visited-state cap {guard}"
            )
        size *= len(rows)
        closures.append((rows, parent_state, parent_label))
    return closures


def dot_orbit(lam: WeightL, *, guard: int = DEFAULT_ORBIT_GUARD) -> frozenset[WeightL]:
    """Full dot orbit of a weight, the ungated container of every linkage
    closure, as the product of per-embedding orbits.

    Each embedding's row is closed under the kernel's orbit gates (every
    simple reflection that moves it), which visits exactly its orbit
    without enumerating the Weyl group; central blocks ride along
    unchanged.  Raises OrbitGuardExceeded as soon as one embedding's orbit
    or the running product exceeds ``guard``.
    """
    closures = _embedding_closures(lam, None, guard)
    return frozenset(
        _weight_unchecked(lam.context, rows)
        for rows in itertools.product(*(rows for rows, _, _ in closures))
    )


def _product_closure(
    chi: LocAnChar, convention: str, guard: int, indices: frozenset[int] = frozenset()
) -> tuple[frozenset[LocAnChar], _WitnessChains]:
    """Members and witnesses of the closure of chi, as the product over
    embeddings of the per-embedding closures' rows that pass
    row_in_lambda_p_plus for the parabolic ``indices`` (every row when
    empty; chi itself must pass).  Guarded as in _embedding_closures."""
    check_convention(convention)
    ctx = chi.algebraic.context
    closures = _embedding_closures(chi.algebraic, convention, guard)
    if indices:
        kept = [
            [n for n, row in enumerate(rows) if row_in_lambda_p_plus(row, indices)]
            for rows, _, _ in closures
        ]
        factors = [[rows[n] for n in numbers] for (rows, _, _), numbers in zip(closures, kept)]
    else:
        kept = [range(len(rows)) for rows, _, _ in closures]
        factors = [rows for rows, _, _ in closures]
    combos = itertools.product(*factors)
    next(combos)  # the origin's rows: keep the caller's object instead
    tag = chi.smooth_tag
    members = frozenset(
        itertools.chain(
            (chi,), (LocAnChar(_weight_unchecked(ctx, rows), tag) for rows in combos)
        )
    )
    return members, _WitnessChains(chi, members, closures, kept)


def strongly_linked_set(
    chi: LocAnChar, convention: str, *, guard: int = DEFAULT_ORBIT_GUARD
) -> LinkageResult:
    """Downward closure of chi under gated dot reflections.

    Under ``"shifted"``, for an integral chi whose rho-shift is regular,
    this is exactly the set of simple factors of the Verma module with
    highest weight chi induced from the Borel, the Bruhat interval above
    chi's Weyl group element (Bernstein, Gelfand and Gelfand; checked in
    tests/test_bgg.py).  ``"paper"`` gives a subset of it, often a strict
    one.  Singular and non-integral weights are not checked against the
    theorem.  Multiplicities are not computed.

    Computed as the product over embeddings of one breadth-first closure
    per embedding.  Terminates because every link strictly lowers the
    height of the moved component and each factor stays inside its
    embedding's finite dot orbit.  Raises OrbitGuardExceeded once one
    embedding's closure, or the product over the embeddings searched so
    far, exceeds ``guard``; a closure of exactly ``guard`` members passes.
    """
    members, witness = _product_closure(chi, convention, guard)
    return LinkageResult(origin=chi, members=members, witness=witness, convention=convention)


def verma_factor_candidates(
    chi_highest: LocAnChar,
    p: ParabolicSubset,
    convention: str,
    *,
    guard: int = DEFAULT_ORBIT_GUARD,
) -> LinkageResult:
    """Candidate factor set for the parabolic Verma module: strongly
    linked characters whose weight is dominant-integral for the parabolic.

    At the Borel (empty subset) this is the closure, so it is exact where
    strongly_linked_set is: under ``"shifted"``, for integral weights with
    a regular rho-shift.  For proper parabolics this is an upper bound on
    the true factor set, flagged via ``upper_bound``; the result's
    ``parabolic`` holds the filter's indices."""
    require_parabolic_dominant(chi_highest, p)
    members, witness = _product_closure(chi_highest, convention, guard, p.indices)
    return LinkageResult(
        origin=chi_highest,
        members=members,
        witness=witness,
        convention=convention,
        parabolic=p.indices,
    )


def noncritical_obstruction_set(
    chi_highest: LocAnChar,
    p: ParabolicSubset,
    pi_tag: str,
    convention: str,
    *,
    guard: int = DEFAULT_ORBIT_GUARD,
) -> list[tuple[LocAnChar, str]]:
    """The obstruction list for non-criticality: every strongly linked
    character other than the highest weight itself that stays dominant-
    integral for the parabolic, paired with the canonical key of its
    central character class (twisted by pi_tag).

    An empty list means the pair is unconditionally non-critical; a
    non-empty list enumerates exactly the central characters whose
    eigenspaces must vanish.  Sorted by central key, then coordinates.

    Built straight from the per-embedding closures: each factor row that
    passes the parabolic filter carries its key block (a block depends on
    its embedding's row alone), each member joins its rows' blocks, and the
    first combination, the highest weight's own rows, is skipped.  Every
    key is byte-equal to ``central_class_key(m, p, pi_tag)``."""
    require_parabolic_dominant(chi_highest, p)
    check_convention(convention)
    closures = _embedding_closures(chi_highest.algebraic, convention, guard)
    factors = [
        [(row, _central_block(row, p)) for row in rows if row_in_lambda_p_plus(row, p.indices)]
        for rows, _, _ in closures
    ]
    combos = itertools.product(*factors)
    next(combos)  # the highest weight's own rows
    ctx = chi_highest.algebraic.context
    tag = chi_highest.smooth_tag
    out = [
        (LocAnChar(_weight_unchecked(ctx, rows), tag), _join_central_key(tag, pi_tag, blocks))
        for rows, blocks in (zip(*combo) for combo in combos)
    ]
    out.sort(key=lambda item: (item[1], char_sort_key(item[0])))
    return out
