"""Strong-linkage closures and the factor/obstruction sets built on them.

A gated dot reflection at a global root (sigma, r) reads and writes only
component sigma, so the reachability graph of a character is the
Cartesian product of its per-embedding graphs, and the strong-linkage
closure is the product of the per-embedding closures.  The search runs
one breadth-first closure per distinct (semisimple block, denominator),
deduplicated on exact scaled-integer coordinates, and takes the product;
the chain count explodes combinatorially but each factor is bounded by
the dot orbit, so BFS is the right algorithm.  Witness chains are built
on lookup from the per-embedding BFS trees; a chain replays from the
origin to its member, and nothing more (no minimality, no particular
chain) is promised.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from . import _kernel
from .errors import OrbitGuardExceeded
from .parabolic import (
    ParabolicSubset,
    central_class_key,
    require_parabolic_dominant,
    row_in_lambda_p_plus,
)
from .weights_chars import (
    GlobalRoot,
    LocAnChar,
    WeightL,
    _weight_unchecked,
    check_convention,
    decode_block,
    dot_reflect_char,
    integer_encoding,
    is_alpha_dominant,
)

DEFAULT_ORBIT_GUARD = 10**6


def weight_sort_key(lam: WeightL):
    """Lexicographic key on all coordinates as (num, den) pairs; fixes the
    order of weight lists in output."""
    return tuple((x.numerator, x.denominator) for row in lam.components for x in row)


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
    ``upper_bound`` marks candidate sets that are only a superset of the
    true factor set (proper parabolic filters)."""

    origin: LocAnChar
    members: frozenset[LocAnChar]
    witness: Mapping[LocAnChar, LinkageChain]
    convention: str
    upper_bound: bool = False

    def sorted_members(self) -> list[LocAnChar]:
        return sorted(self.members, key=char_sort_key)

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

    A chain walks embedding 0 down its tree with the other embeddings at
    their origin values, then embedding 1, and so on.  Looking up a
    character outside ``members`` raises KeyError."""

    def __init__(
        self,
        origin: LocAnChar,
        members: frozenset[LocAnChar],
        closures: list[_EmbeddingClosure],
    ):
        self._origin = origin
        self._members = members
        self._closures = closures
        self._index: list[dict[tuple, int]] | None = None

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[LocAnChar]:
        return iter(self._members)

    def __contains__(self, chi: object) -> bool:
        return chi in self._members

    def __getitem__(self, chi: LocAnChar) -> LinkageChain:
        if chi not in self._members:
            raise KeyError(chi)
        if self._index is None:
            self._index = [{row: n for n, row in enumerate(rows)} for rows, _, _ in self._closures]
        origin = self._origin
        ctx = origin.algebraic.context
        current = list(origin.algebraic.components)
        steps = []
        for sigma, (rows, parent_state, parent_root) in enumerate(self._closures):
            path = []
            k = self._index[sigma][chi.algebraic.components[sigma]]
            while k:
                path.append(k)
                k = parent_state[k]
            for k in reversed(path):
                current[sigma] = rows[k]
                step = LocAnChar(_weight_unchecked(ctx, tuple(current)), origin.smooth_tag)
                steps.append((GlobalRoot(sigma, parent_root[k]), step))
        return LinkageChain(tuple(steps))


def _embedding_closures(
    lam: WeightL, convention: str | None, guard: int
) -> list[_EmbeddingClosure]:
    """Per-embedding closures of lam: the kernel's linkage_bfs tree
    (states, parent state, parent label) of each embedding's scaled-integer
    block, under the linkage gates of ``convention`` or, for None, the
    orbit gates; searched once per distinct (block, denominator), its
    states decoded into rows, central block appended.  Raises
    OrbitGuardExceeded once one embedding's search, or the product of the
    closure sizes over the embeddings so far, exceeds ``guard``."""
    rank = lam.context.rank
    dens, flat = integer_encoding(lam)
    searches: dict[tuple, _EmbeddingClosure] = {}
    closures: list[_EmbeddingClosure] = []
    size = 1
    for sigma, d in enumerate(dens):
        block = flat[sigma * rank : (sigma + 1) * rank]
        found = searches.get((block, d))
        if found is None:
            try:
                states, parent_state, parent_label = _kernel.linkage_bfs(
                    lam.context.base, d, block, convention, guard
                )
            except OrbitGuardExceeded:
                raise OrbitGuardExceeded(
                    f"search of embedding {sigma} exceeded the visited-state cap {guard}"
                ) from None
            found = ([decode_block(d, st) for st in states], parent_state, parent_label)
            searches[(block, d)] = found
        rows, parent_state, parent_label = found
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


def _product_closure(
    chi: LocAnChar,
    convention: str,
    guard: int,
    keep_row: Callable[[tuple], bool] | None = None,
) -> tuple[frozenset[LocAnChar], _WitnessChains]:
    """Members and witnesses of the closure of chi, as the product over
    embeddings of the per-embedding closures' rows that pass ``keep_row``
    (all of them by default; it must accept the origin's rows).  Guarded as
    in _embedding_closures."""
    check_convention(convention)
    ctx = chi.algebraic.context
    closures = _embedding_closures(chi.algebraic, convention, guard)
    kept = [rows if keep_row is None else list(filter(keep_row, rows)) for rows, _, _ in closures]
    combos = itertools.product(*kept)
    next(combos)  # the origin's rows: keep the caller's object instead
    tag = chi.smooth_tag
    members = frozenset(
        itertools.chain(
            (chi,), (LocAnChar(_weight_unchecked(ctx, rows), tag) for rows in combos)
        )
    )
    return members, _WitnessChains(chi, members, closures)


def strongly_linked_set(
    chi: LocAnChar, convention: str, *, guard: int = DEFAULT_ORBIT_GUARD
) -> LinkageResult:
    """Downward closure of chi under gated dot reflections.

    Computed as the product over embeddings of one breadth-first closure
    per embedding.  Terminates because every link strictly lowers the
    height of the moved component and each factor stays inside its
    embedding's finite dot orbit.  Raises OrbitGuardExceeded once one
    embedding's closure, or the product over the embeddings searched so
    far, exceeds ``guard``; a closure of exactly ``guard`` members passes.
    """
    members, witness = _product_closure(chi, convention, guard)
    return LinkageResult(origin=chi, members=members, witness=witness, convention=convention)


def verma_factors_borel(
    chi: LocAnChar, convention: str, *, guard: int = DEFAULT_ORBIT_GUARD
) -> LinkageResult:
    """The exact set of simple factors of the Verma module with highest
    weight chi induced from the Borel: precisely the strongly linked
    characters.  Multiplicities are not computed."""
    return strongly_linked_set(chi, convention, guard=guard)


def verma_factor_candidates(
    chi_highest: LocAnChar,
    p: ParabolicSubset,
    convention: str,
    *,
    guard: int = DEFAULT_ORBIT_GUARD,
) -> LinkageResult:
    """Candidate factor set for the parabolic Verma module: strongly
    linked characters whose weight is dominant-integral for the parabolic.

    Exact at the Borel (empty subset); for proper parabolics this is an
    upper bound on the true factor set, flagged via ``upper_bound``."""
    require_parabolic_dominant(chi_highest, p)
    indices = p.indices
    keep_row = (lambda row: row_in_lambda_p_plus(row, indices)) if indices else None
    members, witness = _product_closure(chi_highest, convention, guard, keep_row)
    return LinkageResult(
        origin=chi_highest,
        members=members,
        witness=witness,
        convention=convention,
        upper_bound=bool(indices),
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
    eigenspaces must vanish.  Sorted by central key, then coordinates."""
    candidates = verma_factor_candidates(chi_highest, p, convention, guard=guard)
    out = [
        (m, central_class_key(m, p, pi_tag))
        for m in candidates.members
        if m != chi_highest
    ]
    out.sort(key=lambda item: (item[1], char_sort_key(item[0])))
    return out
