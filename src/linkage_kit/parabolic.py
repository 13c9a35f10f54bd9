"""Standard parabolic subsets and the center of their Levi factor.

A parabolic is a subset I of simple-root indices, applied uniformly in
every embedding (the parabolic of the product group is the product of the
base parabolic).  Two weights agree on the center of the Levi exactly when
their difference lies in the rational span of the Levi's simple roots and
the central blocks match; the span test and the canonical coset
representative both come from one reduced row echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from .errors import IndexOutOfRange, NotParabolicDominant
from .rationals import format_rational
from .weights_chars import EmbeddingContext, LocAnChar, WeightL, require_same_context


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


@dataclass(frozen=True)
class ParabolicSubset:
    """Subset I of simple-root indices (0-based); empty models the Borel,
    the full set models the group itself."""

    context: EmbeddingContext
    indices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(self.indices))
        for i in self.indices:
            if not isinstance(i, int) or not 0 <= i < self.context.rank:
                raise IndexOutOfRange(f"simple-root index {i} out of range")

    @cached_property
    def _levi_span(self) -> tuple[list[list[Fraction]], list[int]]:
        base = self.context.base
        rows = [
            [Fraction(base.cartan[j][i]) for j in range(base.rank)]
            for i in sorted(self.indices)
        ]
        return _rref(rows)

    def reduce_mod_levi(self, vec: Iterable[Fraction]) -> tuple[Fraction, ...]:
        """Canonical representative of a semisimple vector modulo the span
        of the Levi's simple roots: pivot coordinates are eliminated, the
        rest are untouched."""
        v = [Fraction(x) for x in vec]
        rows, pivots = self._levi_span
        for row, p in zip(rows, pivots):
            f = v[p]
            if f != 0:
                v = [x - f * y for x, y in zip(v, row)]
        return tuple(v)


def in_lambda_p_plus(lam: WeightL, p: ParabolicSubset) -> bool:
    """Whether the shifted pairing with every Levi simple coroot is a
    strictly positive integer, in every embedding.

    In fundamental coordinates this is a coordinate read: coordinate i
    must be a non-negative integer for each i in I.  The test is a
    conjunction over embeddings of :func:`row_in_lambda_p_plus`."""
    require_same_context(lam.context, p.context)
    return all(row_in_lambda_p_plus(row, p.indices) for row in lam.components)


def row_in_lambda_p_plus(row: tuple[Fraction, ...], indices: Iterable[int]) -> bool:
    """The test of :func:`in_lambda_p_plus` on one embedding's coordinates."""
    for i in indices:
        x = row[i]
        if x.denominator != 1 or x < 0:
            return False
    return True


def equal_on_center(lam: WeightL, mu: WeightL, p: ParabolicSubset) -> bool:
    """Whether two weights restrict to the same functional on the center
    of the Levi: difference in the span of the Levi's roots per embedding,
    central blocks equal exactly."""
    require_same_context(lam.context, mu.context)
    require_same_context(lam.context, p.context)
    rank = lam.context.rank
    for sigma in range(lam.context.num_embeddings):
        diff = [a - b for a, b in zip(lam.components[sigma], mu.components[sigma])]
        if any(x != 0 for x in p.reduce_mod_levi(diff[:rank])):
            return False
        if any(x != 0 for x in diff[rank:]):
            return False
    return True


def central_class_key(chi: LocAnChar, p: ParabolicSubset, pi_tag: str) -> str:
    """Canonical serializable key for the central character class of
    chi times the smooth representation tagged pi_tag: the bytes of
    ``json.dumps(["ck1", tag, pi_tag, blocks], separators=(",", ":"),
    sort_keys=True)``, with one block per embedding (see
    :func:`_central_block`).

    Two characters get equal keys exactly when equal_on_center holds for
    their algebraic parts and their smooth tags agree."""
    require_same_context(chi.algebraic.context, p.context)
    blocks = [_central_block(row, p) for row in chi.algebraic.components]
    return _join_central_key(chi.smooth_tag, pi_tag, blocks)


def _central_block(row: tuple[Fraction, ...], p: ParabolicSubset) -> str:
    """One embedding's block of a central class key, as JSON text: the
    semisimple part reduced modulo the Levi's roots, then the central
    block, as "p/q" strings.  It depends on the row alone, so
    noncritical_obstruction_set builds it once per factor row."""
    rank = p.context.rank
    coords = (*p.reduce_mod_levi(row[:rank]), *row[rank:])
    # "p/q" strings hold only digits, "-" and "/": none needs escaping
    return '["' + '","'.join([format_rational(x) for x in coords]) + '"]'


def _join_central_key(tag: str, pi_tag: str, blocks: Iterable[str]) -> str:
    """The central class key with the given per-embedding blocks."""
    return f'["ck1",{_quote(tag)},{_quote(pi_tag)},[{",".join(blocks)}]]'


def require_parabolic_dominant(chi: LocAnChar, p: ParabolicSubset) -> None:
    if not in_lambda_p_plus(chi.algebraic, p):
        raise NotParabolicDominant(
            "character is not dominant-integral for the parabolic subset"
        )
