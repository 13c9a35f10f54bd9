"""Weights over the embedding set and locally analytic characters.

The torus over the coefficient field splits as one copy of the base root
system per embedding, so a weight here is a tuple of per-embedding rational
vectors and a "global root" is a (embedding index, positive-root index)
pair.  A character is modelled by its derivative plus an opaque smooth tag:
characters are comparable under linkage only when their tags agree, which
is the finite shadow of "differ by an algebraic character".

An optional central coordinate block rides along at the end of every
component; it pairs with nothing and no reflection moves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ContextMismatch, IndexOutOfRange, NotIntegral
from .rootsys import RootSystem

CONVENTIONS = ("paper", "shifted")


def check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


@dataclass(frozen=True)
class EmbeddingContext:
    """One base root system replicated over ``num_embeddings`` embeddings,
    plus an optional central coordinate block per embedding."""

    base: RootSystem
    num_embeddings: int
    central_dim: int = 0

    def __post_init__(self):
        if self.num_embeddings < 1:
            raise ValueError("num_embeddings must be >= 1")
        if self.central_dim < 0:
            raise ValueError("central_dim must be >= 0")

    @property
    def rank(self) -> int:
        return self.base.rank

    @property
    def dim(self) -> int:
        return self.base.rank + self.central_dim

    def global_roots(self) -> list[GlobalRoot]:
        """All (embedding, positive root) pairs in canonical order."""
        return [
            GlobalRoot(sigma, r)
            for sigma in range(self.num_embeddings)
            for r in range(self.base.num_positive)
        ]

    def zero_weight(self) -> WeightL:
        row = (Fraction(0),) * self.dim
        return WeightL(self, (row,) * self.num_embeddings)


@dataclass(frozen=True)
class GlobalRoot:
    """A positive root of the product system: embedding index plus
    positive-root index in the base system."""

    sigma: int
    root_index: int


def _exact(x) -> Fraction:
    """An int or a Fraction as a Fraction.  Anything else is refused: a
    float would enter as its binary fraction and a string through
    Fraction's decimal and exponent grammar."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"weight coordinates must be int or Fraction, not {type(x).__name__}")


@dataclass(frozen=True)
class WeightL:
    """Element of the weight space: one rational vector per embedding, in
    fundamental-weight coordinates (plus the central block, if any).

    Identity: two weights are equal when their contexts and coordinates
    are.  The hash is that of weight_sort_key, the coordinates' (num, den)
    pairs: ints hash the same in every process and skip the modular
    inverse of a Fraction's hash.  The context is compared but not
    hashed, and nothing is cached on the instance, so a pickled weight,
    or a set of them, compares equal in another process."""

    context: EmbeddingContext
    components: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is Fraction else _exact(x) for x in row)
            for row in self.components
        )
        if len(rows) != self.context.num_embeddings:
            raise ValueError(
                f"expected {self.context.num_embeddings} components, got {len(rows)}"
            )
        for row in rows:
            if len(row) != self.context.dim:
                raise ValueError(
                    f"component has {len(row)} coordinates, expected {self.context.dim}"
                )
        object.__setattr__(self, "components", rows)

    def __hash__(self):
        return hash(weight_sort_key(self))

    def semisimple(self, sigma: int) -> tuple[Fraction, ...]:
        return self.components[sigma][: self.context.rank]

    def central(self, sigma: int) -> tuple[Fraction, ...]:
        return self.components[sigma][self.context.rank :]


def weight_sort_key(lam: WeightL) -> tuple:
    """All coordinates as (num, den) pairs: a weight's hash, and the
    lexicographic key that fixes the order of weight lists in output."""
    return tuple([(x.numerator, x.denominator) for row in lam.components for x in row])


@dataclass(frozen=True)
class LocAnChar:
    """Locally analytic character up to the data linkage sees: derivative
    (algebraic part) plus an opaque smooth tag."""

    algebraic: WeightL
    smooth_tag: str


def require_same_context(a: EmbeddingContext, b: EmbeddingContext) -> None:
    if a != b:
        raise ContextMismatch("operands belong to different embedding contexts")


def _check_global_root(ctx: EmbeddingContext, r: GlobalRoot) -> None:
    if not 0 <= r.sigma < ctx.num_embeddings:
        raise ContextMismatch(f"embedding index {r.sigma} out of range")
    if not 0 <= r.root_index < ctx.base.num_positive:
        raise IndexOutOfRange(f"positive-root index {r.root_index} out of range")


def global_pairing(lam: WeightL, r: GlobalRoot) -> Fraction:
    """Pairing of the sigma-component with the coroot of the given base
    root; all other components are irrelevant."""
    _check_global_root(lam.context, r)
    return lam.context.base.pairing(lam.semisimple(r.sigma), r.root_index)


def _weight_unchecked(ctx: EmbeddingContext, rows) -> WeightL:
    """Internal constructor for rows already known to be valid Fractions."""
    w = object.__new__(WeightL)
    object.__setattr__(w, "context", ctx)
    object.__setattr__(w, "components", rows)
    return w


def dot_reflect(lam: WeightL, r: GlobalRoot) -> WeightL:
    """Dot reflection at a global root.

    Only component sigma moves, by the reflection formula: subtract
    (pairing of the shifted weight with the coroot) times the root.
    """
    _check_global_root(lam.context, r)
    base = lam.context.base
    coeff = global_pairing(lam, r) + base.coroot_heights[r.root_index]
    froot = base.root_fund[r.root_index]
    rows = list(lam.components)
    row = list(rows[r.sigma])
    for i in range(base.rank):
        row[i] -= coeff * froot[i]
    rows[r.sigma] = tuple(row)
    return _weight_unchecked(lam.context, tuple(rows))


def dot_action(lam: WeightL, word: Sequence[GlobalRoot]) -> WeightL:
    """Dot action of a product of reflections; the rightmost letter of the
    word acts first, so words compose like group elements."""
    out = lam
    for r in reversed(list(word)):
        out = dot_reflect(out, r)
    return out


def is_alpha_integral(chi: LocAnChar, r: GlobalRoot) -> bool:
    return global_pairing(chi.algebraic, r).denominator == 1


def is_alpha_dominant(chi: LocAnChar, r: GlobalRoot, convention: str) -> bool:
    """Dominance gate at a global root.

    "paper" reads the plain pairing (non-negative integer); "shifted"
    reads the rho-shifted pairing (strictly positive integer), the
    classical strong-linkage gate.  The two agree on simple roots but may
    differ on non-simple roots.
    """
    check_convention(convention)
    p = global_pairing(chi.algebraic, r)
    if p.denominator != 1:
        return False
    if convention == "paper":
        return p >= 0
    return p + chi.algebraic.context.base.coroot_heights[r.root_index] > 0


def dot_reflect_char(chi: LocAnChar, r: GlobalRoot) -> LocAnChar:
    """Dot reflection of a character.

    The shift is by an algebraic character (an integer power of the root),
    so the smooth tag is untouched; requesting the reflection at a
    non-integral root raises NotIntegral since the power would not be an
    algebraic character.
    """
    if not is_alpha_integral(chi, r):
        raise NotIntegral(
            f"pairing {global_pairing(chi.algebraic, r)} at root "
            f"({r.sigma},{r.root_index}) is not an integer"
        )
    return LocAnChar(dot_reflect(chi.algebraic, r), chi.smooth_tag)


def row_key(row: Sequence[Fraction]) -> tuple:
    """A row as (numerator, denominator) pairs: ints hash and compare in C,
    where a Fraction's hash takes a modular inverse."""
    return tuple([(x.numerator, x.denominator) for x in row])


def encode_row(row: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """Scaled-integer encoding of one embedding's semisimple row for the
    search kernel and the chain oracle: (d, nums), where d is the least
    common denominator and nums the coordinates times d.  Gate tests
    become divisibility tests and dot reflections integer vector updates;
    d never changes along a linkage move.  decode_block(d, nums) gives the
    row back."""
    d = lcm(*(x.denominator for x in row))
    return d, tuple([x.numerator * (d // x.denominator) for x in row])


# small integers dominate kernel output; skip Fraction.__new__ for them
_SMALL_FRACTIONS = {n: Fraction(n) for n in range(-128, 129)}


def decode_block(d: int, nums: Sequence[int]) -> tuple[Fraction, ...]:
    """Fractions of one embedding's scaled-integer block with denominator d."""
    if d == 1:
        small = _SMALL_FRACTIONS
        return tuple(small[n] if -128 <= n <= 128 else Fraction(n) for n in nums)
    return tuple(Fraction(n, d) for n in nums)
