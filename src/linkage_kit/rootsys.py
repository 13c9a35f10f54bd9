"""Finite-type root systems: Cartan data, positive roots and coroots.

Weights live in fundamental-weight coordinates throughout the package:
coordinate i of a weight is its pairing with the i-th simple coroot.  In
these coordinates the Weyl vector (half sum of positive roots) is
(1, ..., 1) and dominance tests are coordinate reads.  All arithmetic is
exact; weights are tuples of Fraction, root data are plain integers.

The Cartan convention is ``cartan[i][j] = <alpha_j, alpha_i_vee>``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import IndexOutOfRange, InvalidCartan, RankMismatch

IntMatrix = tuple[tuple[int, ...], ...]
_SparseRow = tuple[tuple[int, int], ...]  # the nonzero (index, entry) pairs of a row

_NAMED_TYPE = re.compile(r"^([A-G])_?([0-9]+)$")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}


def positive_root_count(name: str) -> int:
    """Closed-form number of positive roots of a named type or x-product."""
    total = 0
    for letter, n in _parse_name(name):
        if letter == "A":
            total += n * (n + 1) // 2
        elif letter in ("B", "C"):
            total += n * n
        elif letter == "D":
            total += n * (n - 1)
        elif letter == "E":
            total += {6: 36, 7: 63, 8: 120}[n]
        elif letter == "F":
            total += 24
        else:  # G
            total += 6
    return total


def _parse_name(name: str) -> list[tuple[str, int]]:
    factors = []
    for part in name.strip().split("x"):
        m = _NAMED_TYPE.match(part.strip())
        if m is None:
            raise InvalidCartan(f"unrecognized type name {part!r}")
        letter = m.group(1)
        try:
            n = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise InvalidCartan(f"rank out of range for type {letter}") from None
        if n < _MIN_RANK[letter] or n > _MAX_RANK.get(letter, n):
            raise InvalidCartan(f"rank {n} out of range for type {letter}")
        factors.append((letter, n))
    return factors


def _canonical_name(factors: Sequence[tuple[str, int]]) -> str:
    return "x".join(f"{letter}_{n}" for letter, n in factors)


def _named_cartan(letter: str, n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            join(i, i + 1)
        if letter == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # last simple root short
        if letter == "C" and n >= 2:
            a[n - 2][n - 1] = -2  # last simple root long
    elif letter == "D":
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
    elif letter == "E":
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
            if j < n:
                join(i, j)
        join(1, 3)
    elif letter == "F":
        join(0, 1)
        join(1, 2, aij=-1, aji=-2)
        join(2, 3)
    else:  # G
        join(0, 1, aij=-3, aji=-1)
    return a


def _block_diagonal(blocks: Sequence[Sequence[Sequence[int]]]) -> list[list[int]]:
    total = sum(len(b) for b in blocks)
    out = [[0] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[offset + i][offset + j] = v
        offset += len(b)
    return out


def _validate_cartan_shape(matrix) -> IntMatrix:
    try:
        rows = tuple(tuple(entry for entry in row) for row in matrix)
    except TypeError:
        raise InvalidCartan("Cartan matrix must be a square array of integers") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise InvalidCartan("Cartan matrix must be square and non-empty")
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidCartan(f"entry ({i},{j}) is not an integer")
            if i == j and v != 2:
                raise InvalidCartan(f"diagonal entry ({i},{i}) must be 2, got {v}")
            if i != j and v > 0:
                raise InvalidCartan(f"off-diagonal entry ({i},{j}) must be <= 0")
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise InvalidCartan(f"zero pattern not symmetric at ({i},{j})")
    return rows


def _check_finite_type(a: IntMatrix) -> None:
    """Reject Cartan matrices that are not of finite type.

    A generalized Cartan matrix is finite type exactly when it is
    symmetrizable with a positive-definite symmetrization; positive
    definiteness is checked by exact Gaussian elimination (all pivots
    positive).
    """
    n = len(a)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if a[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * a[i][j] / a[j][i]
                    queue.append(j)
    for i in range(n):
        for j in range(n):
            if d[i] * a[i][j] != d[j] * a[j][i]:
                raise InvalidCartan("matrix is not symmetrizable")

    b = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = b[k][k]
        if pivot <= 0:
            raise InvalidCartan("matrix is not of finite type")
        for i in range(k + 1, n):
            if b[i][k] == 0:
                continue
            factor = b[i][k] / pivot
            for j in range(k, n):
                b[i][j] -= factor * b[k][j]


def _generate_positive_roots(a: IntMatrix):
    """Close the simple roots under simple reflections.

    Roots are tracked as (coefficients over simple roots, coefficients of
    the coroot over simple coroots); the two reflect in dual coordinates,
    keeping the pairing data exact for non-simply-laced types.  A root's
    pairings with the simple coroots, its fundamental coordinates, are
    summed over the nonzero entries of the Cartan columns at its nonzero
    coefficients; only a nonzero pairing moves the root, and a move changes
    one coefficient.  Returns the roots, their coroots and their
    fundamental coordinates, all in the same order.
    """
    n = len(a)
    # column j of the Cartan matrix: its nonzero (i, a[i][j])
    columns = [tuple((i, a[i][j]) for i in range(n) if a[i][j]) for j in range(n)]
    roots: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    worklist = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        roots[e] = (e, ())
        worklist.append((e, e))
    while worklist:
        c, k = worklist.pop()
        fund = [0] * n
        for j, cj in enumerate(c):
            if cj:
                for i, aij in columns[j]:
                    fund[i] += aij * cj
        roots[c] = (k, tuple(fund))
        for i, pair in enumerate(fund):
            if not pair or c[i] < pair:  # fixed, or a negative coefficient
                continue
            c2 = c[:i] + (c[i] - pair,) + c[i + 1 :]
            if c2 in roots:
                continue
            copair = sum(aji * k[j] for j, aji in columns[i])
            k2 = k[:i] + (k[i] - copair,) + k[i + 1 :]
            roots[c2] = (k2, ())
            worklist.append((c2, k2))
    # the simple roots are the only roots of height 1, so e_0 ... e_{n-1}
    # come first, in order
    order = sorted(roots, key=lambda c: (sum(c), c[::-1]))
    return (
        tuple(order),
        tuple(roots[c][0] for c in order),
        tuple(roots[c][1] for c in order),
    )


def _sparse_row(row: Sequence[int]) -> _SparseRow:
    return tuple([(i, x) for i, x in enumerate(row) if x])


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data produced by :func:`build_root_system`.

    positive_roots[r] holds integer coefficients over the simple roots,
    coroot_coeffs[r] the coefficients of the coroot over simple coroots,
    root_fund[r] the root written in fundamental-weight coordinates and
    coroot_heights[r] the pairing of the Weyl vector with the coroot.

    The same data in sparse form, derived from the dense rows and not
    compared: _nonzeros[r] is the pair (nonzero (index, coefficient)
    entries of coroot_coeffs[r], those of root_fund[r]).  A Cartan row has
    at most four nonzero entries and most root and coroot rows are mostly
    zeros, so a pairing or a move along a root reads the nonzeros only, as
    in Casselman's root-coordinate tables.
    """

    cartan: IntMatrix
    positive_roots: tuple[tuple[int, ...], ...]
    coroot_coeffs: tuple[tuple[int, ...], ...]
    root_fund: tuple[tuple[int, ...], ...]
    coroot_heights: tuple[int, ...]
    name: str | None = None
    _nonzeros: tuple[tuple[_SparseRow, _SparseRow], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        sparse = tuple(zip(map(_sparse_row, self.coroot_coeffs), map(_sparse_row, self.root_fund)))
        object.__setattr__(self, "_nonzeros", sparse)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def pairing(self, weight: Sequence[Fraction], root_index: int) -> Fraction:
        """Exact pairing of a weight with the coroot of a positive root."""
        if len(weight) != self.rank:
            raise RankMismatch(f"weight has {len(weight)} coordinates, rank is {self.rank}")
        if not 0 <= root_index < self.num_positive:
            raise IndexOutOfRange(f"positive-root index {root_index} out of range")
        # summed over a running common denominator in ints: one Fraction
        # at the end instead of one per coordinate
        num, den = 0, 1
        for i, c in self._nonzeros[root_index][0]:
            w = weight[i]
            n, d = w.numerator, w.denominator
            if d == den:
                num += c * n
            else:
                num, den = num * d + c * n * den, den * d
        return Fraction(num, den)

    def root_index(self, coeffs: Sequence[int]) -> int:
        try:
            return self.positive_roots.index(tuple(coeffs))
        except ValueError:
            raise IndexOutOfRange(f"{tuple(coeffs)} is not a positive root") from None


def build_root_system(kind: str | Sequence[Sequence[int]]) -> RootSystem:
    """Construct the full root-system data for a type name or a Cartan matrix.

    ``kind`` is a named type ("A_2", "G2", an "x"-product such as
    "A_2xA_1") or an explicit square Cartan matrix.  Positive roots are
    generated by closing the simple roots under simple reflections;
    construction rejects matrices that are not finite type.  The input is
    parsed and validated on every call; the construction is cached on
    (validated matrix, canonical name).
    """
    name: str | None = None
    if isinstance(kind, str):
        factors = _parse_name(kind)
        name = _canonical_name(factors)
        matrix = _validate_cartan_shape(
            _block_diagonal([_named_cartan(letter, n) for letter, n in factors])
        )
    else:
        matrix = _validate_cartan_shape(kind)
    return _root_system(matrix, name)


@lru_cache(maxsize=64)
def _root_system(matrix: IntMatrix, name: str | None) -> RootSystem:
    """Check, generate and construct for a validated matrix.  RootSystem is
    immutable, so the result is cached on the inputs; an error is not
    cached and is raised again on every call.  A named type generating the
    wrong number of roots is a fault in this module, not in the input, so
    it raises RuntimeError."""
    _check_finite_type(matrix)
    positive, coroots, root_fund = _generate_positive_roots(matrix)

    if name is not None and len(positive) != positive_root_count(name):
        raise RuntimeError(
            f"generated {len(positive)} positive roots for {name}, "
            f"expected {positive_root_count(name)}"
        )

    heights = tuple(sum(k) for k in coroots)

    return RootSystem(
        cartan=matrix,
        positive_roots=positive,
        coroot_coeffs=coroots,
        root_fund=root_fund,
        coroot_heights=heights,
        name=name,
    )

