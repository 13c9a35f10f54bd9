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
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import NamedTuple, Sequence

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


class ReflectionTable(NamedTuple):
    """Root-coordinate tables of one root system; see _reflection_table."""

    sums: tuple[tuple[int, int], ...]
    position: tuple[int, ...]
    picks: tuple[Callable, ...]


def _pick_one(at, E):
    return (E[at],)  # a one-index itemgetter would return a bare value


def _reflection_table(rs: RootSystem) -> ReflectionTable:
    """Reflections of the root system rs as signed permutations of the
    coroot pairings, from its coroot coefficient rows and its root rows in
    fundamental coordinates (simple roots first).

    The pairings q of a shifted block with the positive coroots are laid
    out in coroot-height order, the simple coroots (the block itself)
    first.  ``sums`` holds, for every later coroot beta^vee in that order,
    a pair (p, i) with beta^vee = gamma^vee + alpha_i^vee and gamma^vee at
    place p, so appending q[p] + q[i] for each pair builds q with one
    addition per non-simple coroot.  ``position[r]`` is the place of
    positive root r in q.  With E = q + [-x for x in q], the signed
    pairings, the reflection s_r maps alpha_i^vee to
    alpha_i^vee - <alpha_r, alpha_i^vee> alpha_r^vee, which is plus or
    minus a positive coroot, so ``picks[r](E)`` is the shifted block of
    s_r(key): no multiplication, no overflow.

    This is the root-coordinate representation of Weyl group elements of
    Casselman, "Machine calculations in Weyl groups", Invent. Math. 116
    (1994).  It reads the nonzero entries only (rs._nonzeros): gamma^vee is
    looked for at the indices where beta^vee's coefficient is nonzero, and
    s_r fixes every alpha_i^vee with <alpha_r, alpha_i^vee> = 0.
    """
    coroots = rs.coroot_coeffs
    nroots = len(coroots)
    rank = len(coroots[0])
    # a stable sort keeps the simple coroots (the only ones of height 1) first
    order = sorted(range(nroots), key=lambda b: sum(coroots[b]))
    place = {coroots[b]: p for p, b in enumerate(order)}
    sums = []
    for b in order[rank:]:
        k = coroots[b]
        for i, c in rs._nonzeros[b][0]:
            gamma = k[:i] + (c - 1,) + k[i + 1 :]
            if gamma in place:
                sums.append((place[gamma], i))
                break
    picks = []
    for k, (_, root) in zip(coroots, rs._nonzeros):
        at = list(range(rank))  # simple coroot i sits at place i
        for i, f in root:
            image = [-f * c for c in k]
            image[i] += 1
            image = tuple(image)
            if image in place:
                at[i] = place[image]
            else:
                at[i] = nroots + place[tuple([-c for c in image])]
        picks.append(itemgetter(*at) if rank > 1 else partial(_pick_one, at[0]))
    position = tuple(place[k] for k in coroots)
    return ReflectionTable(tuple(sums), position, tuple(picks))


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data produced by :func:`build_root_system`.

    positive_roots[r] holds integer coefficients over the simple roots,
    coroot_coeffs[r] the coefficients of the coroot over simple coroots,
    root_fund[r] the root written in fundamental-weight coordinates and
    coroot_heights[r] the pairing of the Weyl vector with the coroot.

    Two derived fields, built on construction from the dense rows and
    neither shown nor compared.  _nonzeros[r] is the pair (nonzero
    (index, coefficient) entries of coroot_coeffs[r], those of
    root_fund[r]).  A Cartan row has at most four nonzero entries and most
    root and coroot rows are mostly zeros, so a pairing or a move along a
    root reads the nonzeros only, as in Casselman's root-coordinate
    tables.  _table is the search kernel's reflection table (see
    _reflection_table), built once per root system.
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
    _table: ReflectionTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sparse = tuple(zip(map(_sparse_row, self.coroot_coeffs), map(_sparse_row, self.root_fund)))
        object.__setattr__(self, "_nonzeros", sparse)
        object.__setattr__(self, "_table", _reflection_table(self))

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
    parsed on every call: a name to its canonical form ("A2" is "A_2"),
    a matrix to its validated form, and the construction is cached on
    that (see _root_system).
    """
    if isinstance(kind, str):
        return _root_system(_canonical_name(_parse_name(kind)))
    return _root_system(_validate_cartan_shape(kind))


@lru_cache(maxsize=64)
def _root_system(spec: str | IntMatrix) -> RootSystem:
    """Build, check, generate and construct for a canonical type name or a
    validated matrix.  RootSystem is immutable, so the result, its
    reflection table included, is cached on ``spec``: a cached call on a
    name builds no matrix.  An error is not cached and is raised again on
    every call.  A named type generating the wrong number of roots is a
    fault in this module, not in the input, so it raises RuntimeError."""
    if isinstance(spec, str):
        name = spec
        matrix = _validate_cartan_shape(
            _block_diagonal([_named_cartan(letter, n) for letter, n in _parse_name(name)])
        )
    else:
        name, matrix = None, spec
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

