"""Shared helpers for the test suite."""

from fractions import Fraction
from itertools import product

import linkage_kit as lk


def root_system(name):
    return lk.build_root_system(name)


def context(name, embeddings=1, central=0):
    return lk.EmbeddingContext(root_system(name), embeddings, central)


def weight(ctx, rows):
    return lk.WeightL(ctx, tuple(tuple(rows[s]) for s in range(ctx.num_embeddings)))


def char(ctx, rows, tag="t"):
    return lk.LocAnChar(weight(ctx, rows), tag)


def coords_set(chars):
    """Algebraic coordinate tuples of an iterable of characters."""
    return frozenset(c.algebraic.components for c in chars)


def integral_grid(dim, lo=-3, hi=3):
    return list(product(range(lo, hi + 1), repeat=dim))


def random_fraction(rng, max_num=9, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_weight(ctx, rng, integral=False):
    rows = []
    for _ in range(ctx.num_embeddings):
        if integral:
            rows.append(tuple(rng.randint(-6, 6) for _ in range(ctx.dim)))
        else:
            rows.append(tuple(random_fraction(rng) for _ in range(ctx.dim)))
    return lk.WeightL(ctx, tuple(rows))


def simple_perms(rs):
    """Signed permutation of the positive roots induced by each simple
    reflection: ``perms[i][p] = s * (q + 1)`` when s_i maps positive root p
    to s times positive root q."""
    n = rs.rank
    index_of = {c: p for p, c in enumerate(rs.positive_roots)}
    perms = []
    for i in range(n):
        perm = []
        for c in rs.positive_roots:
            pair = sum(rs.cartan[i][j] * c[j] for j in range(n))
            c2 = tuple(x - pair if j == i else x for j, x in enumerate(c))
            if all(x <= 0 for x in c2):
                perm.append(-(index_of[tuple(-x for x in c2)] + 1))
            else:
                perm.append(index_of[c2] + 1)
        perms.append(tuple(perm))
    return tuple(perms)


def simple_root_coords(rs, fund_vector):
    """Solve for coordinates over simple roots given fundamental coords.

    Exact Gaussian elimination on the Cartan matrix; used to verify that
    linkage differences are non-negative integer root combinations.
    """
    n = rs.rank
    aug = [[Fraction(rs.cartan[i][j]) for j in range(n)] + [Fraction(fund_vector[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))
