"""Cross-checks between the compiled kernels and their pure-Python twins."""

import random
from fractions import Fraction

import pytest

import linkage_kit as lk
from linkage_kit import _kernel, _purekernel
from linkage_kit.rootsys import root_tables
from linkage_kit.weights_chars import integer_encoding
from util import char, context, integral_grid

speedups = pytest.importorskip("linkage_kit._speedups")


def kernel_args(name, embeddings, rows, shifted=False):
    ctx = context(name, embeddings=embeddings)
    coroots, fund, heights = root_tables(ctx.base)
    dens, start = integer_encoding(lk.WeightL(ctx, tuple(tuple(r) for r in rows)))
    return (ctx.num_embeddings, ctx.rank, coroots, fund, heights, dens, start, shifted)


CASES = [
    ("A_1", 1, [(3,)]),
    ("A_1", 2, [(0,), (2,)]),
    ("A_2", 1, [(0, 0)]),
    ("A_2", 2, [(1, 2), (0, 0)]),
    ("B_2", 1, [(2, 1)]),
    ("B_2", 2, [(1, 1), (0, 0)]),
    ("G_2", 1, [(1, 1)]),
    ("A_2", 1, [(Fraction(1, 2), 2)]),
    ("B_2", 1, [(Fraction(5, 3), Fraction(1, 3))]),
]


@pytest.mark.parametrize("name,embeddings,rows", CASES)
@pytest.mark.parametrize("shifted", [False, True])
def test_bfs_agreement(name, embeddings, rows, shifted):
    args = kernel_args(name, embeddings, rows, shifted)
    pure = _purekernel.linkage_bfs(*args, 10**6)
    fast = speedups.linkage_bfs(*args, 10**6)
    # identical contract
    assert pure == fast


def test_random_rational_states_agree():
    rng = random.Random(42)
    for _ in range(60):
        name = rng.choice(["A_1", "A_2", "B_2"])
        embeddings = rng.randint(1, 2)
        ctx = context(name, embeddings=embeddings)
        rows = [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(ctx.rank))
            for _ in range(embeddings)
        ]
        args = kernel_args(name, embeddings, rows, shifted=bool(rng.randint(0, 1)))
        assert _purekernel.linkage_bfs(*args, 10**6) == speedups.linkage_bfs(*args, 10**6)


def test_guard_raised_by_both():
    args = kernel_args("B_2", 1, [(0, 0)])
    with pytest.raises(lk.OrbitGuardExceeded):
        _purekernel.linkage_bfs(*args, 3)
    with pytest.raises(lk.OrbitGuardExceeded):
        speedups.linkage_bfs(*args, 3)


def test_compiled_overflow_detected():
    big = 1 << 50  # beyond the compiled 2**40 coordinate range
    args = kernel_args("A_1", 1, [(big,)])
    with pytest.raises(speedups.KernelOverflow):
        speedups.linkage_bfs(*args, 10**6)


def test_shim_falls_back_on_overflow():
    big = 1 << 50
    ctx = context("A_1")
    chi = char(ctx, [(big,)])
    result = lk.strongly_linked_set(chi, "paper")
    assert {c.algebraic.components[0][0] for c in result.members} == {
        Fraction(big),
        Fraction(-big - 2),
    }


def test_shim_matches_pure_for_huge_denominators():
    den = (1 << 21) + 1  # beyond the compiled denominator range
    ctx = context("A_1")
    chi = char(ctx, [(Fraction(1, den),)])
    result = lk.strongly_linked_set(chi, "paper")
    assert result.members == frozenset({chi})


def test_selection_reporting():
    assert _kernel.IMPLEMENTATION in ("cython", "python")
    assert lk.kernel_implementation == _kernel.IMPLEMENTATION
