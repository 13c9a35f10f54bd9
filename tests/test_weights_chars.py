import random
from decimal import Decimal
from fractions import Fraction

import pytest

import linkage_kit as lk
from linkage_kit.weights_chars import from_integer_encoding, integer_encoding
from util import char, context, random_weight, weight


def test_global_pairing_reads_one_component():
    ctx = context("A_1", embeddings=2)
    lam = weight(ctx, [(3,), (5,)])
    assert lk.global_pairing(lam, lk.GlobalRoot(1, 0)) == 5
    assert lk.global_pairing(lam, lk.GlobalRoot(0, 0)) == 3


def test_global_pairing_rho():
    for name in ("A_2", "B_2", "G_2"):
        ctx = context(name, embeddings=2)
        rho = weight(ctx, [(1,) * ctx.rank] * 2)
        for i in range(ctx.rank):
            for s in range(2):
                assert lk.global_pairing(rho, lk.GlobalRoot(s, i)) == 1


def test_global_pairing_coroot_sum():
    ctx = context("A_2")
    lam = weight(ctx, [(1, 1)])
    highest = ctx.base.root_index((1, 1))
    assert lk.global_pairing(lam, lk.GlobalRoot(0, highest)) == 2


def test_dot_reflect_rank_one():
    ctx = context("A_1")
    lam = weight(ctx, [(3,)])
    assert lk.dot_reflect(lam, lk.GlobalRoot(0, 0)) == weight(ctx, [(-5,)])


def test_dot_reflect_fixed_point():
    for name in ("A_2", "B_2"):
        ctx = context(name, embeddings=2)
        minus_rho = weight(ctx, [(-1,) * ctx.rank] * 2)
        for r in ctx.global_roots():
            assert lk.dot_reflect(minus_rho, r) == minus_rho


def test_dot_reflect_moves_one_embedding():
    ctx = context("A_1", embeddings=2)
    lam = weight(ctx, [(0,), (7,)])
    moved = lk.dot_reflect(lam, lk.GlobalRoot(0, 0))
    assert moved == weight(ctx, [(-2,), (7,)])


def test_dot_action_word_semantics():
    ctx = context("A_2")
    lam = weight(ctx, [(0, 0)])
    r = lk.GlobalRoot(0, 0)
    assert lk.dot_action(lam, []) == lam
    assert lk.dot_action(lam, [r, r]) == lam
    # braid agreement: words for the same group element act identically
    a, b = lk.GlobalRoot(0, 0), lk.GlobalRoot(0, 1)
    assert lk.dot_action(lam, [a, b, a]) == lk.dot_action(lam, [b, a, b])


def test_dot_action_rightmost_first():
    ctx = context("A_2")
    lam = weight(ctx, [(1, 2)])
    a, b = lk.GlobalRoot(0, 0), lk.GlobalRoot(0, 1)
    assert lk.dot_action(lam, [a, b]) == lk.dot_reflect(lk.dot_reflect(lam, b), a)


def test_is_alpha_integral():
    ctx = context("A_1")
    assert not lk.is_alpha_integral(char(ctx, [(Fraction(1, 2),)]), lk.GlobalRoot(0, 0))
    assert lk.is_alpha_integral(char(ctx, [(-7,)]), lk.GlobalRoot(0, 0))

    ctx2 = context("A_2")
    chi = char(ctx2, [(Fraction(1, 3), Fraction(2, 3))])
    highest = ctx2.base.root_index((1, 1))
    assert lk.is_alpha_integral(chi, lk.GlobalRoot(0, highest))
    assert not lk.is_alpha_integral(chi, lk.GlobalRoot(0, 0))


def test_is_alpha_dominant_conventions():
    ctx = context("A_1")
    r = lk.GlobalRoot(0, 0)
    assert lk.is_alpha_dominant(char(ctx, [(0,)]), r, "paper")
    assert lk.is_alpha_dominant(char(ctx, [(0,)]), r, "shifted")
    assert not lk.is_alpha_dominant(char(ctx, [(-1,)]), r, "paper")
    assert not lk.is_alpha_dominant(char(ctx, [(-1,)]), r, "shifted")
    assert not lk.is_alpha_dominant(char(ctx, [(Fraction(1, 2),)]), r, "paper")
    assert not lk.is_alpha_dominant(char(ctx, [(Fraction(1, 2),)]), r, "shifted")
    with pytest.raises(ValueError):
        lk.is_alpha_dominant(char(ctx, [(0,)]), r, "classic")


def test_conventions_differ_on_non_simple_roots():
    # pairing -1 at the highest root of A_2: the shifted gate passes
    # (-1 + height 2 > 0), the plain gate does not
    ctx = context("A_2")
    chi = char(ctx, [(1, -2)])
    r = lk.GlobalRoot(0, ctx.base.root_index((1, 1)))
    assert lk.global_pairing(chi.algebraic, r) == -1
    assert not lk.is_alpha_dominant(chi, r, "paper")
    assert lk.is_alpha_dominant(chi, r, "shifted")


def test_dot_reflect_char():
    ctx = context("A_1")
    r = lk.GlobalRoot(0, 0)
    chi = char(ctx, [(2,)], tag="theta")
    out = lk.dot_reflect_char(chi, r)
    assert out == char(ctx, [(-4,)], tag="theta")
    assert out.smooth_tag == "theta"

    minus_rho = char(ctx, [(-1,)], tag="s")
    assert lk.dot_reflect_char(minus_rho, r) == minus_rho

    with pytest.raises(lk.NotIntegral):
        lk.dot_reflect_char(char(ctx, [(Fraction(1, 2),)]), r)


@pytest.mark.parametrize("name,embeddings", [("A_2", 1), ("B_2", 2), ("G_2", 1)])
def test_dot_reflect_involution(name, embeddings):
    ctx = context(name, embeddings=embeddings)
    rng = random.Random(13)
    for _ in range(40):
        lam = random_weight(ctx, rng)
        for r in ctx.global_roots():
            assert lk.dot_reflect(lk.dot_reflect(lam, r), r) == lam


def test_cross_embedding_commutation():
    ctx = context("A_2", embeddings=3)
    rng = random.Random(17)
    for _ in range(40):
        lam = random_weight(ctx, rng)
        for i in range(ctx.base.num_positive):
            for j in range(ctx.base.num_positive):
                a, b = lk.GlobalRoot(0, i), lk.GlobalRoot(2, j)
                assert lk.dot_reflect(lk.dot_reflect(lam, a), b) == lk.dot_reflect(
                    lk.dot_reflect(lam, b), a
                )


def test_reflected_pairing_identity():
    # pairing of the reflected weight at the same root is
    # -(original pairing) - 2 * height of the coroot
    rng = random.Random(19)
    for name in ("A_2", "B_2", "G_2"):
        ctx = context(name)
        for _ in range(25):
            lam = random_weight(ctx, rng, integral=True)
            for r in ctx.global_roots():
                h = ctx.base.coroot_heights[r.root_index]
                p = lk.global_pairing(lam, r)
                assert lk.global_pairing(lk.dot_reflect(lam, r), r) == -p - 2 * h


def test_central_block_untouched():
    ctx = context("A_1", embeddings=2, central=2)
    lam = weight(ctx, [(3, Fraction(1, 2), 4), (0, 5, 6)])
    moved = lk.dot_reflect(lam, lk.GlobalRoot(0, 0))
    assert moved.central(0) == (Fraction(1, 2), Fraction(4))
    assert moved.central(1) == (Fraction(5), Fraction(6))
    assert moved.semisimple(0) == (Fraction(-5),)
    assert moved.components[1] == lam.components[1]


def test_context_mismatch():
    a = weight(context("A_1", embeddings=1), [(0,)])
    b = weight(context("A_1", embeddings=2), [(0,), (0,)])
    with pytest.raises(lk.ContextMismatch):
        lk.equal_on_center(a, b, lk.ParabolicSubset(a.context, frozenset()))
    with pytest.raises(lk.ContextMismatch):
        lk.global_pairing(a, lk.GlobalRoot(1, 0))
    with pytest.raises(lk.IndexOutOfRange):
        lk.global_pairing(a, lk.GlobalRoot(0, 5))


def test_weight_validation():
    ctx = context("A_2")
    with pytest.raises(ValueError):
        lk.WeightL(ctx, ((Fraction(0),),))  # wrong dimension
    with pytest.raises(ValueError):
        lk.WeightL(ctx, ((0, 0), (0, 0)))  # wrong component count
    with pytest.raises(ValueError):
        lk.EmbeddingContext(ctx.base, 0)


@pytest.mark.parametrize(
    "bad", [0.1, True, "1/2", Decimal("0.5")], ids=["float", "bool", "str", "Decimal"]
)
def test_weight_coordinates_are_exact_numbers_only(bad):
    # a float would enter as its binary fraction, a string or Decimal
    # through Fraction's decimal and exponent grammar
    ctx = context("A_2")
    with pytest.raises(TypeError):
        lk.WeightL(ctx, ((bad, 0),))


def test_int_and_fraction_coordinates_give_equal_weights():
    ctx = context("A_2", embeddings=2)
    a = lk.WeightL(ctx, ((1, -2), (0, 3)))
    b = lk.WeightL(ctx, ((Fraction(1), Fraction(-4, 2)), (Fraction(0), Fraction(3))))
    assert a == b and hash(a) == hash(b)
    assert all(type(x) is Fraction for row in a.components for x in row)


def test_integer_encoding_round_trip():
    rng = random.Random(23)
    ctx = context("B_2", embeddings=2, central=1)
    for _ in range(30):
        lam = random_weight(ctx, rng)
        dens, flat = integer_encoding(lam)
        centrals = tuple(lam.central(s) for s in range(2))
        assert from_integer_encoding(ctx, dens, flat, centrals) == lam
        assert all(d >= 1 for d in dens)
