import itertools
import json
import random
from fractions import Fraction

import pytest

import linkage_kit as lk
from linkage_kit.linkage import char_sort_key
from linkage_kit.rationals import format_rational
from util import char, context, random_weight, weight


def borel(ctx):
    return lk.ParabolicSubset(ctx, frozenset())


def test_indices_validated():
    ctx = context("A_2")
    with pytest.raises(lk.IndexOutOfRange):
        lk.ParabolicSubset(ctx, frozenset({2}))
    assert lk.ParabolicSubset(ctx, frozenset({0, 1})).indices == {0, 1}


def test_in_lambda_p_plus_borel_is_vacuous():
    ctx = context("A_2", embeddings=2)
    rng = random.Random(3)
    for _ in range(20):
        assert lk.in_lambda_p_plus(random_weight(ctx, rng), borel(ctx))


def test_in_lambda_p_plus_examples():
    ctx = context("A_2")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    assert lk.in_lambda_p_plus(weight(ctx, [(0, 0)]), p)  # shifted pairing 1
    assert not lk.in_lambda_p_plus(weight(ctx, [(-1, 0)]), p)  # shifted pairing 0
    assert not lk.in_lambda_p_plus(weight(ctx, [(Fraction(1, 2), 0)]), p)
    assert lk.in_lambda_p_plus(weight(ctx, [(5, -7)]), p)  # only index 0 matters


def test_in_lambda_p_plus_all_embeddings():
    ctx = context("A_2", embeddings=2)
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    assert lk.in_lambda_p_plus(weight(ctx, [(0, 0), (3, -1)]), p)
    assert not lk.in_lambda_p_plus(weight(ctx, [(0, 0), (-1, 0)]), p)


def test_equal_on_center_examples():
    ctx = context("A_2")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    zero = weight(ctx, [(0, 0)])
    # alpha_1 = (2, -1) in fundamental coordinates spans the Levi directions
    assert lk.equal_on_center(zero, zero, p)
    assert lk.equal_on_center(weight(ctx, [(2, -1)]), zero, p)
    assert lk.equal_on_center(weight(ctx, [(1, Fraction(-1, 2))]), zero, p)
    assert not lk.equal_on_center(weight(ctx, [(-1, 2)]), zero, p)  # alpha_2
    assert not lk.equal_on_center(weight(ctx, [(1, 1)]), zero, p)


def test_equal_on_center_full_subset():
    # I = all simple roots: any rational root combination vanishes on the center
    ctx = context("B_2")
    p = lk.ParabolicSubset(ctx, frozenset({0, 1}))
    rng = random.Random(5)
    for _ in range(20):
        lam = random_weight(ctx, rng)
        c0 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        c1 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        shift = tuple(
            c0 * a + c1 * b
            for a, b in zip(ctx.base.root_fund[0], ctx.base.root_fund[1])
        )
        mu = weight(ctx, [tuple(x + s for x, s in zip(lam.components[0], shift))])
        assert lk.equal_on_center(lam, mu, p)


def test_equal_on_center_borel_is_equality():
    ctx = context("A_2", embeddings=2)
    rng = random.Random(7)
    p = borel(ctx)
    for _ in range(20):
        lam = random_weight(ctx, rng)
        assert lk.equal_on_center(lam, lam, p)
        mu = random_weight(ctx, rng)
        assert lk.equal_on_center(lam, mu, p) == (lam == mu)


def test_equal_on_center_central_block():
    ctx = context("A_2", central=1)
    p = lk.ParabolicSubset(ctx, frozenset({0, 1}))
    lam = weight(ctx, [(0, 0, 1)])
    mu = weight(ctx, [(2, -1, 1)])
    nu = weight(ctx, [(2, -1, 2)])
    assert lk.equal_on_center(lam, mu, p)
    assert not lk.equal_on_center(lam, nu, p)  # central coordinates differ


def _planted_triple(ctx, p, rng):
    """Triple of weights where each consecutive pair is related by a Levi
    root shift half of the time."""
    base_ctx = ctx.base

    def maybe_shift(lam):
        if rng.random() < 0.5:
            shift = [Fraction(0)] * ctx.dim
            for i in p.indices:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for j in range(base_ctx.rank):
                    shift[j] += c * base_ctx.root_fund[i][j]
            rows = [
                tuple(x + s for x, s in zip(lam.components[0], shift))
            ]
            return weight(ctx, rows)
        return random_weight(ctx, rng)

    a = random_weight(ctx, rng)
    b = maybe_shift(a)
    c = maybe_shift(b)
    return a, b, c


def test_equal_on_center_is_equivalence():
    ctx = context("A_2")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    rng = random.Random(11)
    for _ in range(120):
        a, b, c = _planted_triple(ctx, p, rng)
        assert lk.equal_on_center(a, a, p)
        assert lk.equal_on_center(a, b, p) == lk.equal_on_center(b, a, p)
        if lk.equal_on_center(a, b, p) and lk.equal_on_center(b, c, p):
            assert lk.equal_on_center(a, c, p)


def test_central_class_key_matches_equal_on_center():
    ctx = context("A_2")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    rng = random.Random(13)
    for _ in range(120):
        a, b, _ = _planted_triple(ctx, p, rng)
        ka = lk.central_class_key(lk.LocAnChar(a, "t"), p, "pi")
        kb = lk.central_class_key(lk.LocAnChar(b, "t"), p, "pi")
        assert (ka == kb) == lk.equal_on_center(a, b, p)


def test_central_class_key_examples():
    ctx = context("A_2")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    k0 = lk.central_class_key(char(ctx, [(0, 0)]), p, "pi")
    k1 = lk.central_class_key(char(ctx, [(2, -1)]), p, "pi")
    k2 = lk.central_class_key(char(ctx, [(4, -2)]), p, "pi")
    assert k0 == k1 == k2
    assert lk.central_class_key(char(ctx, [(-1, 2)]), p, "pi") != k0
    # tags separate keys even with equal algebraic parts
    assert lk.central_class_key(char(ctx, [(0, 0)], tag="a"), p, "pi") != lk.central_class_key(
        char(ctx, [(0, 0)], tag="b"), p, "pi"
    )
    assert lk.central_class_key(char(ctx, [(0, 0)]), p, "x") != lk.central_class_key(
        char(ctx, [(0, 0)]), p, "y"
    )


def test_obstruction_keys_past_the_int_str_limit():
    # the member -10**4300 - 1 has one digit more than int-to-str allows
    ctx = context("A_1")
    chi = char(ctx, [(10**4300 - 1,)])
    p = lk.ParabolicSubset(ctx, frozenset())
    ((member, key),) = lk.noncritical_obstruction_set(chi, p, "pi", "paper")
    assert member.algebraic.components == ((-(10**4300) - 1,),)
    assert '"-1' + "0" * 4299 + '1/1"' in key


def test_central_class_key_is_serializable():
    import json

    ctx = context("B_2", embeddings=2, central=1)
    p = lk.ParabolicSubset(ctx, frozenset({1}))
    chi = char(ctx, [(1, 2, Fraction(1, 2)), (0, 0, 0)], tag="t|weird;tag")
    key = lk.central_class_key(chi, p, 'pi"quote')
    assert isinstance(key, str)
    json.loads(key)  # canonical keys are themselves valid JSON


def _reference_key(chi, p, pi_tag):
    """central_class_key's definition, written out: json.dumps of the head
    and one reduced block per embedding."""
    rank = p.context.rank
    blocks = [
        [format_rational(x) for x in (*p.reduce_mod_levi(row[:rank]), *row[rank:])]
        for row in chi.algebraic.components
    ]
    return json.dumps(
        ["ck1", chi.smooth_tag, pi_tag, blocks], separators=(",", ":"), sort_keys=True
    )


# (type, embeddings, central, rows per embedding); coordinate 0 is a
# non-negative integer, so every character is dominant for the parabolic {1}
_KEY_GRID = [
    ("B_2", 2, 1, [(0, 0, 0), (1, 2, Fraction(1, 2)), (0, 1, -3)]),
    ("A_2", 2, 0, [(0, 0), (0, 1), (2, Fraction(-1, 3))]),
    ("A_3", 1, 2, [(0, 0, 0, 1, 0), (1, 0, 2, Fraction(2, 5), -1), (0, 2, 1, 0, 0)]),
    ("G_2", 2, 1, [(0, 0, Fraction(-1, 2)), (1, 1, 0), (0, Fraction(1, 2), 7)]),
    ("C_3", 1, 0, [(0, 0, 0), (1, 1, 0), (2, 0, Fraction(3, 2))]),
]


@pytest.mark.parametrize("convention", ["paper", "shifted"])
@pytest.mark.parametrize("name,embeddings,central,rows", _KEY_GRID, ids=[g[0] for g in _KEY_GRID])
def test_obstruction_keys_are_the_reference_bytes(name, embeddings, central, rows, convention):
    ctx = context(name, embeddings=embeddings, central=central)
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    seen = 0
    for combo in itertools.product(rows, repeat=embeddings):
        chi = char(ctx, list(combo), tag="t")
        out = lk.noncritical_obstruction_set(chi, p, "pi", convention)
        for m, key in out:
            assert key == _reference_key(m, p, "pi") == lk.central_class_key(m, p, "pi")
        # exactly the candidate set less the highest weight, in key order
        members = [m for m, _ in out]
        assert len(set(members)) == len(members)
        assert set(members) == lk.verma_factor_candidates(chi, p, convention).members - {chi}
        assert out == sorted(out, key=lambda item: (item[1], char_sort_key(item[0])))
        seen += len(out)
    assert seen > 0


@pytest.mark.parametrize("tag", ['q"\\', "θ", "é 漢"])
def test_keys_escape_tags_as_json_does(tag):
    ctx = context("B_2", embeddings=2, central=1)
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    chi = char(ctx, [(1, 2, Fraction(1, 2)), (0, 1, -3)], tag=tag)
    assert lk.central_class_key(chi, p, tag) == _reference_key(chi, p, tag)
    out = lk.noncritical_obstruction_set(chi, p, tag, "paper")
    assert out
    for m, key in out:
        assert m.smooth_tag == tag
        assert key == _reference_key(m, p, tag)
