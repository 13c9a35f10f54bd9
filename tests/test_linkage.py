import itertools
from fractions import Fraction

import pytest

import linkage_kit as lk
from util import char, context, coords_set, integral_grid, simple_root_coords


def members_coords(result):
    return coords_set(result.members)


def test_up_link_candidates_examples():
    ctx = context("A_1")
    assert lk.up_link_candidates(char(ctx, [(Fraction(1, 2),)]), "paper") == []

    out = lk.up_link_candidates(char(ctx, [(0,)]), "paper")
    assert len(out) == 1
    r, nxt = out[0]
    assert r == lk.GlobalRoot(0, 0)
    assert nxt.algebraic.components == ((Fraction(-2),),)

    ctx2 = context("A_1", embeddings=2)
    out2 = lk.up_link_candidates(char(ctx2, [(0,), (0,)]), "paper")
    assert [r for r, _ in out2] == [lk.GlobalRoot(0, 0), lk.GlobalRoot(1, 0)]


@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_rank_one_closed_form(convention):
    ctx = context("A_1")
    for lam in range(-10, 11):
        result = lk.strongly_linked_set(char(ctx, [(lam,)]), convention)
        expected = {((Fraction(lam),),)}
        if lam >= 0:
            expected.add(((Fraction(-lam - 2),),))
        assert members_coords(result) == expected


def test_non_integral_is_singleton():
    ctx = context("A_1")
    chi = char(ctx, [(Fraction(1, 2),)])
    result = lk.strongly_linked_set(chi, "paper")
    assert result.members == frozenset({chi})
    assert result.witness[chi].steps == ()


def test_closure_exact_on_big_integers():
    big = 1 << 50  # products of such coordinates overflow 64-bit integers
    chi = char(context("A_1"), [(big,)])
    result = lk.strongly_linked_set(chi, "paper")
    assert {c.algebraic.components[0][0] for c in result.members} == {
        Fraction(big),
        Fraction(-big - 2),
    }


def test_closure_exact_on_huge_denominators():
    den = (1 << 21) + 1
    chi = char(context("A_1"), [(Fraction(1, den),)])
    result = lk.strongly_linked_set(chi, "paper")
    assert result.members == frozenset({chi})


def test_kernel_implementation_is_python():
    assert lk.kernel_implementation == "python"


def test_two_embeddings_product():
    ctx = context("A_1", embeddings=2)
    result = lk.strongly_linked_set(char(ctx, [(0,), (0,)]), "paper")
    assert members_coords(result) == {
        ((Fraction(a),), (Fraction(b),)) for a in (0, -2) for b in (0, -2)
    }


A2_ZERO_ORBIT = {
    ((Fraction(0), Fraction(0)),),
    ((Fraction(-2), Fraction(1)),),
    ((Fraction(1), Fraction(-2)),),
    ((Fraction(0), Fraction(-3)),),
    ((Fraction(-3), Fraction(0)),),
    ((Fraction(-2), Fraction(-2)),),
}


@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_a2_zero_full_orbit(convention):
    ctx = context("A_2")
    result = lk.strongly_linked_set(char(ctx, [(0, 0)]), convention)
    assert members_coords(result) == A2_ZERO_ORBIT


def test_conventions_give_different_sets():
    # the two dominance gates genuinely diverge at non-simple roots: from
    # (1,-2) the highest root has pairing -1, which only the shifted gate
    # opens, adding (0,-3) to the closure
    ctx = context("A_2")
    chi = char(ctx, [(1, -2)])
    paper = members_coords(lk.strongly_linked_set(chi, "paper"))
    shifted = members_coords(lk.strongly_linked_set(chi, "shifted"))
    assert paper == {
        ((Fraction(1), Fraction(-2)),),
        ((Fraction(-3), Fraction(0)),),
        ((Fraction(-2), Fraction(-2)),),
    }
    assert shifted == paper | {((Fraction(0), Fraction(-3)),)}


def test_verma_factors_borel_examples():
    ctx = context("A_1")
    assert members_coords(lk.verma_factors_borel(char(ctx, [(3,)]), "paper")) == {
        ((Fraction(3),),),
        ((Fraction(-5),),),
    }
    minus_rho = char(ctx, [(-1,)])
    assert lk.verma_factors_borel(minus_rho, "paper").members == frozenset({minus_rho})
    assert members_coords(lk.verma_factors_borel(char(ctx, [(-2,)]), "paper")) == {
        ((Fraction(-2),),)
    }


def test_candidates_borel_equals_factors():
    for name, s in (("A_1", 2), ("A_2", 1), ("B_2", 1)):
        ctx = context(name, embeddings=s)
        p = lk.ParabolicSubset(ctx, frozenset())
        for coords in itertools.islice(itertools.product(integral_grid(ctx.rank, -2, 2), repeat=s), 0, None, 7):
            chi = char(ctx, list(coords))
            factors = lk.verma_factors_borel(chi, "paper")
            cands = lk.verma_factor_candidates(chi, p, "paper")
            assert cands.members == factors.members
            assert not cands.upper_bound


def test_candidates_filtering_rank_one():
    ctx = context("A_1")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    result = lk.verma_factor_candidates(char(ctx, [(2,)]), p, "paper")
    assert members_coords(result) == {((Fraction(2),),)}
    assert result.upper_bound


def test_candidates_precondition():
    ctx = context("A_1")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    with pytest.raises(lk.NotParabolicDominant):
        lk.verma_factor_candidates(char(ctx, [(-2,)]), p, "paper")
    with pytest.raises(lk.NotParabolicDominant):
        lk.verma_factor_candidates(char(ctx, [(Fraction(1, 2),)]), p, "paper")


def test_candidates_a2_filter():
    ctx = context("A_2")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    result = lk.verma_factor_candidates(char(ctx, [(0, 0)]), p, "paper")
    # members of the zero orbit whose first coordinate is a non-negative integer
    assert members_coords(result) == {
        ((Fraction(0), Fraction(0)),),
        ((Fraction(1), Fraction(-2)),),
        ((Fraction(0), Fraction(-3)),),
    }
    assert result.upper_bound


def test_obstruction_set_examples():
    ctx = context("A_1")
    borel = lk.ParabolicSubset(ctx, frozenset())
    out = lk.noncritical_obstruction_set(char(ctx, [(2,)], tag="omega"), borel, "pi", "paper")
    assert len(out) == 1
    chi, key = out[0]
    assert chi.algebraic.components == ((Fraction(-4),),)
    assert chi.smooth_tag == "omega"
    assert key == lk.central_class_key(chi, borel, "pi")

    assert lk.noncritical_obstruction_set(
        char(ctx, [(Fraction(1, 2),)]), borel, "pi", "paper"
    ) == []

    full = lk.ParabolicSubset(ctx, frozenset({0}))
    assert lk.noncritical_obstruction_set(char(ctx, [(2,)]), full, "pi", "paper") == []


def test_obstruction_sort_is_deterministic():
    ctx = context("A_2")
    p = lk.ParabolicSubset(ctx, frozenset({0}))
    out1 = lk.noncritical_obstruction_set(char(ctx, [(2, 1)]), p, "pi", "paper")
    out2 = lk.noncritical_obstruction_set(char(ctx, [(2, 1)]), p, "pi", "paper")
    assert [(c, k) for c, k in out1] == [(c, k) for c, k in out2]
    keys = [k for _, k in out1]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "name,s,rows",
    [
        ("A_2", 1, [(0, 0)]),
        ("A_2", 1, [(2, 1)]),
        ("B_2", 1, [(1, 2)]),
        ("B_2", 2, [(0, 0), (1, 1)]),
        ("G_2", 1, [(1, 0)]),
        ("A_2", 2, [(Fraction(1, 2), 1), (0, 0)]),
    ],
)
@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_witness_chains_replay(name, s, rows, convention):
    ctx = context(name, embeddings=s)
    chi = char(ctx, rows)
    result = lk.strongly_linked_set(chi, convention)
    assert lk.verify_closure(result)
    assert result.witness[chi].steps == ()


def test_closure_transitivity():
    ctx = context("B_2")
    chi = char(ctx, [(1, 1)])
    result = lk.strongly_linked_set(chi, "paper")
    for member in result.members:
        inner = lk.strongly_linked_set(member, "paper")
        assert inner.members <= result.members


def test_strict_partial_order():
    ctx = context("A_2")
    for coords in integral_grid(2, -2, 2):
        chi = char(ctx, [coords])
        for member in lk.strongly_linked_set(chi, "paper").members:
            if member != chi:
                back = lk.strongly_linked_set(member, "paper")
                assert chi not in back.members


def test_orbit_confinement_and_tags():
    for name, s in (("A_2", 1), ("B_2", 2)):
        ctx = context(name, embeddings=s)
        chi = char(ctx, [(1,) * ctx.rank] * s, tag="mytag")
        result = lk.strongly_linked_set(chi, "paper")
        orbit = lk.dot_orbit(chi.algebraic)
        for member in result.members:
            assert member.smooth_tag == "mytag"
            assert member.algebraic in orbit


def test_difference_is_nonnegative_root_sum():
    # origin minus member decomposes over simple roots with non-negative
    # integer coefficients, in every embedding
    for name, s in (("A_2", 2), ("B_2", 1), ("G_2", 1)):
        ctx = context(name, embeddings=s)
        chi = char(ctx, [(2,) * ctx.rank] * s)
        result = lk.strongly_linked_set(chi, "paper")
        for member in result.members:
            for sigma in range(s):
                diff = tuple(
                    a - b
                    for a, b in zip(chi.algebraic.semisimple(sigma), member.algebraic.semisimple(sigma))
                )
                coeffs = simple_root_coords(ctx.base, diff)
                assert all(c.denominator == 1 and c >= 0 for c in coeffs)


@pytest.mark.parametrize(
    "name,order",
    [("A_3", 24), ("B_2", 8), ("G_2", 12), ("F_4", 1152)],
)
def test_regular_dominant_closure_is_full_orbit(name, order):
    # from a regular dominant weight every orbit element is reachable, so
    # the closure size equals the Weyl group order
    ctx = context(name)
    chi = char(ctx, [(0,) * ctx.rank])
    for convention in ("paper", "shifted"):
        assert len(lk.strongly_linked_set(chi, convention)) == order


def test_orbit_guard():
    ctx = context("B_2")
    with pytest.raises(lk.OrbitGuardExceeded):
        lk.strongly_linked_set(char(ctx, [(0, 0)]), "paper", guard=3)
    # guard equal to the orbit size passes
    assert len(lk.strongly_linked_set(char(ctx, [(0, 0)]), "paper", guard=8)) == 8


def test_central_block_rides_along():
    ctx = context("A_1", embeddings=2, central=1)
    chi = char(ctx, [(2, Fraction(7, 3)), (0, 5)])
    result = lk.strongly_linked_set(chi, "paper")
    assert len(result) == 4
    for member in result.members:
        assert member.algebraic.central(0) == (Fraction(7, 3),)
        assert member.algebraic.central(1) == (Fraction(5),)


# product closures: repeated blocks, blocks that differ only in their central
# values, non-integral embeddings (denominators 2 and 3) next to integral
# ones, and weights where the two conventions disagree
PRODUCT_GRID = [
    ("A_1", 3, 0, [(0,), (0,), (0,)]),
    ("A_1", 3, 0, [(2,), (Fraction(1, 2),), (-3,)]),
    ("A_1", 3, 1, [(1, Fraction(7, 3)), (1, 5), (Fraction(-1, 3), 0)]),
    ("A_2", 2, 0, [(0, 0), (Fraction(1, 2), Fraction(1, 2))]),
    ("A_2", 2, 0, [(1, -2), (2, 1)]),
    ("A_2", 2, 1, [(Fraction(1, 3), Fraction(2, 3), 4), (0, 0, Fraction(1, 2))]),
    ("A_2", 2, 1, [(1, Fraction(1, 2), 3), (2, 0, Fraction(-1, 3))]),
    ("B_2", 2, 0, [(1, 1), (Fraction(1, 2), 1)]),
    ("B_2", 2, 1, [(0, 0, -1), (0, 0, 2)]),
]


@pytest.mark.parametrize("name,s,central,rows", PRODUCT_GRID)
@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_product_closure_matches_joint_search(name, s, central, rows, convention):
    chi = char(context(name, embeddings=s, central=central), rows)
    result = lk.strongly_linked_set(chi, convention)
    assert result.members == lk.stabilized_chain_set(chi, convention)
    assert lk.verify_closure(result)
    # the linkage and orbit gates of the shared kernel search agree
    assert {m.algebraic for m in result.members} <= lk.dot_orbit(chi.algebraic)
    assert result.origin is chi
    assert any(m is chi for m in result.members)


@pytest.mark.parametrize("name,s,central,rows", PRODUCT_GRID)
@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_lazy_witness_contract(name, s, central, rows, convention):
    chi = char(context(name, embeddings=s, central=central), rows)
    result = lk.strongly_linked_set(chi, convention)
    witness = result.witness
    assert set(witness) == result.members
    assert len(witness) == len(result.members)
    assert witness[chi].steps == ()
    assert lk.verify_closure(result)

    outsider = lk.LocAnChar(chi.algebraic, chi.smooth_tag + "'")
    assert outsider not in witness
    with pytest.raises(KeyError):
        witness[outsider]
    assert witness.get(outsider) is None


def first_dominant_index(rows, rank):
    """The first simple-root index at which every row is a non-negative
    integer, so that it makes a proper parabolic the origin satisfies."""
    return next(
        (i for i in range(rank) if all(Fraction(r[i]).denominator == 1 and r[i] >= 0 for r in rows)),
        None,
    )


PARABOLIC_GRID = [
    (name, s, central, rows, i)
    for name, s, central, rows in PRODUCT_GRID
    if (i := first_dominant_index(rows, context(name).rank)) is not None
]


@pytest.mark.parametrize("name,s,central,rows,index", PARABOLIC_GRID)
@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_candidate_witnesses_are_the_kept_members(name, s, central, rows, index, convention):
    ctx = context(name, embeddings=s, central=central)
    chi = char(ctx, rows)
    p = lk.ParabolicSubset(ctx, frozenset({index}))
    full = lk.strongly_linked_set(chi, convention)
    assert lk.verify_closure(full)
    cands = lk.verma_factor_candidates(chi, p, convention)
    kept = frozenset(m for m in full.members if lk.in_lambda_p_plus(m.algebraic, p))
    assert cands.members == kept
    assert cands.upper_bound
    assert set(cands.witness) == kept
    for member in kept:
        assert cands.witness[member] == full.witness[member]
    for member in full.members - kept:
        with pytest.raises(KeyError):
            cands.witness[member]


def test_guard_across_embeddings():
    ctx = context("A_1", embeddings=3)
    chi = char(ctx, [(0,), (0,), (0,)])
    # each embedding's closure has 2 members; the product reaches 8 in the last
    with pytest.raises(lk.OrbitGuardExceeded, match=r"embeddings 0\.\.2 \(4 x 2 = 8 members\)"):
        lk.strongly_linked_set(chi, "paper", guard=7)
    assert len(lk.strongly_linked_set(chi, "paper", guard=8)) == 8

    # one embedding's own search past the cap names that embedding
    ctx2 = context("A_2", embeddings=2)
    chi2 = char(ctx2, [(Fraction(1, 2), 0), (0, 0)])
    with pytest.raises(lk.OrbitGuardExceeded, match="embedding 1 exceeded"):
        lk.strongly_linked_set(chi2, "paper", guard=5)
