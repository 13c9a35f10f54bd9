import itertools
from fractions import Fraction

import pytest

import linkage_kit as lk
from util import char, context, coords_set, integral_grid, weight


def test_rank_one_chains():
    ctx = context("A_1")
    got = lk.stabilized_chain_set(char(ctx, [(0,)]), "paper")
    assert coords_set(got) == {((Fraction(0),),), ((Fraction(-2),),)}

    got = lk.stabilized_chain_set(char(ctx, [(3,)]), "paper")
    assert coords_set(got) == {((Fraction(3),),), ((Fraction(-5),),)}


def test_config_invariants():
    chi = char(context("A_1"), [(0,)])
    with pytest.raises(ValueError):
        lk.stabilized_chain_set(chi, "bogus")


def test_a2_zero_six_members():
    ctx = context("A_2")
    got = lk.stabilized_chain_set(char(ctx, [(0, 0)]), "paper")
    assert len(got) == 6


@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_matches_bfs_on_small_grid(convention):
    for name in ("A_1", "A_2"):
        ctx = context(name)
        for coords in integral_grid(ctx.rank, -2, 2):
            chi = char(ctx, [coords])
            assert lk.stabilized_chain_set(chi, convention) == lk.strongly_linked_set(
                chi, convention
            ).members


def test_chains_stay_in_dot_orbit():
    ctx = context("B_2")
    chi = char(ctx, [(2, 0)], tag="w")
    got = lk.stabilized_chain_set(chi, "paper")
    orbit = lk.dot_orbit(chi.algebraic)
    for member in got:
        assert member.smooth_tag == "w"
        assert member.algebraic in orbit


def test_dot_orbit_examples():
    ctx1 = context("A_1")
    orbit = lk.dot_orbit(weight(ctx1, [(0,)]))
    assert {w.components for w in orbit} == {((Fraction(0),),), ((Fraction(-2),),)}

    minus_rho = weight(ctx1, [(-1,)])
    assert lk.dot_orbit(minus_rho) == frozenset({minus_rho})

    ctx2 = context("A_2")
    assert len(lk.dot_orbit(weight(ctx2, [(0, 0)]))) == 6
    # singular weight: stabilizer is nontrivial, orbit smaller than the group
    assert len(lk.dot_orbit(weight(ctx2, [(0, -1)]))) == 3


def test_dot_orbit_product_over_embeddings():
    ctx = context("A_2", embeddings=2)
    orbit = lk.dot_orbit(weight(ctx, [(0, 0), (0, -1)]))
    assert len(orbit) == 18  # 6 x 3


def test_dot_orbit_guard():
    ctx = context("A_2", embeddings=2)
    lam = weight(ctx, [(0, 0), (0, 0)])
    with pytest.raises(lk.OrbitGuardExceeded):
        lk.dot_orbit(lam, size_guard=30)  # 6^2 > 30
    # the guard bounds the orbit itself, so a guard equal to its size passes
    assert len(lk.dot_orbit(lam, size_guard=36)) == 36


def test_dot_orbit_guard_across_embeddings():
    ctx = context("A_2", embeddings=2)
    lam = weight(ctx, [(0, 0), (0, -1)])
    # embedding 0's orbit has 6 members, embedding 1's 3; the product reaches 18
    with pytest.raises(lk.OrbitGuardExceeded, match=r"embeddings 0\.\.1 \(6 x 3 = 18 members\)"):
        lk.dot_orbit(lam, size_guard=17)
    # one embedding's own orbit past the guard names that embedding
    with pytest.raises(lk.OrbitGuardExceeded, match="embedding 0 exceeded"):
        lk.dot_orbit(lam, size_guard=5)
    assert len(lk.dot_orbit(lam, size_guard=18)) == 18


@pytest.mark.parametrize(
    "name,embeddings,central",
    [("A_1", 2, 1), ("A_2", 1, 0), ("B_2", 1, 1), ("G_2", 1, 0), ("A_2xA_1", 1, 0)],
)
def test_dot_orbit_certificate(name, embeddings, central):
    # checked with the Fraction-level dot_reflect only: the orbit holds the
    # weight and is closed under the dot reflection at every global root
    ctx = context(name, embeddings=embeddings, central=central)
    roots = ctx.global_roots()
    values = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2, 3))
    for coords in itertools.product(values, repeat=ctx.rank * embeddings):
        rows = [
            coords[s * ctx.rank : (s + 1) * ctx.rank] + (Fraction(s + 1, 3),) * central
            for s in range(embeddings)
        ]
        lam = weight(ctx, rows)
        orbit = lk.dot_orbit(lam)
        assert lam in orbit
        for mu in orbit:
            for r in roots:
                assert lk.dot_reflect(mu, r) in orbit


def test_nonintegral_chain_is_singleton():
    ctx = context("A_1", embeddings=2)
    chi = char(ctx, [(Fraction(1, 2),), (Fraction(1, 3),)])
    assert lk.stabilized_chain_set(chi, "paper") == frozenset({chi})
