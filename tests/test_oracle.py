import dataclasses
import itertools
import tracemalloc
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
        lk.dot_orbit(lam, guard=30)  # 6^2 > 30
    # the guard bounds the orbit itself, so a guard equal to its size passes
    assert len(lk.dot_orbit(lam, guard=36)) == 36


def test_dot_orbit_guard_across_embeddings():
    ctx = context("A_2", embeddings=2)
    lam = weight(ctx, [(0, 0), (0, -1)])
    # embedding 0's orbit has 6 members, embedding 1's 3; the product reaches 18
    with pytest.raises(lk.OrbitGuardExceeded, match=r"embeddings 0\.\.1 \(6 x 3 = 18 members\)"):
        lk.dot_orbit(lam, guard=17)
    # one embedding's own orbit past the guard names that embedding
    with pytest.raises(lk.OrbitGuardExceeded, match="embedding 0 exceeded"):
        lk.dot_orbit(lam, guard=5)
    assert len(lk.dot_orbit(lam, guard=18)) == 18


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


def test_chain_levels_are_bounded_by_the_closure():
    # each level is a set of closure states, so the traced peak stays near
    # the size of the 720-member result; one entry per gated sequence
    # peaked near 6 MB here
    chi = char(context("A_5"), [(0,) * 5])
    tracemalloc.start()
    try:
        got = lk.stabilized_chain_set(chi, "paper")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert got == lk.strongly_linked_set(chi, "paper").members
    assert len(got) == 720


def tampered(result, members=None, chains=None):
    """A copy of result with its member set and witness map replaced; the
    chains default to result's own chains of the new members."""
    members = result.members if members is None else frozenset(members)
    chains = {m: result.witness[m] for m in members} if chains is None else chains
    return dataclasses.replace(result, members=members, witness=chains)


def chain(*steps):
    return lk.LinkageChain(tuple(steps))


@pytest.mark.parametrize(
    "name,s,central,rows",
    [
        ("A_1", 1, 0, [(0,)]),
        ("A_2", 1, 0, [(0, 0)]),
        ("A_2", 1, 0, [(1, -2)]),
        ("B_2", 2, 1, [(1, 0, Fraction(1, 3)), (Fraction(1, 2), 2, 0)]),
        ("G_2", 1, 0, [(0, 1)]),
    ],
)
@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_verify_closure_accepts_closures(name, s, central, rows, convention):
    result = lk.strongly_linked_set(char(context(name, embeddings=s, central=central), rows), convention)
    assert lk.verify_closure(result)
    assert lk.verify_closure(tampered(result))  # the copy the mutation tests start from


def test_verify_closure_rejects_a_dropped_member():
    result = lk.strongly_linked_set(char(context("A_2"), [(0, 0)]), "paper")
    for member in result.members:
        assert not lk.verify_closure(tampered(result, result.members - {member}))


def test_verify_closure_rejects_an_added_member():
    # (0,-3) is linked to (1,-2) only under the shifted gate; its shifted
    # chain replays under that gate but not under the paper gate
    chi = char(context("A_2"), [(1, -2)])
    paper = lk.strongly_linked_set(chi, "paper")
    shifted = lk.strongly_linked_set(chi, "shifted")
    (extra,) = shifted.members - paper.members
    chains = {m: paper.witness[m] for m in paper.members}
    chains[extra] = shifted.witness[extra]
    assert not lk.verify_closure(tampered(paper, paper.members | {extra}, chains))
    assert lk.verify_closure(tampered(shifted))


def test_verify_closure_rejects_a_wrong_root():
    result = lk.strongly_linked_set(char(context("A_2"), [(0, 0)]), "paper")
    member = next(m for m in result.members if len(result.witness[m].steps) == 1)
    ((root, to),) = result.witness[member].steps
    for wrong in (
        *(r for r in result.origin.algebraic.context.global_roots() if r != root),
        lk.GlobalRoot(0, 99),  # no such positive root
        lk.GlobalRoot(1, 0),  # no such embedding
    ):
        chains = {m: result.witness[m] for m in result.members}
        chains[member] = chain((wrong, to))
        assert not lk.verify_closure(tampered(result, chains=chains))


def test_verify_closure_rejects_swapped_chains():
    # each chain replays, but to the other member
    result = lk.strongly_linked_set(char(context("A_2"), [(0, 0)]), "paper")
    others = result.members - {result.origin}
    assert len(others) == 5
    for a, b in itertools.combinations(others, 2):
        chains = {m: result.witness[m] for m in result.members}
        chains[a], chains[b] = chains[b], chains[a]
        assert not lk.verify_closure(tampered(result, chains=chains))


def test_verify_closure_rejects_an_ungated_step():
    # the step from -2 back up to 0 is a dot reflection, but its gate is
    # closed under both conventions
    ctx = context("A_1")
    root = lk.GlobalRoot(0, 0)
    zero, low = char(ctx, [(0,)]), char(ctx, [(-2,)])
    assert lk.dot_reflect_char(low, root) == zero
    for convention in ("paper", "shifted"):
        result = lk.strongly_linked_set(zero, convention)
        assert result.members == {zero, low}
        chains = {zero: chain(), low: chain((root, low), (root, zero), (root, low))}
        assert not lk.verify_closure(tampered(result, chains=chains))
        chains[low] = chain((root, low))
        assert lk.verify_closure(tampered(result, chains=chains))


def test_verify_closure_rejects_a_missing_chain():
    result = lk.strongly_linked_set(char(context("B_2"), [(1, 1)]), "paper")
    for member in result.members:
        chains = {m: result.witness[m] for m in result.members if m != member}
        assert not lk.verify_closure(tampered(result, chains=chains))
    origin_dropped = result.members - {result.origin}
    assert not lk.verify_closure(tampered(result, origin_dropped))
