import dataclasses
import inspect
import itertools
import tracemalloc
from fractions import Fraction

import pytest

import linkage_kit as lk
from linkage_kit.oracle import _gated_children
from linkage_kit.weights_chars import decode_block, encode_row
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
    ctx = context(name, embeddings=embeddings, central=central)
    values = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-2, 3))
    for coords in itertools.product(values, repeat=ctx.rank * embeddings):
        rows = [
            coords[s * ctx.rank : (s + 1) * ctx.rank] + (Fraction(s + 1, 3),) * central
            for s in range(embeddings)
        ]
        lam = weight(ctx, rows)
        assert lk.verify_orbit(lam, lk.dot_orbit(lam))


def test_verify_orbit_rejects_a_missing_member():
    lam = weight(context("B_2", embeddings=2), [(0, 0), (Fraction(1, 2), -1)])
    orbit = lk.dot_orbit(lam)
    assert len(orbit) == 32  # 8 x 4
    for mu in orbit:
        assert not lk.verify_orbit(lam, orbit - {mu})


def test_verify_orbit_rejects_an_extra_weight():
    ctx = context("A_2", embeddings=2)
    lam = weight(ctx, [(0, 0), (0, -1)])
    orbit = lk.dot_orbit(lam)
    # in the orbit of embedding 0's row but not of embedding 1's
    extra = weight(ctx, [(0, 0), (0, 0)])
    assert not lk.verify_orbit(lam, orbit | {extra})
    for mu in orbit:
        assert not lk.verify_orbit(lam, orbit - {mu} | {extra})
    # a weight of another context
    foreign = weight(context("A_2xA_1"), [(0, 0, 0)])
    assert not lk.verify_orbit(lam, orbit - {lam} | {foreign})


# coordinates integral, in 1/2 Z and in 1/3 Z; a row may mix them
STEP_VALUES = sorted({Fraction(k, d) for k in range(-3, 3) for d in (1, 2, 3)})


def step_grid(ctx):
    """Weights of ctx over STEP_VALUES: every row for one embedding; for
    two, each row paired with a fixed shuffle of the rows, central
    coordinate s/3 in embedding s."""
    rows = list(itertools.product(STEP_VALUES, repeat=ctx.rank))
    if ctx.num_embeddings == 1:
        pairs = [(row,) for row in rows]
    else:
        pairs = [(row, rows[(7 * n + 3) % len(rows)]) for n, row in enumerate(rows)]
    central = [(Fraction(s, 3),) * ctx.central_dim for s in range(ctx.num_embeddings)]
    return [weight(ctx, [row + c for row, c in zip(pair, central)]) for pair in pairs]


def step_children(lam, convention):
    """_gated_children's children of lam, decoded, with their root indices."""
    ctx = lam.context
    embeddings = range(ctx.num_embeddings)
    dens, state = zip(*(encode_row(lam.semisimple(sigma)) for sigma in embeddings))
    return sorted(
        (index, tuple(decode_block(d, b) + lam.central(s) for s, d, b in zip(embeddings, dens, child)))
        for index, child in _gated_children(ctx.base, dens, convention, state)
    )


@pytest.mark.parametrize("name", ["A_1", "A_2", "B_2", "G_2"])
@pytest.mark.parametrize("embeddings,central", [(1, 0), (2, 1)])
def test_the_shared_step_is_the_library_step(name, embeddings, central):
    # the oracle and both certificates close on _gated_children: its links
    # are up_link_candidates's under each convention, and the moving
    # simple dot reflections under the orbit gates
    ctx = context(name, embeddings=embeddings, central=central)
    nroots = ctx.base.num_positive
    linked = {"paper": set(), "shifted": set()}  # whether a weight had a link
    for lam in step_grid(ctx):
        chi = lk.LocAnChar(lam, "t")
        for convention in ("paper", "shifted"):
            expected = sorted(
                (r.sigma * nroots + r.root_index, nxt.algebraic.components)
                for r, nxt in lk.up_link_candidates(chi, convention)
            )
            assert step_children(lam, convention) == expected
            linked[convention].add(bool(expected))
        simple = (r for r in ctx.global_roots() if r.root_index < ctx.rank)
        reflected = ((r, lk.dot_reflect(lam, r)) for r in simple)
        expected = sorted(
            (r.sigma * nroots + r.root_index, mu.components) for r, mu in reflected if mu != lam
        )
        assert step_children(lam, None) == expected
    assert linked == {"paper": {False, True}, "shifted": {False, True}}  # open and shut gates


def test_verify_closure_checks_the_convention():
    result = lk.strongly_linked_set(char(context("A_2"), [(0, 0)]), "paper")
    for convention in ("bogus", None, True):
        with pytest.raises(ValueError):
            lk.verify_closure(dataclasses.replace(result, convention=convention))


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


def coords(chi):
    return chi.algebraic.components


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
    ctx = context(name, embeddings=s, central=central)
    chi = char(ctx, rows)
    result = lk.strongly_linked_set(chi, convention)
    assert lk.verify_closure(result)
    assert lk.verify_closure(tampered(result))  # the copy the mutation tests start from
    # and the candidate set of every parabolic index the origin satisfies
    for i in range(ctx.rank):
        p = lk.ParabolicSubset(ctx, frozenset({i}))
        if lk.in_lambda_p_plus(chi.algebraic, p):
            cands = lk.verma_factor_candidates(chi, p, convention)
            assert cands.parabolic == {i}
            assert lk.verify_closure(cands)
            assert lk.verify_closure(tampered(cands))


def b2_candidates():
    """The B_2 x2 closure at ((0,0),(1,2)) and its candidate set for the
    parabolic {1}: 16 of the 64 members."""
    ctx = context("B_2", embeddings=2)
    chi = char(ctx, [(0, 0), (1, 2)])
    full = lk.strongly_linked_set(chi, "paper")
    cands = lk.verma_factor_candidates(chi, lk.ParabolicSubset(ctx, frozenset({1})), "paper")
    assert (len(full), len(cands)) == (64, 16)
    return full, cands


def test_verify_closure_accepts_a_candidate_set():
    full, cands = b2_candidates()
    assert lk.verify_closure(full)
    assert lk.verify_closure(cands)
    # the filter is part of the claim: neither set passes as the other
    assert not lk.verify_closure(dataclasses.replace(full, parabolic=cands.parabolic))
    assert not lk.verify_closure(dataclasses.replace(cands, parabolic=frozenset()))


def test_verify_closure_rejects_a_kept_candidate_the_filter_drops():
    full, cands = b2_candidates()
    dropped = full.members - cands.members
    kept = cands.members - {cands.origin}
    chains = {m: full.witness[m] for m in full.members}
    for m in dropped:
        assert not lk.verify_closure(tampered(cands, cands.members | {m}, chains))
    # in place of a kept one, so that the count still matches
    for m, k in zip(sorted(dropped, key=coords), sorted(kept, key=coords)):
        assert not lk.verify_closure(tampered(cands, cands.members - {k} | {m}, chains))


def test_verify_closure_rejects_a_dropped_candidate_the_filter_keeps():
    _, cands = b2_candidates()
    for m in cands.members:
        assert not lk.verify_closure(tampered(cands, cands.members - {m}))


def test_verify_closure_rejects_a_member_outside_the_product():
    # A_2 x2 at ((0,0),(1,-2)): (0,-3) is in the dot orbit of (1,-2) but
    # only in its shifted closure; in place of a member the count matches
    ctx = context("A_2", embeddings=2)
    result = lk.strongly_linked_set(char(ctx, [(0, 0), (1, -2)]), "paper")
    assert len(result) == 18  # 6 x 3
    outside = [
        char(ctx, [(0, 0), (0, -3)]),
        char(ctx, [(7, 7), (1, -2)]),
        char(ctx, [(0, 0), (1, -2)], tag="other"),
        char(context("A_2", embeddings=2, central=1), [(0, 0, 0), (1, -2, 0)]),
    ]
    for extra in outside:
        # the chain of the member with the same rows, if there is one
        twin = next((m for m in result.members if coords(m) == coords(extra)), None)
        for member in result.members - {result.origin, twin}:
            chains = {m: result.witness[m] for m in result.members - {member}}
            chains[extra] = result.witness[twin or member]
            assert not lk.verify_closure(tampered(result, result.members - {member} | {extra}, chains))


def test_verify_closure_rejects_a_parabolic_index_outside_the_context():
    result = lk.strongly_linked_set(char(context("A_2"), [(0, 0)]), "paper")
    for index in (2, -1):
        assert not lk.verify_closure(dataclasses.replace(result, parabolic=frozenset({index})))


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


def test_oracle_never_reaches_the_search_kernel():
    # the certificates and the chain oracle check the kernel's results, so
    # the oracle module binds neither the kernel nor the closure engine on it
    from linkage_kit import _kernel, linkage, oracle

    bound = vars(oracle)
    assert "_kernel" not in bound and "_embedding_closures" not in bound
    assert not any(v is _kernel or v is linkage or v is linkage._embedding_closures for v in bound.values())
    # nor any name imported from the kernel, such as its search
    assert not any(getattr(v, "__module__", None) == _kernel.__name__ for v in bound.values())
    # nor the kernel's reflection table on the root system: the oracle reads
    # the root data (rs._nonzeros) only
    source = inspect.getsource(oracle)
    assert "_table" not in source and "ReflectionTable" not in source
