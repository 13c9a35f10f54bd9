"""The search kernel in root coordinates.

Under the linkage gates, the kernel's search must keep the linkage_bfs
contract (rows, parent arrays, root-index labels and guard) of a
breadth-first search over the oracle's own gate-and-move step, which
computes every pairing as a dot product; and its tables must agree with
the Fraction-level pairing and dot reflection.
"""

import random
from fractions import Fraction

import pytest

import linkage_kit as lk
from linkage_kit import _kernel
from linkage_kit.oracle import _gated_children
from linkage_kit.weights_chars import decode_block, encode_row
from util import context, coords_set, root_system

CONTRACT_SYSTEMS = ["A_1", "A_2", "A_3", "B_2", "B_3", "C_3", "G_2", "F_4", "D_5", "A_2xB_2"]
CAP = 1500  # searches larger than this check that both sides raise


def reference_bfs(rs, row, convention, guard):
    """Breadth-first closure of row over the oracle's step, on one-block
    states; the rows decoded, the parent arrays and the root labels."""
    d, nums = encode_row(row)
    index = {(nums,): 0}
    states = [(nums,)]
    parent_state = [-1]
    parent_label = [-1]
    for head, state in enumerate(states):
        for label, child in _gated_children(rs, (d,), convention, state):
            if child not in index:
                if len(index) >= guard:
                    raise lk.OrbitGuardExceeded(f"search exceeded the visited-state cap {guard}")
                index[child] = len(states)
                states.append(child)
                parent_state.append(head)
                parent_label.append(label)
    return [decode_block(d, block) for (block,) in states], parent_state, parent_label


@pytest.mark.parametrize("name", CONTRACT_SYSTEMS)
@pytest.mark.parametrize("convention", ["paper", "shifted"])
def test_kernel_keeps_the_bfs_contract(name, convention):
    rng = random.Random(f"{name}/{convention}")
    rs = root_system(name)
    ctx = context(name)
    searched = 0
    for _ in range(12):
        d = rng.randint(1, 4)
        row = tuple(Fraction(rng.randint(-3 * d, 3 * d), d) for _ in range(ctx.rank))
        args = (rs, row, convention)
        try:
            expected = reference_bfs(*args, CAP)
        except lk.OrbitGuardExceeded:
            with pytest.raises(lk.OrbitGuardExceeded):
                _kernel.linkage_bfs(*args, CAP)
            continue
        n = len(expected[0])
        assert _kernel.linkage_bfs(*args, n) == expected  # the guard at the cap
        if n > 1:
            with pytest.raises(lk.OrbitGuardExceeded):
                _kernel.linkage_bfs(*args, n - 1)
            searched += 1
    assert searched >= 3


@pytest.mark.parametrize("convention", ["paper", "shifted"])
@pytest.mark.parametrize("lam", range(126, 131))
def test_decode_at_the_edge_of_the_small_integer_table(lam, convention):
    # the kernel decodes integers in -128..128 from a table; s.lam = -lam-2
    # falls outside it from lam = 127 on, and lam itself from 129 on
    ctx = context("A_1")
    result = lk.strongly_linked_set(lk.LocAnChar(lk.WeightL(ctx, ((lam,),)), "t"), convention)
    assert coords_set(result.members) == {((Fraction(lam),),), ((Fraction(-lam - 2),),)}
    assert all(type(x) is Fraction for m in result.members for x in m.algebraic.components[0])


def test_decode_of_a_half_integral_row_beyond_the_table():
    # d = 2: the row is (257/2, 200), encoded as (257, 400); only alpha_2
    # pairs integrally, and s_2 moves it to (659/2, -202)
    ctx = context("A_2")
    lam = lk.WeightL(ctx, ((Fraction(257, 2), 200),))
    moved = lk.dot_reflect(lam, lk.GlobalRoot(0, 1))
    assert moved.components == ((Fraction(659, 2), Fraction(-202)),)
    for convention in ("paper", "shifted"):
        result = lk.strongly_linked_set(lk.LocAnChar(lam, "t"), convention)
        assert coords_set(result.members) == {lam.components, moved.components}
        assert all(type(x) is Fraction for m in result.members for x in m.algebraic.components[0])


TABLE_SYSTEMS = [
    "A_1",
    "B_3",
    "B_4",
    "C_3",
    "C_4",
    "D_4",
    "D_5",
    "E_6",
    "E_7",
    "E_8",
    "F_4",
    "G_2",
    "B_2xG_2",
    ((2, -1, 0), (-2, 2, -1), (0, -1, 2)),  # an explicit matrix: C_3 labelled backwards
]


@pytest.mark.parametrize("spec", TABLE_SYSTEMS, ids=str)
def test_reflection_tables(spec):
    rs = lk.build_root_system(spec)
    coroots, heights = rs.coroot_coeffs, rs.coroot_heights
    table = rs._table
    nroots = len(heights)
    ctx = lk.EmbeddingContext(rs, 1, 0)
    rng = random.Random(str(spec))
    for _ in range(3):
        d = rng.randint(1, 4)
        m = tuple(rng.randint(-5 * d, 5 * d) for _ in range(rs.rank))
        q = [x + d for x in m]
        for p, i in table.sums:
            q.append(q[p] + q[i])
        assert len(q) == nroots
        for r in range(nroots):
            pairing = sum(k * x for k, x in zip(coroots[r], m))
            assert q[table.position[r]] == pairing + d * heights[r]
        E = q + [-x for x in q]
        lam = lk.WeightL(ctx, (tuple(Fraction(x, d) for x in m),))
        for r in range(nroots):
            moved = lk.dot_reflect(lam, lk.GlobalRoot(0, r))
            assert table.picks[r](E) == tuple(d * (x + 1) for x in moved.semisimple(0))
