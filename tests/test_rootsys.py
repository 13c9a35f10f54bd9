import random
from fractions import Fraction

import pytest

import linkage_kit as lk
from util import context, root_system, simple_perms, weight

# Closed-form positive-root counts, written out independently of the library:
# A_n: n(n+1)/2, B_n/C_n: n^2, D_n: n(n-1), E_6/7/8: 36/63/120, F_4: 24, G_2: 6.
COUNTS = [
    ("A_1", 1),
    ("A_2", 3),
    ("A_3", 6),
    ("A_4", 10),
    ("A_5", 15),
    ("B_2", 4),
    ("B_3", 9),
    ("C_3", 9),
    ("C_4", 16),
    ("D_4", 12),
    ("D_5", 20),
    ("G_2", 6),
    ("F_4", 24),
    ("E_6", 36),
    ("E_7", 63),
    ("E_8", 120),
]

# Weyl group orders: A_n: (n+1)!, B_n/C_n: 2^n n!, D_n: 2^(n-1) n!,
# G_2: 12, F_4: 1152.
ORDERS = [
    ("A_1", 2),
    ("A_2", 6),
    ("A_3", 24),
    ("A_4", 120),
    ("B_2", 8),
    ("B_3", 48),
    ("C_3", 48),
    ("D_4", 192),
    ("G_2", 12),
]


@pytest.mark.parametrize("name,count", COUNTS)
def test_positive_root_counts(name, count):
    assert root_system(name).num_positive == count
    assert lk.positive_root_count(name) == count


@pytest.mark.parametrize(
    "name,count",
    [("A_2xA_1", 4), ("A_1xA_1", 2), ("B_2xG_2", 10), ("A_1xA_1xG_2", 8)],
)
def test_product_counts_are_sums(name, count):
    assert root_system(name).num_positive == count


# Highest roots over the simple roots, written out from the Bourbaki tables,
# whose labeling rootsys uses: B_n's last simple root short, C_n's long, D_n's
# last two the fork, alpha_2 on alpha_4 in E_n, alpha_3 and alpha_4 short in
# F_4, alpha_1 short in G_2.
HIGHEST_ROOTS = (
    [(f"A_{n}", (1,) * n) for n in range(1, 9)]
    + [(f"B_{n}", (1,) + (2,) * (n - 1)) for n in range(2, 9)]
    + [(f"C_{n}", (2,) * (n - 1) + (1,)) for n in range(3, 9)]
    + [(f"D_{n}", (1,) + (2,) * (n - 3) + (1, 1)) for n in range(4, 9)]
    + [
        ("E_6", (1, 2, 2, 3, 2, 1)),
        ("E_7", (2, 2, 3, 4, 3, 2, 1)),
        ("E_8", (2, 3, 4, 6, 5, 4, 3, 2)),
        ("F_4", (2, 3, 4, 2)),
        ("G_2", (3, 2)),
    ]
)


@pytest.mark.parametrize("name,highest", HIGHEST_ROOTS)
def test_highest_root(name, highest):
    roots = root_system(name).positive_roots
    top = max(map(sum, roots))
    assert [c for c in roots if sum(c) == top] == [highest]
    assert roots[-1] == highest  # the roots are ordered by height


def test_simple_roots_are_basis_vectors():
    for name in ("A_3", "B_3", "G_2", "A_2xA_1"):
        rs = root_system(name)
        for i in range(rs.rank):
            expected = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert rs.positive_roots[i] == expected
            assert rs.coroot_coeffs[i] == expected


def test_a1_coroot_is_itself():
    rs = root_system("A_1")
    assert rs.positive_roots == ((1,),)
    assert rs.coroot_coeffs == ((1,),)
    assert rs.root_fund == ((2,),)


def test_a2_root_data():
    rs = root_system("A_2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    # simply laced: coroot coefficients match root coefficients
    assert rs.coroot_coeffs == rs.positive_roots


def test_b2_coroot_duality():
    rs = root_system("B_2")
    data = dict(zip(rs.positive_roots, rs.coroot_coeffs))
    assert data == {(1, 0): (1, 0), (0, 1): (0, 1), (1, 1): (2, 1), (1, 2): (1, 1)}


@pytest.mark.parametrize("name", ["A_3", "B_3", "C_3", "D_4", "G_2", "F_4"])
def test_root_coroot_pairing_is_two(name):
    rs = root_system(name)
    for fund, cor in zip(rs.root_fund, rs.coroot_coeffs):
        assert sum(f * c for f, c in zip(fund, cor)) == 2


def test_named_matrix_matches_explicit():
    named = root_system("A_2")
    explicit = lk.build_root_system([[2, -1], [-1, 2]])
    assert explicit.cartan == named.cartan
    assert explicit.positive_roots == named.positive_roots
    assert explicit.name is None


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -3], [-3, 2]],  # indefinite
        [[2, -2], [-2, 2]],  # affine, determinant zero
        [[2, -1, 0], [-1, 2, -2], [0, -2, 2]],  # affine C_2~
        [[2, 0], [-1, 2]],  # zero pattern not symmetric
        [[2, 1], [-1, 2]],  # positive off-diagonal
        [[1, -1], [-1, 2]],  # wrong diagonal
        [[2, -1]],  # not square
        [["2", "-1"], ["-1", "2"]],  # not integers
        [2, 2],  # rows are not sequences
    ],
)
def test_invalid_cartan(matrix):
    with pytest.raises(lk.InvalidCartan):
        lk.build_root_system(matrix)


@pytest.mark.parametrize("name", ["H_3", "A_0", "B_1", "E_9", "F_5", "Q_2", "A2A1"])
def test_invalid_names(name):
    with pytest.raises(lk.InvalidCartan):
        lk.build_root_system(name)


def test_name_forms():
    assert root_system("A_2").cartan == lk.build_root_system("A2").cartan
    assert lk.build_root_system("A_2xA_1").name == "A_2xA_1"
    assert lk.build_root_system("A2xA1").name == "A_2xA_1"


def test_pairing_examples():
    rs1 = root_system("A_1")
    assert rs1.pairing((Fraction(3),), 0) == 3

    rs2 = root_system("A_2")
    highest = rs2.root_index((1, 1))
    assert rs2.pairing((Fraction(1), Fraction(0)), highest) == 1

    # the Weyl vector pairs to 1 with every simple coroot
    for name in ("A_3", "B_3", "G_2", "F_4"):
        rs = root_system(name)
        for i in range(rs.rank):
            assert rs.pairing((1,) * rs.rank, i) == 1


def test_pairing_errors():
    rs = root_system("A_2")
    with pytest.raises(lk.IndexOutOfRange):
        rs.pairing((Fraction(0), Fraction(0)), 3)
    with pytest.raises(lk.RankMismatch):
        rs.pairing((Fraction(0),), 0)
    with pytest.raises(lk.IndexOutOfRange):
        rs.root_index((5, 5))


@pytest.mark.parametrize("name,order", ORDERS)
def test_weyl_generate_orders(name, order):
    # rho is regular, so the stabilizer of 0 under the dot action is
    # trivial and its dot orbit has exactly one element per group element
    ctx = context(name)
    assert len(lk.dot_orbit(weight(ctx, [(0,) * ctx.rank]))) == order


@pytest.mark.parametrize("name", ["A_3", "B_2", "G_2"])
def test_simple_reflection_permutes_positives(name):
    rs = root_system(name)
    for i, perm in enumerate(simple_perms(rs)):
        # alpha_i goes to its negative, everything else stays positive
        assert perm[i] == -(i + 1)
        for p, v in enumerate(perm):
            if p != i:
                assert v > 0
        assert sorted(abs(v) for v in perm) == list(range(1, rs.num_positive + 1))


@pytest.mark.parametrize("name", ["A_2", "B_2", "G_2"])
def test_reflection_adjoint_identity(name):
    # <s_i.lam + rho, beta_vee> == <lam + rho, s_i(beta)_vee>, with the
    # rho-shifted pairing read as the pairing plus the coroot height
    ctx = context(name)
    rs = ctx.base
    heights = rs.coroot_heights
    perms = simple_perms(rs)
    rng = random.Random(7)
    for _ in range(25):
        lam = weight(
            ctx, [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rs.rank))]
        )
        for i in range(rs.rank):
            refl = lk.dot_reflect(lam, lk.GlobalRoot(0, i))
            for p in range(rs.num_positive):
                v = perms[i][p]
                sign, q = (1, v - 1) if v > 0 else (-1, -v - 1)
                shifted = lk.global_pairing(refl, lk.GlobalRoot(0, p)) + heights[p]
                assert shifted == sign * (lk.global_pairing(lam, lk.GlobalRoot(0, q)) + heights[q])


def test_cache_keeps_validation_per_call():
    lk.build_root_system("A_2")
    affine = [[2, -2], [-2, 2]]  # symmetrizable, but affine A_1
    for _ in range(2):
        with pytest.raises(lk.InvalidCartan):
            lk.build_root_system(affine)


def test_cache_is_keyed_on_the_canonical_spec():
    assert lk.build_root_system([[2, -1], [-1, 2]]) == lk.build_root_system(((2, -1), (-1, 2)))
    assert lk.build_root_system([[2, -1], [-1, 2]]).name is None
    assert lk.build_root_system("A2") == lk.build_root_system("A_2")
    assert lk.build_root_system("A2").name == "A_2"


# Dense references for the sparse form: the root closure, the fundamental
# coordinates and the kernel's tables computed over every coordinate.
SPARSE_SYSTEMS = ["A_20", "A_40", "E_8", "F_4", "G_2", "B_7", "C_6", "D_9", "E_6xA_3"]


def dense_root_data(a):
    """(roots, coroots, root_fund, heights) by closing the simple roots under
    the simple reflections with every pairing a full dot product."""
    n = len(a)
    coroot_of = {}
    todo = []
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        coroot_of[e] = e
        todo.append(e)
    while todo:
        c = todo.pop()
        k = coroot_of[c]
        for i in range(n):
            pair = sum(a[i][j] * c[j] for j in range(n))
            c2 = tuple(x - pair if j == i else x for j, x in enumerate(c))
            if c2 in coroot_of or min(c2) < 0:
                continue
            copair = sum(a[j][i] * k[j] for j in range(n))
            coroot_of[c2] = tuple(x - copair if j == i else x for j, x in enumerate(k))
            todo.append(c2)
    roots = sorted(coroot_of, key=lambda c: (sum(c), c[::-1]))
    coroots = [coroot_of[c] for c in roots]
    fund = [tuple(sum(a[i][j] * c[j] for j in range(n)) for i in range(n)) for c in roots]
    return roots, coroots, fund, [sum(k) for k in coroots]


def dense_table(coroots, fund):
    """(sums, position, picks as index tuples) of the reflection table,
    every candidate coroot built over all coordinates."""
    nroots, rank = len(coroots), len(coroots[0])
    order = sorted(range(nroots), key=lambda b: sum(coroots[b]))
    place = {coroots[b]: p for p, b in enumerate(order)}
    sums = []
    for b in order[rank:]:
        k = coroots[b]
        for i in range(rank):
            gamma = k[:i] + (k[i] - 1,) + k[i + 1 :]
            if gamma in place:
                sums.append((place[gamma], i))
                break
    picks = []
    for root, k in zip(fund, coroots):
        at = []
        for i in range(rank):
            image = tuple(int(j == i) - root[i] * c for j, c in enumerate(k))
            at.append(place[image] if image in place else nroots + place[tuple(-c for c in image)])
        picks.append(tuple(at))
    return tuple(sums), tuple(place[k] for k in coroots), picks


@pytest.mark.parametrize("name", SPARSE_SYSTEMS)
def test_sparse_root_data_matches_dense(name):
    rs = root_system(name)
    for (coroot, root), k, f in zip(rs._nonzeros, rs.coroot_coeffs, rs.root_fund):
        assert coroot == tuple((i, x) for i, x in enumerate(k) if x)
        assert root == tuple((i, x) for i, x in enumerate(f) if x)
    roots, coroots, fund, heights = dense_root_data(rs.cartan)
    assert list(rs.positive_roots) == roots
    assert list(rs.coroot_coeffs) == coroots
    assert list(rs.root_fund) == fund
    assert list(rs.coroot_heights) == heights
    assert rs.num_positive == lk.positive_root_count(name)

    table = rs._table
    sums, position, picks = dense_table(coroots, fund)
    assert table.sums == sums
    assert table.position == position
    E = list(range(2 * rs.num_positive))  # a pick applied to indices returns them
    assert [pick(E) for pick in table.picks] == picks


def test_sparse_form_is_not_compared():
    rs = root_system("B_3")
    assert "_nonzeros" not in repr(rs) and "_table" not in repr(rs)
    direct = lk.RootSystem(
        rs.cartan, rs.positive_roots, rs.coroot_coeffs, rs.root_fund, rs.coroot_heights
    )
    assert direct == lk.build_root_system(rs.cartan)
    assert direct._nonzeros == rs._nonzeros  # derived from the dense rows on construction
    # the table is derived too, with fresh picks: callables that compare and
    # hash by identity, so the equality and hash above ignore it
    assert direct._table is not rs._table
    assert hash(direct) == hash(lk.build_root_system(rs.cartan))
    assert (direct._table.sums, direct._table.position) == (rs._table.sums, rs._table.position)
    E = list(range(2 * rs.num_positive))  # a pick applied to indices returns them
    assert [pick(E) for pick in direct._table.picks] == [pick(E) for pick in rs._table.picks]


def test_cached_name_builds_no_matrix(monkeypatch):
    import linkage_kit.rootsys as rootsys

    first = lk.build_root_system("A2")
    assert lk.build_root_system("A_2") is first  # one object, so one table

    def no_matrix(*args):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr(rootsys, "_block_diagonal", no_matrix)
    monkeypatch.setattr(rootsys, "_validate_cartan_shape", no_matrix)
    assert lk.build_root_system("A2") is first
    assert lk.build_root_system("A_2") is first
