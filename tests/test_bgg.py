"""Strong-linkage closures against the theorem of Bernstein, Gelfand and
Gelfand: for lambda dominant integral, so that lambda + rho is regular and
y -> y.lambda is one to one on W, the simple factors of the Verma module
M(w.lambda) are the L(y.lambda) with y >= w in the Bruhat order (BGG,
Funct. Anal. Appl. 5, 1971; Humphreys, Representations of Semisimple Lie
Algebras in the BGG Category O, ch. 5).

The reference needs no kernel, no gate and no oracle step, only
dot_reflect.  W.lambda is built with one reduced word per element by
breadth-first search over the simple dot reflections, and the lower
interval [e, y] is the set of products of subwords of y's word (the
subword property; Bjorner and Brenti, Combinatorics of Coxeter Groups,
section 2.2).  Over several embeddings the simple reflections of every
embedding are the generators, so the interval is the product of the
per-embedding intervals.

Not covered: singular lambda, whose factors are indexed by the cosets
W/W_lambda, and non-integral lambda, whose factors come from the integral
Weyl group (after Jantzen).
"""

import itertools

import pytest

import linkage_kit as lk
from util import context, weight


def orbit_words(lam):
    """Each element y.lam of the dot orbit, mapped to a reduced word of y
    (a tuple of global simple roots, y = s_word[0] ... s_word[-1])."""
    ctx = lam.context
    simple = [lk.GlobalRoot(s, i) for s in range(ctx.num_embeddings) for i in range(ctx.rank)]
    words = {lam: ()}
    frontier = [lam]
    while frontier:  # level n holds the elements of length n
        found = []
        for mu in frontier:
            for r in simple:
                nu = lk.dot_reflect(mu, r)
                if nu not in words:
                    words[nu] = (r,) + words[mu]
                    found.append(nu)
        frontier = found
    return words


def lower_interval(lam, word):
    """{x.lam : x <= y} for y with the reduced ``word``: the products of
    its subwords, built letter by letter from the right."""
    points = {lam}
    for r in reversed(word):
        points |= {lk.dot_reflect(mu, r) for mu in points}
    return points


def bruhat_upper_sets(lam):
    """Each w.lam mapped to {y.lam : y >= w}."""
    words = orbit_words(lam)
    below = {y: lower_interval(lam, word) for y, word in words.items()}
    return {w: {y for y in words if w in below[y]} for w in words}


def closures(w, convention):
    return {m.algebraic for m in lk.strongly_linked_set(lk.LocAnChar(w, "t"), convention).members}


# (type, lambda, order of W, number of w at which "paper" gives a strict subset)
GRID = [
    ("A_2", (0, 0), 6, 2),
    ("B_2", (0, 0), 8, 4),
    ("G_2", (0, 0), 12, 8),
    ("A_3", (0, 0, 0), 24, 16),
    ("B_3", (0, 0, 0), 48, 40),
    ("A_2", (1, 0), 6, 1),
    ("B_2", (0, 1), 8, 4),
    ("G_2", (1, 1), 12, 6),
]


@pytest.mark.parametrize("name,lam,order,strict", GRID, ids=lambda v: str(v).replace(" ", ""))
def test_closures_against_bruhat_intervals(name, lam, order, strict):
    lam = weight(context(name), [lam])
    above = bruhat_upper_sets(lam)
    assert len(above) == order  # lambda + rho is regular: the orbit is a copy of W
    smaller = 0
    for w, upper in above.items():
        assert closures(w, "shifted") == upper, w
        paper = closures(w, "paper")
        assert paper <= upper, w
        smaller += paper < upper
    assert smaller == strict


def test_closures_over_two_embeddings_are_products_of_intervals():
    ctx = context("A_2", embeddings=2)
    lam = weight(ctx, [(0, 0), (1, 0)])
    above = bruhat_upper_sets(lam)
    assert len(above) == 36
    per_embedding = [bruhat_upper_sets(weight(context("A_2"), [row])) for row in lam.components]
    smaller = 0
    for w, upper in above.items():
        # the upper set of (w_0, w_1) is the product of the two upper sets
        rows = [
            {y.components[0] for y in ups[weight(context("A_2"), [row])]}
            for ups, row in zip(per_embedding, w.components)
        ]
        assert upper == {weight(ctx, list(combo)) for combo in itertools.product(*rows)}
        assert closures(w, "shifted") == upper, w
        paper = closures(w, "paper")
        assert paper <= upper, w
        smaller += paper < upper
    # strict unless strict in neither embedding: 36 - (6 - 2) * (6 - 1)
    assert smaller == 16
