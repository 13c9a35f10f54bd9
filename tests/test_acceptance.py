"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its time budget (run with `pytest -s tests/test_acceptance.py`
to see the lines)."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import linkage_kit as lk
from linkage_kit.cli import jobspec_from_dict, render_json, run
from util import char, context, coords_set, integral_grid, weight


@contextmanager
def criterion(number, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget_s
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"[acceptance] criterion {number} ({name}): {verdict} ({dt:.2f}s, budget {budget_s}s)")
    assert ok, f"criterion {number} took {dt:.2f}s, budget {budget_s}s"


def grid_chars(name, embeddings, lo=-3, hi=3):
    ctx = context(name, embeddings=embeddings)
    rank = ctx.rank
    for flat in itertools.product(range(lo, hi + 1), repeat=rank * embeddings):
        rows = tuple(flat[s * rank : (s + 1) * rank] for s in range(embeddings))
        yield lk.LocAnChar(lk.WeightL(ctx, rows), "t")


def test_criterion_1_rank_one_closed_form():
    with criterion(1, "rank-1 closed form", 1.0):
        ctx = context("A_1")
        for convention in ("paper", "shifted"):
            for lam in range(-10, 11):
                got = coords_set(lk.strongly_linked_set(char(ctx, [(lam,)]), convention).members)
                expected = {((Fraction(lam),),)}
                if lam >= 0:
                    expected.add(((Fraction(-lam - 2),),))
                assert got == expected


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence", 60.0):
        for name in ("A_1", "A_2", "B_2"):
            for embeddings in (1, 2):
                for chi in grid_chars(name, embeddings):
                    for convention in ("paper", "shifted"):
                        bfs = lk.strongly_linked_set(chi, convention).members
                        chains = lk.stabilized_chain_set(chi, convention)
                        assert bfs == chains, (name, embeddings, chi, convention)


def test_criterion_3_product_decomposition():
    with criterion(3, "product decomposition", 30.0):
        rng = random.Random(2024)
        for name in ("A_1", "A_2"):
            base_ctx = context(name)
            rank = base_ctx.rank
            per_weight = {}
            for row in integral_grid(rank):
                members = lk.strongly_linked_set(char(base_ctx, [row]), "paper").members
                per_weight[row] = {m.algebraic.components[0] for m in members}

            rows_pool = list(per_weight)
            for embeddings in (2, 3):
                ctx = context(name, embeddings=embeddings)
                if name == "A_1" or embeddings == 2:
                    combos = itertools.product(rows_pool, repeat=embeddings)
                else:
                    # exhaustive triple product is out of budget; fixed seeded sample
                    combos = (
                        tuple(rng.choice(rows_pool) for _ in range(embeddings))
                        for _ in range(400)
                    )
                for combo in combos:
                    chi = char(ctx, list(combo))
                    got = {m.algebraic.components for m in lk.strongly_linked_set(chi, "paper").members}
                    expected = set(itertools.product(*(per_weight[row] for row in combo)))
                    assert got == expected, (name, embeddings, combo)


def test_criterion_4_dot_action_laws():
    with criterion(4, "dot-action laws", 10.0):
        rng = random.Random(7)
        for name in ("A_1", "A_2", "A_3", "B_2"):
            ctx2 = context(name, embeddings=2)
            base = ctx2.base
            n_pos = base.num_positive
            # Coxeter exponents m_ij from the Cartan products
            m_table = {0: 2, 1: 3, 2: 4, 3: 6}
            pairs = [
                (i, j, m_table[base.cartan[i][j] * base.cartan[j][i]])
                for i in range(base.rank)
                for j in range(i + 1, base.rank)
            ]
            for _ in range(1000):
                rows = [
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(base.rank))
                    for _ in range(2)
                ]
                lam = weight(ctx2, rows)

                # involution
                r = lk.GlobalRoot(rng.randrange(2), rng.randrange(n_pos))
                assert lk.dot_reflect(lk.dot_reflect(lam, r), r) == lam

                # cross-embedding commutation
                a = lk.GlobalRoot(0, rng.randrange(n_pos))
                b = lk.GlobalRoot(1, rng.randrange(n_pos))
                assert lk.dot_reflect(lk.dot_reflect(lam, a), b) == lk.dot_reflect(
                    lk.dot_reflect(lam, b), a
                )

                # braid relations: (s_i s_j)^m is the identity on dot orbits
                if pairs:
                    i, j, m = pairs[rng.randrange(len(pairs))]
                    sigma = rng.randrange(2)
                    word = [lk.GlobalRoot(sigma, i), lk.GlobalRoot(sigma, j)] * m
                    assert lk.dot_action(lam, word) == lam


def test_criterion_5_borel_degeneration():
    with criterion(5, "Borel degeneration", 5.0):
        for name in ("A_1", "A_2", "B_2"):
            for embeddings in (1, 2):
                ctx = context(name, embeddings=embeddings)
                borel = lk.ParabolicSubset(ctx, frozenset())
                for chi in grid_chars(name, embeddings):
                    factors = lk.strongly_linked_set(chi, "paper")
                    cands = lk.verma_factor_candidates(chi, borel, "paper")
                    assert cands.members == factors.members
                    assert cands.upper_bound is False


def test_criterion_6_parabolic_filtering():
    with criterion(6, "dominance filter and obstructions", 1.0):
        ctx1 = context("A_1")
        p1 = lk.ParabolicSubset(ctx1, frozenset({0}))
        chi1 = char(ctx1, [(2,)])
        cands = lk.verma_factor_candidates(chi1, p1, "paper")
        assert coords_set(cands.members) == {((Fraction(2),),)}
        assert lk.noncritical_obstruction_set(chi1, p1, "pi", "paper") == []

        ctx2 = context("A_2")
        p2 = lk.ParabolicSubset(ctx2, frozenset({0}))
        chi2 = char(ctx2, [(0, 0)])
        full = lk.strongly_linked_set(chi2, "paper")
        cands2 = lk.verma_factor_candidates(chi2, p2, "paper")

        def gate(member):
            shifted = member.algebraic.components[0][0] + 1
            return shifted.denominator == 1 and shifted > 0

        for member in cands2.members:
            assert gate(member)
        for member in full.members - cands2.members:
            assert not gate(member)
        assert cands2.members < full.members  # the filter really dropped members


def test_criterion_7_central_grouping():
    with criterion(7, "central character grouping", 5.0):
        ctx = context("A_2")
        p = lk.ParabolicSubset(ctx, frozenset({0}))
        base_key = lk.central_class_key(char(ctx, [(0, 0)]), p, "pi")
        for k in (1, 2, 3, -2):
            shifted = char(ctx, [(2 * k, -k)])  # k * alpha_1
            assert lk.central_class_key(shifted, p, "pi") == base_key
        assert lk.central_class_key(char(ctx, [(-1, 2)]), p, "pi") != base_key

        rng = random.Random(99)

        def random_related(lam):
            if rng.random() < 0.5:
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                shift = tuple(c * f for f in ctx.base.root_fund[0])
                return weight(ctx, [tuple(x + s for x, s in zip(lam.components[0], shift))])
            return weight(ctx, [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))])

        for _ in range(500):
            a = weight(ctx, [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))])
            b = random_related(a)
            c = random_related(b)
            assert lk.equal_on_center(a, a, p)
            assert lk.equal_on_center(a, b, p) == lk.equal_on_center(b, a, p)
            if lk.equal_on_center(a, b, p) and lk.equal_on_center(b, c, p):
                assert lk.equal_on_center(a, c, p)
            ka = lk.central_class_key(lk.LocAnChar(a, "t"), p, "pi")
            kb = lk.central_class_key(lk.LocAnChar(b, "t"), p, "pi")
            assert (ka == kb) == lk.equal_on_center(a, b, p)


def _random_jobspec(rng):
    systems = ["A_1", "A_2", "B_2", "A_1xA_1", [[2, -1], [-1, 2]]]
    root = rng.choice(systems)
    rank = {"A_1": 1, "A_2": 2, "B_2": 2, "A_1xA_1": 2}.get(root, 2) if isinstance(root, str) else 2
    embeddings = rng.randint(1, 2)
    central = rng.randint(0, 1)
    command = rng.choice(["linkset", "factors", "candidates", "obstructions", "dominance", "orbit"])
    parabolic = sorted(rng.sample(range(1, rank + 1), rng.randint(0, rank)))

    def coord():
        if command in ("candidates", "obstructions"):
            return str(rng.randint(0, 3))  # keeps the parabolic precondition valid
        if rng.random() < 0.5:
            return str(rng.randint(-6, 6))
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"

    coords = [[coord() for _ in range(rank + central)] for _ in range(embeddings)]
    return jobspec_from_dict(
        {
            "root_system": root,
            "embeddings": embeddings,
            "central": central,
            "parabolic": parabolic,
            "character": {"coords": coords, "smooth_tag": rng.choice(["triv", "theta", "om|x"])},
            "pi_tag": rng.choice(["triv", "pi0"]),
            "convention": rng.choice(["paper", "shifted"]),
            "command": command,
            "oracle": False,
            # witness chains exist only for commands that print members
            "witness": rng.random() < 0.5 and command in ("linkset", "factors", "candidates"),
        }
    )


def test_criterion_8_determinism_and_round_trip():
    with criterion(8, "deterministic output and round-trip", 10.0):
        rng = random.Random(1234)
        for _ in range(100):
            job = _random_jobspec(rng)
            code1, doc1 = run(job)
            code2, doc2 = run(job)
            text1, text2 = render_json(doc1), render_json(doc2)
            assert code1 == code2 == 0
            assert text1 == text2  # byte-identical documents

            echoed = jobspec_from_dict(doc1["job"])
            code3, doc3 = run(echoed)
            assert code3 == 0 and doc3 == doc1
            assert jobspec_from_dict(doc3["job"]) == echoed

            json.loads(text1)  # document is valid JSON


def test_criterion_9_performance_guard():
    with criterion(9, "performance guard", 6.0):
        ctx = context("B_2", embeddings=2)
        chi = char(ctx, [(0, 0), (0, 0)])
        t0 = time.perf_counter()
        result = lk.strongly_linked_set(chi, "paper")
        dt_linkage = time.perf_counter() - t0
        assert len(result) == 64
        assert dt_linkage < 1.0, f"B_2 x2 linkage took {dt_linkage:.3f}s"

        ctx4 = context("A_4")
        t0 = time.perf_counter()
        orbit = lk.dot_orbit(weight(ctx4, [(1, 0, 2, 0)]))
        dt_orbit = time.perf_counter() - t0
        assert len(orbit) == 120
        assert dt_orbit < 5.0, f"A_4 orbit enumeration took {dt_orbit:.3f}s"
