"""The search kernel, in root coordinates, on arbitrary-precision ints.

linkage_bfs closes one embedding's semisimple row under gated dot
reflections: the linkage gates of linkage.strongly_linked_set and the sets
built on it, or the orbit gates of linkage.dot_orbit.  It is the one place
where gates are built and a row is encoded, shifted by rho and decoded.

A state is the row's scaled-integer block (weights_chars.encode_row) with
its positive denominator d, which no linkage move can change, shifted by
rho: key = m + d, which is d*(lambda + rho) in fundamental coordinates.
There a dot reflection is linear and maps each coroot to plus or minus a
coroot, so on the signed pairings E = (q, -q), q[beta] = <key, beta^vee>,
a gate is one read of E and a child is a fixed selection from E (see
reflection_table).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, partial
from operator import itemgetter
from typing import NamedTuple

from .errors import OrbitGuardExceeded
from .weights_chars import decode_block, encode_row


class ReflectionTable(NamedTuple):
    """Root-coordinate tables of one root system; see reflection_table."""

    sums: tuple[tuple[int, int], ...]
    position: tuple[int, ...]
    picks: tuple[Callable, ...]


def reflection_table(rs) -> ReflectionTable:
    """Reflections of the root system rs as signed permutations of the
    coroot pairings, from its coroot coefficient rows and its root rows in
    fundamental coordinates (simple roots first).

    The pairings q of a shifted block with the positive coroots are laid
    out in coroot-height order, the simple coroots (the block itself)
    first.  ``sums`` holds, for every later coroot beta^vee in that order,
    a pair (p, i) with beta^vee = gamma^vee + alpha_i^vee and gamma^vee at
    place p, so appending q[p] + q[i] for each pair builds q with one
    addition per non-simple coroot.  ``position[r]`` is the place of
    positive root r in q.  With E = q + [-x for x in q], the reflection
    s_r maps alpha_i^vee to alpha_i^vee - <alpha_r, alpha_i^vee> alpha_r^vee,
    which is plus or minus a positive coroot, so ``picks[r](E)`` is the
    shifted block of s_r(key): no multiplication, no overflow.

    This is the root-coordinate representation of Weyl group elements of
    Casselman, "Machine calculations in Weyl groups", Invent. Math. 116
    (1994).  A coroot is built only at nonzero entries: gamma^vee is
    looked for at the indices where beta^vee's coefficient is nonzero, and
    s_r fixes every alpha_i^vee with <alpha_r, alpha_i^vee> = 0.  The
    tables are built once per root system, not once per search: they are
    cached on the dense rows, which hash faster as a key than the root
    system's sparse form (rs._nonzeros) would.
    """
    return _build_table(rs.coroot_coeffs, rs.root_fund)


def _pick_one(at, E):
    return (E[at],)  # a one-index itemgetter would return a bare value


@lru_cache(maxsize=64)
def _build_table(coroots, fund) -> ReflectionTable:
    nroots = len(coroots)
    rank = len(coroots[0])
    # a stable sort keeps the simple coroots (the only ones of height 1) first
    order = sorted(range(nroots), key=lambda b: sum(coroots[b]))
    place = {coroots[b]: p for p, b in enumerate(order)}
    sums = []
    for b in order[rank:]:
        k = coroots[b]
        for i, c in enumerate(k):
            if not c:
                continue
            gamma = k[:i] + (c - 1,) + k[i + 1 :]
            if gamma in place:
                sums.append((place[gamma], i))
                break
    picks = []
    for k, root in zip(coroots, fund):
        at = list(range(rank))  # simple coroot i sits at place i
        for i, f in enumerate(root):
            if not f:
                continue
            image = [-f * c for c in k]
            image[i] += 1
            image = tuple(image)
            if image in place:
                at[i] = place[image]
            else:
                at[i] = nroots + place[tuple([-c for c in image])]
        picks.append(itemgetter(*at) if rank > 1 else partial(_pick_one, at[0]))
    position = tuple(place[k] for k in coroots)
    return ReflectionTable(tuple(sums), position, tuple(picks))


def linkage_bfs(rs, row, convention, guard):
    """Breadth-first closure of one embedding's semisimple ``row`` (a
    tuple of Fractions) of root system rs under gated dot reflections.

    Returns (rows, parent_state, parent_label): rows[0] is ``row`` itself,
    and for n > 0 the first discovered edge into rows[n] came from
    rows[parent_state[n]] at root index parent_label[n].  States are
    compared exactly, on their scaled-integer keys.

    Under a linkage convention the gate at root r reads q = <key, r^vee>:
    d must divide q, and q >= d * ht(r^vee) under "paper" (the plain
    pairing is >= 0) or q >= 1 under "shifted".  Either bound excludes
    q = 0, so every gated reflection moves the state.  Convention None
    gives the orbit gates: every simple reflection that moves the state,
    that is q_i != 0, so the closure is the row's dot orbit.

    Raises OrbitGuardExceeded when more than ``guard`` states are found.
    """
    d, nums = encode_row(row)
    table = reflection_table(rs)
    if convention is None:
        # simple coroot i sits at place i, its negative at nroots + i
        nroots = len(table.position)
        gates = [(i, at, 1, table.picks[i]) for i in range(rs.rank) for at in (i, nroots + i)]
        modulus = 1
    else:
        shifted = convention == "shifted"
        gates = [
            (r, table.position[r], 1 if shifted else d * height, table.picks[r])
            for r, height in enumerate(rs.coroot_heights)
        ]
        modulus = d
    sums = table.sums
    start = tuple([x + d for x in nums])
    index = {start: 0}
    keys = [start]
    parent_state = [-1]
    parent_label = [-1]
    for head, key in enumerate(keys):  # grows while it is walked
        q = list(key)
        for p, i in sums:
            q.append(q[p] + q[i])
        q += [-x for x in q]
        for label, at, bound, pick in gates:
            v = q[at]
            if v >= bound and not v % modulus:
                child = pick(q)
                if child not in index:
                    if len(keys) >= guard:
                        raise OrbitGuardExceeded(f"search exceeded the visited-state cap {guard}")
                    index[child] = len(keys)
                    keys.append(child)
                    parent_state.append(head)
                    parent_label.append(label)
    rows = [row]
    rows += [decode_block(d, [x - d for x in key]) for key in keys[1:]]
    return rows, parent_state, parent_label
