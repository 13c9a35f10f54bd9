"""The search kernel, in root coordinates, on arbitrary-precision ints.

linkage_bfs closes one embedding's semisimple row under gated dot
reflections: the linkage gates of linkage.strongly_linked_set and the sets
built on it, or the orbit gates of linkage.dot_orbit.  It is the one place
where gates are built and a row is encoded, shifted by rho and decoded.

A state is the row's scaled-integer block (weights_chars.encode_row) with
its positive denominator d, which no linkage move can change, shifted by
rho: key = m + d, which is d*(lambda + rho) in fundamental coordinates.
There a dot reflection is linear and maps each coroot to plus or minus a
coroot, so on the key's signed coroot pairings E a gate is one read of E
and a child is a fixed selection from E.  Both come from the root system's
reflection table rs._table, built once with the root system; its builder,
rootsys._reflection_table, lays out E.  This module holds only the search
loop.
"""

from __future__ import annotations

from .errors import OrbitGuardExceeded
from .weights_chars import decode_block, encode_row


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
    table = rs._table
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
