"""Pure-Python twin of the compiled search kernel.

Same contract as linkage_kit._speedups but on arbitrary-precision ints;
this module is the fallback selected at import time when the extension is
unavailable and the escape hatch when inputs exceed the compiled kernel's
integer range.  Its gated step (_gated_children) is also the step of the
chain oracle in linkage_kit.oracle, and its breadth-first search (bfs)
also closes dot orbits there.

States are flat tuples of scaled-integer coordinates (see
weights_chars.integer_encoding): embedding sigma owns coordinates
[sigma*rank, (sigma+1)*rank) with a fixed positive denominator
dens[sigma], which no linkage move can change.
"""

from __future__ import annotations

from functools import partial

from .errors import OrbitGuardExceeded


def _gated_children(num_embeddings, rank, coroots, fund, heights, dens, shifted, state):
    """Yield (global root index, child state) for every dominance-gated dot
    reflection that moves the state; the index of root r in embedding
    sigma is sigma * nroots + r."""
    nroots = len(heights)
    for sigma in range(num_embeddings):
        base = sigma * rank
        d = dens[sigma]
        for r in range(nroots):
            k = coroots[r]
            num = sum(k[i] * state[base + i] for i in range(rank))
            if num % d:
                continue  # pairing not an integer
            if shifted:
                if num + d * heights[r] <= 0:
                    continue
            elif num < 0:
                continue
            coeff = num // d + heights[r]
            if coeff == 0:
                continue
            f = fund[r]
            child = list(state)
            for i in range(rank):
                child[base + i] -= coeff * d * f[i]
            yield sigma * nroots + r, tuple(child)


def bfs(start, children, guard):
    """Breadth-first closure of ``start`` under ``children``, which maps a
    state to its (label, child state) pairs; states are compared exactly.

    Returns (states, parent_state, parent_label): states[0] is the start,
    and for n > 0 the first discovered edge into states[n] came from
    states[parent_state[n]] with label parent_label[n].

    Raises OrbitGuardExceeded when more than ``guard`` states are found.
    """
    index = {start: 0}
    states = [start]
    parent_state = [-1]
    parent_label = [-1]
    for head, state in enumerate(states):  # grows while it is walked
        for label, child in children(state):
            if child not in index:
                if len(index) >= guard:
                    raise OrbitGuardExceeded(f"search exceeded the visited-state cap {guard}")
                index[child] = len(states)
                states.append(child)
                parent_state.append(head)
                parent_label.append(label)
    return states, parent_state, parent_label


def linkage_bfs(num_embeddings, rank, coroots, fund, heights, dens, start, shifted, guard):
    """Downward closure of the start state under gated dot reflections:
    bfs over _gated_children, so the parent labels are global root indices
    (sigma * nroots + root index)."""
    children = partial(_gated_children, num_embeddings, rank, coroots, fund, heights, dens, shifted)
    return bfs(tuple(start), children, guard)
