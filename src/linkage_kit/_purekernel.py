"""Pure-Python twin of the compiled search kernel.

Same contract as linkage_kit._speedups but on arbitrary-precision ints;
this module is the fallback selected at import time when the extension is
unavailable and the escape hatch when inputs exceed the compiled kernel's
integer range.  Its gated step (_gated_children) is also the step of the
chain oracle in linkage_kit.oracle.

States are flat tuples of scaled-integer coordinates (see
weights_chars.integer_encoding): embedding sigma owns coordinates
[sigma*rank, (sigma+1)*rank) with a fixed positive denominator
dens[sigma], which no linkage move can change.
"""

from __future__ import annotations

from .errors import OrbitGuardExceeded


def _gated_children(state, num_embeddings, rank, coroots, fund, heights, dens, shifted):
    """Yield (sigma, root, child state) for every dominance-gated dot
    reflection that moves the state."""
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
            yield sigma, r, tuple(child)


def linkage_bfs(num_embeddings, rank, coroots, fund, heights, dens, start, shifted, guard):
    """Downward closure of the start state under gated dot reflections.

    Breadth-first search with an exact-coordinate visited set.  Returns
    (states, parent_state, parent_root): states[0] is the start, and for
    n > 0 the first discovered link into states[n] came from
    states[parent_state[n]] at global root parent_root[n] (encoded as
    sigma * nroots + root index).

    Raises OrbitGuardExceeded when more than ``guard`` states are found.
    """
    nroots = len(heights)
    start = tuple(start)
    index = {start: 0}
    states = [start]
    parent_state = [-1]
    parent_root = [-1]
    head = 0
    while head < len(states):
        state = states[head]
        for sigma, r, child in _gated_children(
            state, num_embeddings, rank, coroots, fund, heights, dens, shifted
        ):
            if child not in index:
                if len(index) >= guard:
                    raise OrbitGuardExceeded(
                        f"linkage search exceeded the visited-state cap {guard}"
                    )
                index[child] = len(states)
                states.append(child)
                parent_state.append(head)
                parent_root.append(sigma * nroots + r)
        head += 1
    return states, parent_state, parent_root
