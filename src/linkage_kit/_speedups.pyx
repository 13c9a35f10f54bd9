# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
# Compiled twins of the kernels in _purekernel.py.
#
# States are flat int64 vectors packed into bytes objects, which double as
# hash keys.  cdivision is safe here: division and modulus by a denominator
# are only consumed when the remainder is zero (exact division) or compared
# against zero, and denominators are positive.
#
# Integer ranges: with |state coord| <= 2**40, |table entry| <= 2**7,
# rank <= 2**6 and denominator <= 2**20, every intermediate product stays
# below 2**62.  Inputs or grown states outside these ranges raise
# KernelOverflow and the caller falls back to the pure-Python kernel, so
# exactness never depends on the ranges chosen here.

from libc.stdint cimport int64_t
from libc.stdlib cimport free, malloc
from libc.string cimport memcpy

from cpython.bytes cimport PyBytes_AS_STRING, PyBytes_FromStringAndSize

from .errors import OrbitGuardExceeded


class KernelOverflow(Exception):
    """Inputs exceed the compiled kernel's safe integer range."""


cdef int64_t COORD_LIMIT = <int64_t> 1 << 40
cdef int64_t DEN_LIMIT = 1 << 20
cdef int64_t TABLE_LIMIT = 128
cdef int RANK_LIMIT = 64
cdef int EMB_LIMIT = 64


cdef struct Tables:
    int num_embeddings
    int rank
    int nroots
    int sr                 # num_embeddings * rank
    int64_t *coroots       # nroots x rank
    int64_t *fund          # nroots x rank
    int64_t *heights       # nroots
    int64_t *dens          # num_embeddings


cdef void _free_tables(Tables *t) noexcept:
    free(t.coroots)
    free(t.fund)
    free(t.heights)
    free(t.dens)


cdef int _load_tables(Tables *t, num_embeddings, rank, coroots, fund, heights, dens) except -1:
    cdef int nroots = len(heights)
    cdef int i, r
    cdef long long v
    t.num_embeddings = num_embeddings
    t.rank = rank
    t.nroots = nroots
    t.sr = t.num_embeddings * t.rank
    t.coroots = NULL
    t.fund = NULL
    t.heights = NULL
    t.dens = NULL
    if rank <= 0 or rank > RANK_LIMIT or num_embeddings <= 0 or num_embeddings > EMB_LIMIT:
        raise KernelOverflow("rank or embedding count outside compiled range")
    t.coroots = <int64_t *> malloc(nroots * rank * sizeof(int64_t))
    t.fund = <int64_t *> malloc(nroots * rank * sizeof(int64_t))
    t.heights = <int64_t *> malloc(nroots * sizeof(int64_t))
    t.dens = <int64_t *> malloc(num_embeddings * sizeof(int64_t))
    if t.coroots == NULL or t.fund == NULL or t.heights == NULL or t.dens == NULL:
        _free_tables(t)
        raise MemoryError()
    try:
        for r in range(nroots):
            v = heights[r]
            if v < 0 or v > TABLE_LIMIT:
                raise KernelOverflow("coroot height outside compiled range")
            t.heights[r] = v
            for i in range(rank):
                v = coroots[r][i]
                if v < -TABLE_LIMIT or v > TABLE_LIMIT:
                    raise KernelOverflow("coroot coefficient outside compiled range")
                t.coroots[r * rank + i] = v
                v = fund[r][i]
                if v < -TABLE_LIMIT or v > TABLE_LIMIT:
                    raise KernelOverflow("root coordinate outside compiled range")
                t.fund[r * rank + i] = v
        for i in range(num_embeddings):
            v = dens[i]
            if v <= 0 or v > DEN_LIMIT:
                raise KernelOverflow("denominator outside compiled range")
            t.dens[i] = v
    except BaseException:
        _free_tables(t)
        raise
    return 0


cdef bytes _pack_start(Tables *t, start):
    cdef int64_t *buf = <int64_t *> malloc(t.sr * sizeof(int64_t))
    cdef int i
    cdef long long v
    if buf == NULL:
        raise MemoryError()
    try:
        if len(start) != t.sr:
            raise KernelOverflow("start vector has the wrong length")
        for i in range(t.sr):
            v = start[i]
            if v < -COORD_LIMIT or v > COORD_LIMIT:
                raise KernelOverflow("start coordinate outside compiled range")
            buf[i] = v
        return PyBytes_FromStringAndSize(<char *> buf, t.sr * sizeof(int64_t))
    finally:
        free(buf)


cdef tuple _unpack(Tables *t, bytes key):
    cdef const int64_t *p = <const int64_t *> PyBytes_AS_STRING(key)
    cdef int i
    return tuple(p[i] for i in range(t.sr))


def linkage_bfs(num_embeddings, rank, coroots, fund, heights, dens, start, shifted, guard):
    """Compiled twin of _purekernel.linkage_bfs (same contract)."""
    cdef Tables t
    cdef int do_shift = 1 if shifted else 0
    cdef long long cap = guard
    cdef int sigma, r, i, base
    cdef int64_t num, coeff, d, nv
    cdef const int64_t *cur
    cdef int64_t *child = NULL
    cdef Py_ssize_t head = 0
    cdef bytes key, child_key
    _load_tables(&t, num_embeddings, rank, coroots, fund, heights, dens)
    child = <int64_t *> malloc(t.sr * sizeof(int64_t))
    if child == NULL:
        _free_tables(&t)
        raise MemoryError()
    try:
        key = _pack_start(&t, start)
        index = {key: 0}
        order = [key]
        parent_state = [-1]
        parent_root = [-1]
        while head < len(order):
            key = <bytes> order[head]
            cur = <const int64_t *> PyBytes_AS_STRING(key)
            for sigma in range(t.num_embeddings):
                base = sigma * t.rank
                d = t.dens[sigma]
                for r in range(t.nroots):
                    num = 0
                    for i in range(t.rank):
                        num += t.coroots[r * t.rank + i] * cur[base + i]
                    if num % d != 0:
                        continue
                    if do_shift:
                        if num + d * t.heights[r] <= 0:
                            continue
                    elif num < 0:
                        continue
                    coeff = num / d + t.heights[r]
                    if coeff == 0:
                        continue
                    memcpy(child, cur, t.sr * sizeof(int64_t))
                    for i in range(t.rank):
                        nv = child[base + i] - coeff * d * t.fund[r * t.rank + i]
                        if nv < -COORD_LIMIT or nv > COORD_LIMIT:
                            raise KernelOverflow("state coordinate outside compiled range")
                        child[base + i] = nv
                    child_key = PyBytes_FromStringAndSize(<char *> child, t.sr * sizeof(int64_t))
                    if child_key not in index:
                        if len(index) >= cap:
                            raise OrbitGuardExceeded(
                                f"linkage search exceeded the visited-state cap {guard}"
                            )
                        index[child_key] = len(order)
                        order.append(child_key)
                        parent_state.append(head)
                        parent_root.append(sigma * t.nroots + r)
            head += 1
        states = [_unpack(&t, k) for k in order]
        return states, parent_state, parent_root
    finally:
        free(child)
        _free_tables(&t)
