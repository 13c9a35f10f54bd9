"""Traced run: span wrappers installed on linkage_kit's module attributes.

Nothing under ``src/`` is instrumented.  Each target function is replaced,
for the length of a traced pass, by a wrapper that records a span (name,
start, end, parent, job) in memory.  Modules import these functions by name,
so every ``linkage_kit`` module that binds the same function object is
patched (``linkage.integer_encoding``, ``cli.strongly_linked_set`` and so on),
and the package's own re-exports too.  A target the package no longer has
is reported as absent instead of failing the run.

A span's self time is its duration minus the durations of its direct
children; the self times of one pass plus the time outside every span (the
remainder) add up to the traced pass time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter


def _n_states(args, result):
    return len(result[0])


def _n_result(args, result):
    return len(result)


def _depth(args, result):
    return args[1].max_chain_length


# (span name, module, attribute, per-span count taken from (args, result))
TARGETS = (
    ("rootsys.build_root_system", "linkage_kit.rootsys", "build_root_system", None),
    ("rootsys.root_tables", "linkage_kit.rootsys", "root_tables", None),
    ("rootsys.weyl_generate", "linkage_kit.rootsys", "weyl_generate", _n_result),
    ("rootsys.weyl_apply", "linkage_kit.rootsys", "weyl_apply", None),
    ("weights_chars.integer_encoding", "linkage_kit.weights_chars", "integer_encoding", None),
    ("weights_chars.from_integer_encoding", "linkage_kit.weights_chars", "from_integer_encoding", None),
    ("kernel.linkage_bfs", "linkage_kit._kernel", "linkage_bfs", _n_states),
    ("kernel.chain_endpoints", "linkage_kit._kernel", "chain_endpoints", None),
    ("linkage.strongly_linked_set", "linkage_kit.linkage", "strongly_linked_set", _n_result),
    ("linkage.verma_factor_candidates", "linkage_kit.linkage", "verma_factor_candidates", _n_result),
    ("linkage.noncritical_obstruction_set", "linkage_kit.linkage", "noncritical_obstruction_set", None),
    ("parabolic.in_lambda_p_plus", "linkage_kit.parabolic", "in_lambda_p_plus", None),
    ("parabolic.central_class_key", "linkage_kit.parabolic", "central_class_key", None),
    ("oracle.linkage_by_chains", "linkage_kit.oracle", "linkage_by_chains", _depth),
    ("oracle.stabilized_chain_set", "linkage_kit.oracle", "stabilized_chain_set", None),
    ("oracle.dot_orbit", "linkage_kit.oracle", "dot_orbit", None),
    # argv -> JobSpec is two private steps; both count as "cli.parse"
    ("cli.parse", "linkage_kit.cli", "_parse_args", None),
    ("cli.parse", "linkage_kit.cli", "_job_from_args", None),
    ("cli.normalize", "linkage_kit.cli", "_normalize_job", None),
    ("cli.run", "linkage_kit.cli", "run", None),
    ("cli.render_json", "linkage_kit.cli", "render_json", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# reported as "<name>.self_s" instead of "<name>.s"
SELF_S = (
    "linkage.strongly_linked_set",
    "linkage.verma_factor_candidates",
    "linkage.noncritical_obstruction_set",
    "oracle.stabilized_chain_set",
    "oracle.dot_orbit",
    "cli.run",
)

EXTRA_COUNTS = {
    "rootsys.weyl_generate": "elements",
    "kernel.linkage_bfs": "states",
}


class Tracer:
    """Spans in parallel lists; ``stack`` holds the open span indices."""

    def __init__(self):
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.job: list = []
        self.count: list = []
        self.stack = [-1]
        self.current_job = -1
        self.absent = [f"{t[1]}.{t[2]}" for t in TARGETS if self._lookup(t) is None]

    @staticmethod
    def _lookup(target):
        _, module, attr, _ = target
        try:
            return getattr(importlib.import_module(module), attr, None)
        except ImportError:
            return None

    def _wrap(self, name, fn, count):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.name)
            tr.name.append(name)
            tr.parent.append(tr.stack[-1])
            tr.job.append(tr.current_job)
            tr.count.append(0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if count is not None:
                tr.count[idx] = count(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every present target; restore on exit."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "linkage_kit" or n.startswith("linkage_kit."))
        ]
        patches = []
        for target in TARGETS:
            fn = self._lookup(target)
            if fn is None:
                continue
            wrapper = self._wrap(target[0], fn, target[3])
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, fn in reversed(patches):
                setattr(mod, attr, fn)

    def mark(self) -> int:
        return len(self.name)


def summarize(tr: Tracer, lo: int, hi: int, seconds=lambda start, end: end - start) -> dict:
    """Aggregate spans [lo, hi) by name: total self seconds, calls and
    counts, plus the sums behind the two waste ratios.  ``seconds`` turns a
    span's clock readings into its duration."""
    dur = [seconds(tr.start[i], tr.end[i]) for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = tr.parent[i]
        if p >= lo:
            child[p - lo] += dur[i - lo]
    agg = {name: {"self_s": 0.0, "calls": 0, "count": 0} for name in SPAN_NAMES}
    kept = closure = 0
    depth_sum: dict = {}
    depth_max: dict = {}
    for i in range(lo, hi):
        name = tr.name[i]
        a = agg[name]
        a["self_s"] += dur[i - lo] - child[i - lo]
        a["calls"] += 1
        a["count"] += tr.count[i]
        p = tr.parent[i]
        parent = tr.name[p] if p >= lo else None
        if name == "linkage.verma_factor_candidates":
            kept += tr.count[i]
        elif name == "linkage.strongly_linked_set" and parent == "linkage.verma_factor_candidates":
            closure += tr.count[i]
        elif name == "oracle.linkage_by_chains" and parent == "oracle.stabilized_chain_set":
            depth_sum[p] = depth_sum.get(p, 0) + tr.count[i]
            depth_max[p] = max(depth_max.get(p, 0), tr.count[i])
    return {
        "layers": agg,
        "self_total_s": sum(a["self_s"] for a in agg.values()),
        "kept": kept,
        "closure": closure,
        "depths_enumerated": sum(depth_sum.values()),
        "depths_final": sum(depth_max.values()),
    }
