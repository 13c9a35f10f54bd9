#!/usr/bin/env python3
"""Regenerate perfbench/expected.json, the reference answers of every
fixed-input job, certifying each one before it is recorded.

    python3 perfbench/make_expected.py

Library closures are certified in full (every witness chain replays and
every gated child of every member is a member).  A CLI document is checked
by ``check.cli_items`` and its member set compared with the certified
library closure it reports: the closure itself for ``linkset`` and
``orbit`` (the dot orbit of a regular dominant weight is its closure), the
parabolic-dominant members other than the origin for ``obstructions``.
Only the coordinates of the recorded entries depend on this; tags, central
values and order are seeded and checked at run time.
"""

from __future__ import annotations

import json
import sys

import run

lk = run.import_package()

import check  # noqa: E402  (needs the package path set up by run)
import workloads  # noqa: E402
from linkage_kit import linkage, parabolic, weights_chars  # noqa: E402


def _closure_of(spec, ctx_central):
    rows = tuple(tuple(r) + tuple(c) for r, c in zip(spec["rows"], spec["centrals"]))
    chi = weights_chars.LocAnChar(weights_chars.WeightL(ctx_central, rows), spec["smooth"])
    result = linkage.strongly_linked_set(chi, "paper")
    if not check.certify(result, "paper"):
        raise SystemExit(f"closure of {rows} failed its certificate")
    return chi, result


def _cli_reference(job):
    _argv, spec = job.payload
    rs = lk.build_root_system(spec["root"])
    ctx = weights_chars.EmbeddingContext(rs, spec["embeddings"], spec["central"])
    chi, result = _closure_of(spec, ctx)
    rank = rs.rank
    if spec["command"] == "obstructions":
        p = parabolic.ParabolicSubset(ctx, frozenset({0}))
        members = [m for m in result.members if m != chi and parabolic.in_lambda_p_plus(m.algebraic, p)]
        return sorted(check.flat_coords(r[:rank] for r in m.algebraic.components) for m in members)
    return sorted(check.flat_coords(m.algebraic.components) for m in result.members)


def main() -> int:
    expected: dict = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.build_inputs(workload, run.DEFAULT_SEED)
        groups: dict = {}
        for job in inputs.jobs:
            if job.key.startswith("sample/"):
                continue
            out = workloads.run_job(job)
            if job.kind == "closure":
                chi, conv = job.payload
                if not check.certify(out, conv):
                    raise SystemExit(f"{job.key}: closure failed its certificate")
                fp = check.closure_fingerprint(out)
                group, sep, index = job.key.partition("#")
                if sep:
                    groups.setdefault(group, {})[int(index)] = f"{fp[0]:02x}{fp[1][:8]}"
                else:
                    expected[job.key] = fp
            else:
                items = check.cli_items(job, out, inputs.contexts)
                if items is None:
                    raise SystemExit(f"{job.key}: CLI document failed its checks")
                ref = _cli_reference(job)
                if job.payload[1]["command"] == "obstructions":
                    items_members = sorted(i[0] for i in items)
                else:
                    items_members = sorted(items)
                if items_members != ref:
                    raise SystemExit(f"{job.key}: CLI members differ from the certified closure")
                expected[job.key] = [len(items), check.digest(items)]
        for group, entries in groups.items():
            expected[group] = "".join(entries[i] for i in range(len(entries)))
        print(f"{workload}: done", file=sys.stderr)
    path = run.HERE / "expected.json"
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(expected)} entries to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
