"""Output checks for benchmark jobs; they run outside the timed region.

Every job's output is reduced to a member count and a digest of its sorted
member coordinates, and compared with ``expected.json`` (fixed inputs) or
with the certified first-pass answer (seeded inputs).  Witness chains are
replayed through the Fraction-level primitives ``is_alpha_dominant`` and
``dot_reflect_char``, never compared as bytes, because a correct search may
pick a different chain.  A closure is certified when every member's chain
replays from the origin and every gated child of every member is a member:
together these say the member set is exactly the closure, without going
through the integer kernels.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from linkage_kit import linkage, weights_chars
from linkage_kit.errors import LinkageKitError

# every CERTIFY_EVERY-th fixed-input small closure is fully certified (by
# count, not by the seed, so the checks allocate alike under every seed), and
# LARGE_SAMPLE members of a large closure get their chain and children
# checked each pass; the rest of every output is checked by digest
CERTIFY_EVERY = 50
LARGE_SAMPLE = 64
PACKED = 10


def digest(items) -> str:
    return hashlib.sha1(repr(sorted(items)).encode()).hexdigest()[:12]


def flat_coords(rows):
    """Coordinates as one flat tuple of (numerator, denominator) ints."""
    return tuple(v for row in rows for x in row for v in (x.numerator, x.denominator))


def closure_fingerprint(result) -> list:
    members = result.members
    return [len(members), digest(flat_coords(m.algebraic.components) for m in members)]


def replay(origin, steps, member, convention, seen=None) -> bool:
    """Whether a witness chain walks from origin to member through gated,
    moving dot reflections.  ``seen`` memoizes verified steps, since the
    chains of one closure share prefixes."""
    cur = origin
    for root, to in steps:
        edge = (cur, root, to)
        if seen is None or edge not in seen:
            try:
                if not weights_chars.is_alpha_dominant(cur, root, convention):
                    return False
                nxt = weights_chars.dot_reflect_char(cur, root)
            except LinkageKitError:
                return False
            if nxt == cur or nxt != to:
                return False
            if seen is not None:
                seen.add(edge)
        cur = to
    return cur == member


def closed_at(result, member, convention) -> bool:
    return all(c in result.members for _, c in linkage.up_link_candidates(member, convention))


def certify(result, convention, members=None) -> bool:
    """Chains replay and children stay inside, for ``members`` (all by
    default)."""
    seen: set = set()
    for m in result.members if members is None else members:
        chain = result.witness.get(m)
        if chain is None or not replay(result.origin, chain.steps, m, convention, seen):
            return False
        if not closed_at(result, m, convention):
            return False
    return True


class Checker:
    """Holds the reference answers and checks one job output at a time."""

    def __init__(self, expected: dict, contexts: dict, seed: int):
        self.expected = expected
        self.contexts = contexts
        self.certified: dict = {}  # seeded-input key -> fingerprint of the certified answer
        self.closures_seen = 0
        self.rng = random.Random(f"check:{seed}")
        self.problems: list = []

    def want(self, key):
        """Expected [count, digest] for a fixed-input job, or None.  Grid
        jobs ("group#index") are packed per group as 2 hex digits of count
        and the first 8 hex digits of the digest."""
        group, sep, index = key.partition("#")
        if not sep:
            return self.expected.get(key)
        packed = self.expected.get(group)
        if packed is None:
            return None
        i = int(index) * PACKED
        return [int(packed[i : i + 2], 16), packed[i + 2 : i + PACKED]]

    def check(self, job, output) -> bool:
        try:
            ok = (self._closure if job.kind == "closure" else self._cli)(job, output)
        except (LinkageKitError, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            ok, why = False, f"checker raised {exc!r}"  # a malformed output
        else:
            why = "output check failed"
        if not ok and len(self.problems) < 20:
            self.problems.append(f"{job.key}: {why}")
        return ok

    # -- library closures -------------------------------------------------
    def _closure(self, job, result) -> bool:
        chi, conv = job.payload
        if result.origin != chi or chi not in result.members:
            return False
        if any(m.smooth_tag != chi.smooth_tag for m in result.members):
            return False
        got = closure_fingerprint(result)
        want = self.want(job.key)
        large = job.key.startswith("large/")
        if want is None:
            want = self.certified.get(job.key)
            if want is None:  # first sight of a seeded input: certify it fully
                if not certify(result, conv):
                    return False
                self.certified[job.key] = got
                return True
        if got[0] != want[0] or not got[1].startswith(want[1]):
            return False
        if large:
            members = list(result.members)
            sample = self.rng.sample(members, min(LARGE_SAMPLE, len(members)))
            return certify(result, conv, sample)
        self.closures_seen += 1
        if self.closures_seen % CERTIFY_EVERY == 0:
            return certify(result, conv)
        return True

    # -- CLI documents ----------------------------------------------------
    def _cli(self, job, output) -> bool:
        items = cli_items(job, output, self.contexts)
        want = self.want(job.key)
        return items is not None and want is not None and [len(items), digest(items)] == want


def cli_items(job, output, contexts):
    """Validate one CLI document against its job and return the digest
    items (member coordinates, with seeded tags and central values checked
    and then left out), or None when the document is wrong."""
    code, stdout = output
    _argv, spec = job.payload
    if code != 0:
        return None
    doc = json.loads(stdout)
    if doc.get("schema") != "linkage-kit/1" or doc["job"]["command"] != spec["command"]:
        return None
    result, oracle = doc["result"], doc["oracle"]
    if spec["oracle"]:
        if oracle != {"checked": True, "agrees": True, "count": result["count"]}:
            return None
    elif oracle["checked"]:
        return None
    if spec["command"] == "obstructions":
        return _obstructions(spec, result)
    if spec["command"] == "linkset":
        return _linkset(spec, result, contexts)
    return _orbit(result)


def _rows(text_rows):
    return tuple(tuple(Fraction(x) for x in row) for row in text_rows)


def _obstructions(spec, result):
    entries = result["obstructions"]
    if result["count"] != len(entries) or result["unconditionally_noncritical"] != (not entries):
        return None
    if result["upper_bound"] is not True:
        return None
    rank = len(spec["rows"][0])
    centrals = [tuple(c) for c in spec["centrals"]]
    items, order = [], []
    for e in entries:
        rows = _rows(e["coords"])
        if e["smooth_tag"] != spec["smooth"] or [r[rank:] for r in rows] != centrals:
            return None
        tag, smooth, pi, blocks = json.loads(e["central_key"])
        if (tag, smooth, pi) != ("ck1", spec["smooth"], spec["pi"]):
            return None
        reduced = _rows(blocks)
        if [r[rank:] for r in reduced] != centrals:
            return None
        order.append((e["central_key"], flat_coords(rows)))
        items.append(
            (flat_coords(r[:rank] for r in rows), flat_coords(r[:rank] for r in reduced))
        )
    return items if order == sorted(order) else None


def _linkset(spec, result, contexts):
    members = result["members"]
    if result["count"] != len(members):
        return None
    ctx = contexts[(spec["root"], spec["embeddings"], spec["central"])]
    tag = spec["smooth"]

    def char(rows):
        return weights_chars.LocAnChar(weights_chars.WeightL(ctx, rows), tag)

    origin = char(spec["rows"])
    seen: set = set()
    items = []
    for m in members:
        rows = _rows(m["coords"])
        if m["smooth_tag"] != tag:
            return None
        if spec["witness"]:
            steps = [
                (
                    weights_chars.GlobalRoot(s["root"]["sigma"], s["root"]["root_index"]),
                    char(_rows(s["to"])),
                )
                for s in m["witness"]
            ]
            if not replay(origin, steps, char(rows), "paper", seen):
                return None
        items.append(flat_coords(rows))
    return items if items == sorted(items) else None


def _orbit(result):
    members = result["members"]
    if result["count"] != len(members):
        return None
    items = [flat_coords(_rows(m["coords"])) for m in members]
    return items if items == sorted(items) else None
