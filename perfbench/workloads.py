"""Seeded inputs for the four benchmark workloads, and the code that runs one job.

Every workload is a list of jobs.  A job is either a library call
(``strongly_linked_set`` on one character) or one CLI invocation
(``linkage_kit.cli.main(argv)`` with stdout captured).  Inputs depend only
on the workload name and the seed; the program under test never sees the
seed.

The seed changes the inputs without changing how much work they are: the
sweep gets a fresh sample of non-integral characters, and every workload
gets fresh smooth tags (plus, on the CLI, fresh central values and job
order).  The fixed grids and zero weights keep run-to-run cost steady, so
seed-to-seed spread measures the machine, not the draw.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# Modules, not names: calls go through module attributes, so the traced run
# sees the wrappers it installs.
from linkage_kit import cli, linkage, rootsys, weights_chars
from linkage_kit.rationals import format_rational

WORKLOADS = ("sweep", "large_single", "large_product", "cli_mixed")
CONVENTIONS = ("paper", "shifted")

# criterion-5 grid: A_1, A_2, B_2 with 1 and 2 embeddings, coordinates -3..3
SWEEP_GRID = (("A_1", 1), ("A_1", 2), ("A_2", 1), ("A_2", 2), ("B_2", 1), ("B_2", 2))
SWEEP_GRID_RANGE = (-3, 3)
SWEEP_SAMPLE = 1000  # every embedding gets at least one non-integral coordinate
SWEEP_SAMPLE_SYSTEMS = (("A_2", 1), ("A_2", 2), ("B_2", 1), ("B_2", 2), ("G_2", 1), ("G_2", 2))
SWEEP_SAMPLE_DENOMINATORS = (2, 3)

LARGE_SINGLE = (("E_6", 1),)
LARGE_PRODUCT = (("A_3", 3), ("A_4", 2))

# CLI grids: first coordinate is the parabolic index, so it stays >= 0
CLI_PARABOLIC_ROWS = tuple(itertools.product(range(0, 3), range(-2, 3)))  # 15 per embedding
CLI_WITNESS_ROWS = tuple(itertools.product(range(0, 3), repeat=2))  # 9 per embedding
CLI_ORBIT = ("D_5", 1)


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``key`` names the expected output in
    ``expected.json``; ``kind`` selects the runner and the checker."""

    kind: str  # "closure" or "cli"
    key: str
    payload: tuple


@dataclass
class Inputs:
    jobs: list
    contexts: dict  # (root system name, embeddings, central) -> EmbeddingContext


def _tag(rng: random.Random, prefix: str) -> str:
    return f"{prefix}-{rng.getrandbits(32):08x}"


def _context(contexts, name, embeddings, central=0):
    key = (name, embeddings, central)
    if key not in contexts:
        rs = rootsys.build_root_system(name)
        contexts[key] = weights_chars.EmbeddingContext(rs, embeddings, central)
    return contexts[key]


def _char(ctx, rows, tag):
    return weights_chars.LocAnChar(weights_chars.WeightL(ctx, rows), tag)


def _split(flat, rank):
    return tuple(tuple(flat[i : i + rank]) for i in range(0, len(flat), rank))


def _sweep(rng, contexts):
    jobs = []
    lo, hi = SWEEP_GRID_RANGE
    for name, emb in SWEEP_GRID:
        ctx = _context(contexts, name, emb)
        for i, flat in enumerate(itertools.product(range(lo, hi + 1), repeat=ctx.rank * emb)):
            chi = _char(ctx, _split(flat, ctx.rank), "triv")
            for conv in CONVENTIONS:
                jobs.append(Job("closure", f"sweep/{name}x{emb}/{conv}#{i}", (chi, conv)))
    for i in range(SWEEP_SAMPLE):
        name, emb = rng.choice(SWEEP_SAMPLE_SYSTEMS)
        ctx = _context(contexts, name, emb)
        rows = []
        for _ in range(emb):
            d = rng.choice(SWEEP_SAMPLE_DENOMINATORS)
            row = [Fraction(rng.randint(-3 * d, 3 * d), d) for _ in range(ctx.rank)]
            k = rng.randrange(ctx.rank)
            while row[k].denominator == 1:  # every embedding is non-integral
                row[k] = Fraction(rng.randint(-3 * d, 3 * d), d)
            rows.append(tuple(row))
        chi = _char(ctx, tuple(rows), _tag(rng, "s"))
        for conv in CONVENTIONS:
            # no stored answer: the sample is certified at run time
            jobs.append(Job("closure", f"sample/{i}/{conv}", (chi, conv)))
    # not shuffled: the grid part of a pass then does the same work in the
    # same order under every seed, which keeps the tail latency (set by the
    # largest grid closures) from moving with the seed
    return jobs


def _large(rng, contexts, systems):
    jobs = []
    for name, emb in systems:
        ctx = _context(contexts, name, emb)
        chi = weights_chars.LocAnChar(ctx.zero_weight(), _tag(rng, "t"))
        jobs.append(Job("closure", f"large/{name}x{emb}/0/paper", (chi, "paper")))
    rng.shuffle(jobs)
    return jobs


def _cli_job(key, root, emb, rows, command, extra, rng, central=0, parabolic=None):
    smooth, pi = _tag(rng, "chi"), _tag(rng, "pi")
    centrals = [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(central))
        for _ in range(emb)
    ]
    weight = ";".join(
        ",".join(format_rational(x) for x in tuple(row) + c) for row, c in zip(rows, centrals)
    )
    argv = ["--root-system", root, "--embeddings", str(emb), "--central", str(central)]
    if parabolic:
        argv += ["--parabolic", parabolic]
    # "--weight=" form: argparse would read a leading "-3" as an option
    argv += [f"--weight={weight}", "--smooth", smooth, "--pi-tag", pi, "--command", command]
    argv += list(extra)
    spec = {
        "root": root,
        "embeddings": emb,
        "central": central,
        "rows": tuple(tuple(Fraction(x) for x in row) for row in rows),
        "centrals": centrals,
        "smooth": smooth,
        "pi": pi,
        "command": command,
        "oracle": "--oracle" in extra,
        "witness": "--witness" in extra,
    }
    return Job("cli", key, (argv, spec))


def _cli(rng, contexts):
    jobs = []
    for a, b in itertools.product(CLI_PARABOLIC_ROWS, repeat=2):
        jobs.append(
            _cli_job(f"cli/obstructions/B_2x2/{a}{b}", "B_2", 2, (a, b), "obstructions", (),
                     rng, central=1, parabolic="1")
        )
    for a, b in itertools.product(CLI_WITNESS_ROWS, repeat=2):
        jobs.append(
            _cli_job(f"cli/linkset/A_2x2/{a}{b}", "A_2", 2, (a, b), "linkset", ("--witness",), rng)
        )
    for a, b in itertools.product(CLI_PARABOLIC_ROWS, repeat=2):
        jobs.append(
            _cli_job(f"cli/oracle/A_2x2/{a}{b}", "A_2", 2, (a, b), "obstructions", ("--oracle",),
                     rng, parabolic="1")
        )
    name, emb = CLI_ORBIT
    rank = rootsys.build_root_system(name).rank
    jobs.append(_cli_job(f"cli/orbit/{name}x{emb}", name, emb, ((0,) * rank,), "orbit", (), rng))
    # the witness checker rebuilds characters in these contexts
    _context(contexts, "A_2", 2)
    rng.shuffle(jobs)
    return jobs


def build_inputs(workload: str, seed: int) -> Inputs:
    """Generate the workload's jobs from the seed (this is the set-up that
    ``setup_s`` times, after the import)."""
    rng = random.Random(f"{workload}:{seed}")
    contexts: dict = {}
    if workload == "sweep":
        jobs = _sweep(rng, contexts)
    elif workload == "large_single":
        jobs = _large(rng, contexts, LARGE_SINGLE)
    elif workload == "large_product":
        jobs = _large(rng, contexts, LARGE_PRODUCT)
    elif workload == "cli_mixed":
        jobs = _cli(rng, contexts)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return Inputs(jobs, contexts)


def run_job(job: Job):
    """Run one job and return its raw output: a LinkageResult, or
    (exit code, stdout bytes) for a CLI job.  This is the timed call."""
    if job.kind == "closure":
        chi, conv = job.payload
        return linkage.strongly_linked_set(chi, conv)
    argv, _spec = job.payload
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()
