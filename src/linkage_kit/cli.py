"""Command-line frontend.

Jobs arrive either as flags or as a JSON job file (--job supersedes
flags).  Either way the job is a plain dict, its own document in normal
form (``jobspec_from_dict``); the commands read it, and the output echoes
it under "job" with the root system in canonical form.  Parsing the echo
again returns it unchanged.  Output is a deterministic JSON document on
stdout, byte for byte
``json.dumps(document, indent=2, sort_keys=True)`` (canonical "p/q"
rationals, no timestamps), errors are structured JSON on stderr in the
same form.  Exit codes: 0 success, 2 validation error, 3 guard exhaustion,
4 oracle disagreement; an internal fault (an error no input can cause)
ends the process with a traceback, status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import InvalidCartan, LinkageKitError, OrbitGuardExceeded
from .linkage import (
    DEFAULT_ORBIT_GUARD,
    LinkageResult,
    noncritical_obstruction_set,
    strongly_linked_set,
    verma_factor_candidates,
    verma_factors_borel,
    weight_sort_key,
)
from .oracle import dot_orbit, stabilized_chain_set
from .parabolic import ParabolicSubset, in_lambda_p_plus
from .rationals import format_rational, parse_rational
from .rootsys import build_root_system
from .weights_chars import (
    CONVENTIONS,
    EmbeddingContext,
    LocAnChar,
    WeightL,
    global_pairing,
    is_alpha_dominant,
    is_alpha_integral,
)

SCHEMA = "linkage-kit/1"
COMMANDS = ("linkset", "factors", "candidates", "obstructions", "dominance", "orbit")
# commands built on a linkage closure: the only ones --oracle acts on
CLOSURE_COMMANDS = ("linkset", "factors", "candidates", "obstructions")
# closure commands that print their members: the only ones --witness acts on
WITNESS_COMMANDS = ("linkset", "factors", "candidates")

FORMATS = ("json", "table")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_ORACLE_MISMATCH = 4


class ValidationError(LinkageKitError):
    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
        self.message = message


def _expect(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ValidationError(field, message)


def _as_bool(value, field: str) -> bool:
    _expect(isinstance(value, bool), field, "expected a boolean")
    return value


def _as_int(value, field: str, minimum: int | None = None) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), field, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, field, f"must be >= {minimum}")
    return value


def jobspec_from_dict(data: dict) -> dict:
    """Validate a job document and return the job in normal form.

    The normal form is itself a job document (plain lists, ints, strings
    and booleans): every field present, ``parabolic`` sorted without
    repeats, coordinates as canonical "p/q" strings.  Parsing it again
    returns an equal dict.
    """
    _expect(isinstance(data, dict), "job", "job document must be a JSON object")
    known = {
        "schema",
        "root_system",
        "embeddings",
        "central",
        "parabolic",
        "character",
        "pi_tag",
        "convention",
        "command",
        "oracle",
        "witness",
    }
    for key in data:
        _expect(key in known, key, "unknown job field")
    _expect(data.get("schema", SCHEMA) == SCHEMA, "schema", f"must be {SCHEMA!r}")

    root_system = data.get("root_system")
    if isinstance(root_system, (list, tuple)):
        _expect(
            all(
                isinstance(row, (list, tuple)) and all(type(v) is int for v in row)
                for row in root_system
            ),
            "root_system",
            "matrix entries must be integers",
        )
        root_system = [list(row) for row in root_system]
    elif not isinstance(root_system, str):
        raise ValidationError("root_system", "expected a type name or an integer matrix")

    embeddings = _as_int(data.get("embeddings", 1), "embeddings", minimum=1)
    central = _as_int(data.get("central", 0), "central", minimum=0)

    raw_parabolic = data.get("parabolic", [])
    _expect(isinstance(raw_parabolic, (list, tuple)), "parabolic", "expected a list of indices")
    parabolic = sorted({_as_int(i, "parabolic", minimum=1) for i in raw_parabolic})

    character = data.get("character")
    _expect(isinstance(character, dict), "character", "expected an object with coords and smooth_tag")
    for key in character:
        _expect(key in ("coords", "smooth_tag"), f"character.{key}", "unknown character field")
    raw_coords = character.get("coords")
    _expect(isinstance(raw_coords, (list, tuple)), "character.coords", "expected a list per embedding")
    _expect(
        len(raw_coords) == embeddings,
        "character.coords",
        f"expected {embeddings} coordinate rows, got {len(raw_coords)}",
    )
    coords = []
    for s, row in enumerate(raw_coords):
        _expect(isinstance(row, (list, tuple)), f"character.coords[{s}]", "expected a list")
        parsed = []
        for k, text in enumerate(row):
            try:
                parsed.append(format_rational(parse_rational(text)))
            except ValueError as exc:
                raise ValidationError(f"character.coords[{s}][{k}]", str(exc)) from None
        coords.append(parsed)
    smooth_tag = character.get("smooth_tag", "triv")
    _expect(isinstance(smooth_tag, str), "character.smooth_tag", "expected a string")

    pi_tag = data.get("pi_tag", "triv")
    _expect(isinstance(pi_tag, str), "pi_tag", "expected a string")

    convention = data.get("convention", "paper")
    _expect(convention in CONVENTIONS, "convention", f"must be one of {CONVENTIONS}")

    command = data.get("command")
    _expect(command in COMMANDS, "command", f"must be one of {COMMANDS}")

    oracle = _as_bool(data.get("oracle", False), "oracle")
    witness = _as_bool(data.get("witness", False), "witness")
    for field, flag, commands in (
        ("oracle", oracle, CLOSURE_COMMANDS),
        ("witness", witness, WITNESS_COMMANDS),
    ):
        _expect(
            not flag or command in commands,
            field,
            f"not supported by the {command} command; only by {', '.join(commands)}",
        )

    return {
        "root_system": root_system,
        "embeddings": embeddings,
        "central": central,
        "parabolic": parabolic,
        "character": {"coords": coords, "smooth_tag": smooth_tag},
        "pi_tag": pi_tag,
        "convention": convention,
        "command": command,
        "oracle": oracle,
        "witness": witness,
    }


def _normalize_job(job: dict):
    """Resolve the job against actual root-system data.

    Returns the job with its root system in canonical form (the type name
    as ``build_root_system`` spells it, or the matrix) as a new dict, plus
    the live objects the commands run on; ``job`` itself is not changed.
    """
    try:
        rs = build_root_system(job["root_system"])
    except InvalidCartan as exc:
        raise ValidationError("root_system", str(exc)) from None

    for i in job["parabolic"]:
        _expect(i <= rs.rank, "parabolic", f"index {i} exceeds rank {rs.rank}")

    ctx = EmbeddingContext(rs, job["embeddings"], job["central"])
    dim = ctx.dim
    rows = []
    for s, row in enumerate(job["character"]["coords"]):
        _expect(
            len(row) == dim,
            f"character.coords[{s}]",
            f"expected {dim} coordinates (rank {rs.rank} + central {job['central']}), "
            f"got {len(row)}",
        )
        rows.append(tuple(Fraction(x) for x in row))
    chi = LocAnChar(WeightL(ctx, tuple(rows)), job["character"]["smooth_tag"])
    parabolic = ParabolicSubset(ctx, frozenset(i - 1 for i in job["parabolic"]))
    # candidates and obstructions both need a parabolic-dominant character
    if job["command"] in ("candidates", "obstructions"):
        _expect(
            in_lambda_p_plus(chi.algebraic, parabolic),
            "character.coords",
            "character is not dominant-integral for the parabolic subset",
        )

    root_system = rs.name if rs.name is not None else [list(row) for row in rs.cartan]
    return {**job, "root_system": root_system}, ctx, chi, parabolic


def _coords_doc(weight: WeightL) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in weight.components]


def _witness_doc(chain) -> list[dict]:
    return [
        {
            "root": {"sigma": r.sigma, "root_index": r.root_index},
            "to": _coords_doc(chi.algebraic),
        }
        for r, chi in chain.steps
    ]


def _members_doc(result: LinkageResult, with_witness: bool) -> list[dict]:
    docs = []
    for chi in result.sorted_members():
        entry = {"coords": _coords_doc(chi.algebraic), "smooth_tag": chi.smooth_tag}
        if with_witness:
            entry["witness"] = _witness_doc(result.witness[chi])
        docs.append(entry)
    return docs


def _orbit_guard() -> int:
    raw = os.environ.get("LINKAGE_ORBIT_GUARD")
    if raw is None:
        return DEFAULT_ORBIT_GUARD
    try:
        guard = int(raw)
    except ValueError:
        raise ValidationError("env.LINKAGE_ORBIT_GUARD", f"not an integer: {raw!r}") from None
    _expect(guard >= 1, "env.LINKAGE_ORBIT_GUARD", "must be >= 1")
    return guard


def run(job: dict) -> tuple[int, dict]:
    """Execute a job in normal form (as ``jobspec_from_dict`` returns it);
    returns (exit code, output document).  ``job`` is not changed."""
    job, ctx, chi, parabolic = _normalize_job(job)
    guard = _orbit_guard()
    command = job["command"]
    convention = job["convention"]

    oracle_doc: dict = {"checked": False, "agrees": None, "count": None}
    result_doc: dict

    if command in WITNESS_COMMANDS:  # the closure commands that list their members
        if command == "candidates":
            result = verma_factor_candidates(chi, parabolic, convention, guard=guard)
        else:
            closure = strongly_linked_set if command == "linkset" else verma_factors_borel
            result = closure(chi, convention, guard=guard)
        result_doc = {"members": _members_doc(result, job["witness"]), "count": len(result)}
        if command == "candidates":
            result_doc["upper_bound"] = result.upper_bound
        base_members = result.members
    elif command == "obstructions":
        obstructions = noncritical_obstruction_set(
            chi, parabolic, job["pi_tag"], convention, guard=guard
        )
        result_doc = {
            "obstructions": [
                {
                    "coords": _coords_doc(m.algebraic),
                    "smooth_tag": m.smooth_tag,
                    "central_key": key,
                }
                for m, key in obstructions
            ],
            "count": len(obstructions),
            "unconditionally_noncritical": not obstructions,
            "upper_bound": bool(parabolic.indices),
        }
        base_members = frozenset(m for m, _ in obstructions)
    elif command == "dominance":
        roots_doc = []
        for r in ctx.global_roots():
            pairing = global_pairing(chi.algebraic, r)
            roots_doc.append(
                {
                    "sigma": r.sigma,
                    "root_index": r.root_index,
                    "root": list(ctx.base.positive_roots[r.root_index]),
                    "pairing": format_rational(pairing),
                    "integral": is_alpha_integral(chi, r),
                    "dominant_paper": is_alpha_dominant(chi, r, "paper"),
                    "dominant_shifted": is_alpha_dominant(chi, r, "shifted"),
                }
            )
        result_doc = {
            "roots": roots_doc,
            "in_lambda_p_plus": in_lambda_p_plus(chi.algebraic, parabolic),
        }
    else:  # orbit
        orbit = sorted(dot_orbit(chi.algebraic, guard=guard), key=weight_sort_key)
        result_doc = {
            "members": [{"coords": _coords_doc(w)} for w in orbit],
            "count": len(orbit),
        }

    exit_code = EXIT_OK
    if job["oracle"]:  # set only on the closure commands, which set base_members
        oracle_set = stabilized_chain_set(chi, convention)
        if command in ("candidates", "obstructions"):
            oracle_set = frozenset(
                m for m in oracle_set if in_lambda_p_plus(m.algebraic, parabolic)
            )
        if command == "obstructions":
            oracle_set = frozenset(m for m in oracle_set if m != chi)
        agrees = oracle_set == base_members
        oracle_doc = {"checked": True, "agrees": agrees, "count": len(oracle_set)}
        if not agrees:
            exit_code = EXIT_ORACLE_MISMATCH

    document = {
        "schema": SCHEMA,
        "job": job,
        "result": result_doc,
        "oracle": oracle_doc,
    }
    return exit_code, document


def render_json(document: dict) -> str:
    """Exactly ``json.dumps(document, indent=2, sort_keys=True)``.

    ``indent`` sends ``json.dumps`` down its pure-Python encoder; this
    writer emits the same bytes in fewer steps.  Keys must be strings.
    """
    parts: list[str] = []
    _encode(document, "\n", parts.append)
    return "".join(parts)


def _encode(value, newline: str, emit) -> None:
    if isinstance(value, str):
        emit(_quote(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            emit(sep + _quote(key) + ": ")
            _encode(value[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _encode(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:  # numbers, booleans and None; anything else raises TypeError
        emit(json.dumps(value))


def render_table(document: dict) -> str:
    """Aligned text rendering; the JSON document is the contract, this is
    reading convenience only."""
    result = document["result"]
    lines = [f"command: {document['job']['command']}"]
    rows: list[list[str]] = []
    if "members" in result:
        for m in result["members"]:
            rows.append(["; ".join(",".join(r) for r in m["coords"]), m.get("smooth_tag", "")])
        header = ["coords", "tag"]
    elif "obstructions" in result:
        for m in result["obstructions"]:
            rows.append(
                ["; ".join(",".join(r) for r in m["coords"]), m["smooth_tag"], m["central_key"]]
            )
        header = ["coords", "tag", "central_key"]
    else:
        for r in result.get("roots", []):
            rows.append(
                [
                    str(r["sigma"]),
                    str(r["root"]),
                    r["pairing"],
                    str(r["integral"]),
                    str(r["dominant_paper"]),
                    str(r["dominant_shifted"]),
                ]
            )
        header = ["sigma", "root", "pairing", "integral", "dom(paper)", "dom(shifted)"]
    widths = [
        max(len(header[c]), *(len(row[c]) for row in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if "count" in result:
        lines.append(f"count: {result['count']}")
    if document["oracle"]["checked"]:
        lines.append(f"oracle agrees: {document['oracle']['agrees']}")
    return "\n".join(lines)


def _error_document(code: str, message: str, field: str | None = None) -> dict:
    err = {"code": code, "message": message}
    if field is not None:
        err["field"] = field
    return {"schema": SCHEMA, "error": err}


_PARSER = argparse.ArgumentParser(
    prog="linkage-kit",
    description="Exact strong-linkage combinatorics: linkage closures, Verma "
    "factor sets, parabolic candidates and non-criticality obstructions.",
)
_PARSER.add_argument("--job", help="JSON job file; supersedes all other flags")
_PARSER.add_argument("--root-system", help='type name ("A_2", "A_2xA_1") or JSON matrix')
_PARSER.add_argument("--embeddings", default="1")
_PARSER.add_argument("--central", default="0")
_PARSER.add_argument("--parabolic", default="", help='comma-separated 1-based indices, e.g. "1,3"')
_PARSER.add_argument("--weight", help='coordinates per embedding, e.g. "0,0;1/2,3"')
_PARSER.add_argument("--smooth", default="triv", help="smooth tag of the character")
_PARSER.add_argument("--pi-tag", default="triv")
_PARSER.add_argument("--convention", default="paper")
_PARSER.add_argument("--command")
_PARSER.add_argument("--oracle", action="store_true")
_PARSER.add_argument("--witness", action="store_true")
_PARSER.add_argument("--format", default="json")


def _parse_args(argv):
    return _PARSER.parse_args(argv)


def _int_flag(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(field, f"not an integer: {text!r}") from None


def _job_from_args(args) -> dict:
    if args.job:
        try:
            with open(args.job, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationError("job", f"cannot read job file: {exc}") from None
        # ValueError: also not UTF-8, or an integer past int's digit limit;
        # RecursionError: arrays nested past the decoder's depth limit
        except (ValueError, RecursionError) as exc:
            raise ValidationError("job", f"job file is not valid JSON: {exc}") from None
        return jobspec_from_dict(data)

    _expect(args.root_system is not None, "root_system", "--root-system is required")
    _expect(args.command is not None, "command", "--command is required")
    _expect(args.weight is not None, "character.coords", "--weight is required")

    root: str | list = args.root_system
    if root.lstrip().startswith("["):
        try:
            root = json.loads(root)
        except (ValueError, RecursionError):  # as for a job file
            raise ValidationError("root_system", "matrix flag is not valid JSON") from None

    parabolic = []
    if args.parabolic.strip():
        parabolic = [_int_flag(part, "parabolic") for part in args.parabolic.split(",")]

    coords = [
        [x.strip() for x in row.split(",")] for row in args.weight.split(";")
    ]

    return jobspec_from_dict(
        {
            "root_system": root,
            "embeddings": _int_flag(args.embeddings, "embeddings"),
            "central": _int_flag(args.central, "central"),
            "parabolic": parabolic,
            "character": {"coords": coords, "smooth_tag": args.smooth},
            "pi_tag": args.pi_tag,
            "convention": args.convention,
            "command": args.command,
            "oracle": args.oracle,
            "witness": args.witness,
        }
    )


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _expect(args.format in FORMATS, "format", f"must be one of {FORMATS}")
        job = _job_from_args(args)
        exit_code, document = run(job)
    except ValidationError as exc:
        print(render_json(_error_document("validation", exc.message, exc.field)), file=sys.stderr)
        return EXIT_VALIDATION
    except OrbitGuardExceeded as exc:
        print(render_json(_error_document("guard", str(exc))), file=sys.stderr)
        return EXIT_GUARD

    if args.format == "table":
        print(render_table(document))
    else:
        print(render_json(document))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
