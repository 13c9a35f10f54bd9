"""Command-line frontend.

Jobs arrive either as flags or as a JSON job file (--job supersedes
flags).  Either way ``jobspec_from_dict`` checks the job whole, before
any root is generated, and returns it as a plain dict: its own document
in normal form, with the root system's type name in canonical form.  The
commands read it, and the output echoes it under "job"; parsing the echo
again returns it unchanged.  Output is a deterministic JSON document on
stdout, byte for byte
``json.dumps(document, indent=2, sort_keys=True)`` (canonical "p/q"
rationals, no timestamps), errors are structured JSON on stderr in the
same form.  ``run`` lists a closure's or an orbit's members in sorted
order by walking the product of its per-embedding rows, each factor
sorted once; it builds each row's coordinate list and each witness
step's document once per job and shares them across the document, and
``render_json`` writes each shared row list once per depth.
Exit codes: 0 success, 2 validation error, 3 guard exhaustion,
4 oracle disagreement, 141 stdout closed before the document was written
(``| head``; nothing more is printed); an internal fault (an error no
input can cause) ends the process with a traceback, status 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from decimal import Decimal
from json.encoder import encode_basestring_ascii as _quote

from . import rootsys
from .errors import InvalidCartan, LinkageKitError, OrbitGuardExceeded
from .linkage import (
    DEFAULT_ORBIT_GUARD,
    LinkageResult,
    _embedding_closures,
    _in_row_order,
    _own_chains,
    noncritical_obstruction_set,
    strongly_linked_set,
    verma_factor_candidates,
)
from .oracle import _states_agree
from .parabolic import ParabolicSubset, in_lambda_p_plus, row_in_lambda_p_plus
from .rationals import _within_digit_limit, format_rational, parse_rational
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
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a writer a closed pipe ended


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
    # as argv and job files refuse it: messages and the normal form print the int
    _expect(
        _within_digit_limit(value),
        field,
        f"integer of more than {sys.get_int_max_str_digits()} digits",
    )
    if minimum is not None:
        _expect(value >= minimum, field, f"must be >= {minimum}")
    return value


def jobspec_from_dict(data: dict) -> dict:
    """Validate a job document and return the job in normal form.

    This is the one place that decides whether a job is valid.  Besides
    the fields it checks the root system (a known type name, or a Cartan
    matrix of finite type), each parabolic index against the rank, each
    row's coordinate count, and for ``candidates`` and ``obstructions``
    that the character is parabolic-dominant; the rank comes from the name
    or the matrix, so no root is generated.

    The normal form is itself a job document (plain lists, ints, strings
    and booleans): every field present, a type name in canonical form
    ("A1xA1" becomes "A_1xA_1"), ``parabolic`` sorted without repeats,
    coordinates as canonical "p/q" strings.  Parsing it again returns an
    equal dict.  An int of more digits than int() parses back from text
    (4300 by default) is refused on its field, as argv and job files
    refuse it.

    Every field is echoed, but not every command reads every field:
    ``parabolic`` is read only by ``candidates``, ``obstructions`` and
    ``dominance``, and ``pi_tag`` only by ``obstructions``.  Elsewhere
    both are checked, echoed and ignored (``factors`` with a parabolic
    prints the Borel closure).
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
    rows = []
    for s, row in enumerate(raw_coords):
        _expect(isinstance(row, (list, tuple)), f"character.coords[{s}]", "expected a list")
        parsed = []
        for k, text in enumerate(row):
            try:
                parsed.append(parse_rational(text))
            except ValueError as exc:
                raise ValidationError(f"character.coords[{s}][{k}]", str(exc)) from None
        rows.append(parsed)
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

    # the rank comes from the name or the matrix; no root is generated
    try:
        if isinstance(root_system, str):
            factors = rootsys._parse_name(root_system)
            root_system = rootsys._canonical_name(factors)
            rank = sum(n for _, n in factors)
        else:
            rootsys._check_finite_type(rootsys._validate_cartan_shape(root_system))
            rank = len(root_system)
    except InvalidCartan as exc:
        raise ValidationError("root_system", str(exc)) from None
    for i in parabolic:
        _expect(i <= rank, "parabolic", f"index {i} exceeds rank {rank}")
    for s, row in enumerate(rows):
        if len(row) != rank + central:
            # Decimal prints a total rank past int-to-str's digit limit ("A_<4300 nines>xA_1")
            raise ValidationError(
                f"character.coords[{s}]",
                f"expected {Decimal(rank + central)} coordinates "
                f"(rank {Decimal(rank)} + central {central}), got {len(row)}",
            )
    # candidates and obstructions both need a parabolic-dominant character
    if command in ("candidates", "obstructions"):
        _expect(
            all(row_in_lambda_p_plus(row, [i - 1 for i in parabolic]) for row in rows),
            "character.coords",
            "character is not dominant-integral for the parabolic subset",
        )
    coords = [[format_rational(x) for x in row] for row in rows]

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
    """Build what a job in normal form runs on: its embedding context,
    character and parabolic subset.  ``jobspec_from_dict`` has checked
    the job whole, so nothing here rejects it."""
    ctx = EmbeddingContext(build_root_system(job["root_system"]), job["embeddings"], job["central"])
    rows = tuple(tuple(map(parse_rational, row)) for row in job["character"]["coords"])
    chi = LocAnChar(WeightL(ctx, rows), job["character"]["smooth_tag"])
    parabolic = ParabolicSubset(ctx, frozenset(i - 1 for i in job["parabolic"]))
    return ctx, chi, parabolic


def _coords_doc(weight: WeightL, formatted: dict) -> list[list[str]]:
    """The weight's rows as lists of "p/q" strings, for the obstruction
    list, which ``noncritical_obstruction_set`` returns as characters.
    ``formatted`` maps id(row) to (row, its list) for the rows met so far
    in one ``run()`` call, so each distinct row object is formatted once
    and its list shared; holding the row keeps its id from being reused
    while the map lives."""
    out = []
    for row in weight.components:
        hit = formatted.get(id(row))
        if hit is None:
            hit = formatted[id(row)] = (row, [format_rational(x) for x in row])
        out.append(hit[1])
    return out


def _row_doc(row) -> list[str]:
    return [format_rational(x) for x in row]


def _witness_doc(chains, targets, row_doc, step_docs: dict) -> list[dict]:
    """The steps of the chain to the member with row number targets[sigma]
    in each embedding, as documents.  ``chains._walk`` names each step by
    its product state; ``step_docs`` maps a state's number to its document,
    built once per ``run()`` call and shared by every chain through that
    state.  ``row_doc(sigma, n)`` is the list of row n of closure sigma."""
    closures = chains._closures
    out = []
    for state, sigma, k in chains._walk(targets):
        doc = step_docs.get(state)
        if doc is None:
            # embeddings before sigma are walked to their targets, those after
            # are still at the origin's row, row 0
            to = [row_doc(s, n if s < sigma else 0) for s, n in enumerate(targets)]
            to[sigma] = row_doc(sigma, k)
            doc = step_docs[state] = {
                "root": {"sigma": sigma, "root_index": closures[sigma][2][k]},
                "to": to,
            }
        out.append(doc)
    return out


def _members_doc(result: LinkageResult, with_witness: bool) -> list[dict]:
    """The members in ``sorted_members()`` order, each with its coordinate
    rows, its smooth tag and, if asked, its witness chain.

    A closure's members are the product of its per-embedding kept rows in
    ``row_key`` order (``_WitnessChains._order``), so the listing walks
    that product by row numbers: each row's list is formatted once, keyed
    by (sigma, row number), and each witness step's document once, keyed
    by its product state (``_witness_doc``).  A result whose members are
    not its witness map's own lists ``sorted_members()`` and formats every
    member and step on its own."""
    chains = _own_chains(result)
    if chains is None:
        docs = []
        for chi in result.sorted_members():
            entry = {
                "coords": [_row_doc(row) for row in chi.algebraic.components],
                "smooth_tag": chi.smooth_tag,
            }
            if with_witness:
                entry["witness"] = [
                    {
                        "root": {"sigma": r.sigma, "root_index": r.root_index},
                        "to": [_row_doc(row) for row in step.algebraic.components],
                    }
                    for r, step in result.witness[chi].steps
                ]
            docs.append(entry)
        return docs

    closures = chains._closures
    row_docs: dict[tuple[int, int], list[str]] = {}

    def row_doc(sigma: int, n: int) -> list[str]:
        doc = row_docs.get((sigma, n))
        if doc is None:
            doc = row_docs[sigma, n] = _row_doc(closures[sigma][0][n])
        return doc

    order = chains._order()
    factors = [[row_doc(sigma, n) for n in numbers] for sigma, numbers in enumerate(order)]
    tag = result.origin.smooth_tag
    step_docs: dict[int, dict] = {}
    docs = []
    for targets, coords in zip(itertools.product(*order), itertools.product(*factors)):
        entry = {"coords": list(coords), "smooth_tag": tag}
        if with_witness:
            entry["witness"] = _witness_doc(chains, targets, row_doc, step_docs)
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
    returns (exit code, output document), which echoes ``job`` as given
    under "job".  ``job`` is not changed.  The orbit guard is read from the
    environment before anything is built.

    Each distinct row's coordinate list and each distinct witness step's
    document is built once per call, and the document's entries (members,
    witness chains, orbit entries) share them, so the document is
    read-only: render it, do not edit it in place."""
    guard = _orbit_guard()
    ctx, chi, parabolic = _normalize_job(job)
    command = job["command"]
    convention = job["convention"]

    oracle_doc: dict = {"checked": False, "agrees": None, "count": None}
    result_doc: dict

    if command in WITNESS_COMMANDS:  # the closure commands that list their members
        if command == "candidates":
            result = verma_factor_candidates(chi, parabolic, convention, guard=guard)
        else:  # linkset, or factors: at the Borel the factors are the closure
            result = strongly_linked_set(chi, convention, guard=guard)
        result_doc = {
            "members": _members_doc(result, job["witness"]),
            "count": len(result),
        }
        if command == "candidates":
            result_doc["upper_bound"] = result.upper_bound
        base_members = result.members
    elif command == "obstructions":
        obstructions = noncritical_obstruction_set(
            chi, parabolic, job["pi_tag"], convention, guard=guard
        )
        formatted: dict = {}  # the rows formatted so far; see _coords_doc
        result_doc = {
            "obstructions": [
                {
                    "coords": _coords_doc(m.algebraic, formatted),
                    "smooth_tag": m.smooth_tag,
                    "central_key": key,
                }
                for m, key in obstructions
            ],
            "count": len(obstructions),
            "unconditionally_noncritical": not obstructions,
            "upper_bound": bool(parabolic.indices),
        }
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
        # the dot orbit's members, listed as _members_doc lists a closure's
        closures = _embedding_closures(chi.algebraic, None, guard)
        factors = [
            [_row_doc(rows[n]) for n in _in_row_order(rows, range(len(rows)))]
            for rows, _, _ in closures
        ]
        orbit = [{"coords": list(coords)} for coords in itertools.product(*factors)]
        result_doc = {"members": orbit, "count": len(orbit)}

    exit_code = EXIT_OK
    if job["oracle"]:  # set only on the closure commands
        indices = parabolic.indices if command in ("candidates", "obstructions") else ()
        if command == "obstructions":
            base_members = [m for m, _ in obstructions]
        agrees, count = _states_agree(
            chi, convention, indices, base_members, drop_origin=command == "obstructions"
        )
        oracle_doc = {"checked": True, "agrees": agrees, "count": count}
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
    writer emits the same bytes in fewer steps.  It dispatches on the
    exact type first: a str is quoted by json's own C escaper, an int is
    ``int.__repr__``, and ``None``, ``True`` and ``False`` are constants;
    subclasses of str and int, and floats, go through ``json.dumps``.  A
    list or tuple of strings is written with one join, and since ``run()``
    shares each distinct row's list, such a list is rendered once per
    depth per call: a per-call map keyed by its id and depth holds the
    list and its text.  Keys must be strings.
    """
    parts: list[str] = []
    _encode(document, "\n", parts.append, {})
    return "".join(parts)


def _encode(value, newline: str, emit, strings: dict) -> None:
    kind = type(value)
    if kind is str:
        emit(_quote(value))
    elif kind is int:
        emit(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            emit(sep + _quote(key) + ": ")
            _encode(value[key], inner, emit, strings)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        hit = strings.get((id(value), newline))
        if hit is not None:
            emit(hit[1])
            return
        inner = newline + "  "
        if type(value[0]) is str:
            try:
                text = "[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]"
            except TypeError:  # not every item is a string
                pass
            else:
                strings[id(value), newline] = (value, text)  # holding the list keeps its id unused
                emit(text)
                return
        sep = "[" + inner
        for item in value:
            emit(sep)
            _encode(item, inner, emit, strings)
            sep = "," + inner
        emit(newline + "]")
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    else:  # subclasses of str and int, floats; anything else raises TypeError
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

    text = render_table(document) if args.format == "table" else render_json(document)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): end quietly, and point stdout
        # at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
