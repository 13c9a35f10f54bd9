import copy
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import linkage_kit.cli as cli
from linkage_kit.cli import ValidationError, jobspec_from_dict, render_json, run


def make_job(**overrides):
    base = {
        "root_system": "A_1",
        "embeddings": 1,
        "parabolic": [],
        "character": {"coords": [["2"]], "smooth_tag": "omega"},
        "pi_tag": "pi",
        "convention": "paper",
        "command": "obstructions",
    }
    base.update(overrides)
    return jobspec_from_dict(base)


def test_obstructions_rank_one():
    code, doc = run(make_job())
    assert code == 0
    result = doc["result"]
    assert result["count"] == 1
    assert result["obstructions"][0]["coords"] == [["-4/1"]]
    assert result["unconditionally_noncritical"] is False
    assert result["upper_bound"] is False


def test_linkset_non_integral_singleton():
    code, doc = run(make_job(command="linkset", character={"coords": [["1/2"]], "smooth_tag": "t"}))
    assert code == 0
    assert doc["result"]["count"] == 1
    assert doc["result"]["members"][0]["coords"] == [["1/2"]]


def test_malformed_rational_is_field_error():
    with pytest.raises(ValidationError) as err:
        make_job(character={"coords": [["2/0"]], "smooth_tag": "t"})
    assert err.value.field == "character.coords[0][0]"


@pytest.mark.parametrize("text", ["1e3", "2.5"])
def test_only_integers_and_fractions_are_rationals(text):
    # Fraction would accept these, and compute 10**exp for an exponent
    with pytest.raises(ValidationError) as err:
        make_job(character={"coords": [[text]], "smooth_tag": "t"})
    assert err.value.field == "character.coords[0][0]"
    assert err.value.message == f"malformed rational {text!r}"


def test_unknown_field_rejected():
    with pytest.raises(ValidationError):
        jobspec_from_dict({"root_system": "A_1", "command": "linkset", "bogus": 1})


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"character": {"coords": [["2"]], "smooth_tag": "t", "colour": "red"}}, "character.colour"),
        ({"schema": "bogus/9"}, "schema"),
    ],
)
def test_unknown_character_field_and_foreign_schema_rejected(overrides, field):
    with pytest.raises(ValidationError) as err:
        make_job(**overrides)
    assert err.value.field == field
    assert make_job(schema=cli.SCHEMA) == make_job()


def test_internal_fault_is_not_a_validation_error(monkeypatch, capsys):
    import linkage_kit.linkage as linkage

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    # raised inside strongly_linked_set, not by anything the job says
    monkeypatch.setattr(linkage, "_product_closure", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["--root-system", "A_1", "--weight", "0", "--command", "linkset"])
    assert capsys.readouterr() == ("", "")


def test_root_count_fault_is_not_a_validation_error(monkeypatch, capsys):
    import linkage_kit.rootsys as rootsys

    # a named type generating the wrong number of roots is a fault of the
    # generator, not of the job; the cache must not answer from earlier runs
    count = rootsys.positive_root_count
    monkeypatch.setattr(rootsys, "positive_root_count", lambda name: count(name) + 1)
    rootsys._root_system.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="generated 3 positive roots for A_2, expected 4"):
            cli.main(["--root-system", "A_2", "--weight", "0,0", "--command", "linkset"])
    finally:
        rootsys._root_system.cache_clear()
    assert capsys.readouterr() == ("", "")


def test_parabolic_index_validation():
    job = make_job(parabolic=[3])
    with pytest.raises(ValidationError) as err:
        run(job)
    assert err.value.field == "parabolic"


def test_coords_dimension_validation():
    job = make_job(character={"coords": [["1", "2"]], "smooth_tag": "t"})
    with pytest.raises(ValidationError):
        run(job)


def test_normalized_echo_reparses_identically():
    job = make_job(root_system="A1xA1", embeddings=2,
                   character={"coords": [["0", "0"], ["4/2", "-1"]], "smooth_tag": "t"},
                   command="linkset")
    code, doc = run(job)
    assert code == 0
    assert doc["job"]["root_system"] == "A_1xA_1"
    assert doc["job"]["character"]["coords"] == [["0/1", "0/1"], ["2/1", "-1/1"]]
    echoed = jobspec_from_dict(doc["job"])
    code2, doc2 = run(echoed)
    assert doc2 == doc


def test_byte_determinism_in_process():
    for command in ("linkset", "factors", "candidates", "obstructions", "dominance", "orbit"):
        job = make_job(command=command, root_system="B_2", parabolic=[1],
                       character={"coords": [["1", "0"]], "smooth_tag": "s"},
                       witness=command in cli.WITNESS_COMMANDS)
        out1 = render_json(run(job)[1])
        out2 = render_json(run(job)[1])
        assert out1 == out2


def test_matrix_root_system_job():
    job = make_job(root_system=[[2, -1], [-1, 2]], command="linkset",
                   character={"coords": [["0", "0"]], "smooth_tag": "t"})
    code, doc = run(job)
    assert code == 0
    assert doc["job"]["root_system"] == [[2, -1], [-1, 2]]
    assert doc["result"]["count"] == 6
    echoed = jobspec_from_dict(doc["job"])
    assert run(echoed)[1] == doc


def test_oracle_agreement_exit_codes(monkeypatch):
    job = make_job(command="linkset", oracle=True)
    code, doc = run(job)
    assert code == 0
    assert doc["oracle"] == {"checked": True, "agrees": True, "count": 2}

    # a lying oracle must flip the exit code
    def bad_oracle(chi, convention):
        return frozenset({chi})

    monkeypatch.setattr(cli, "stabilized_chain_set", bad_oracle)
    code, doc = run(job)
    assert code == 4
    assert doc["oracle"]["agrees"] is False


def test_oracle_filtered_commands():
    job = make_job(command="obstructions", parabolic=[1], oracle=True)
    code, doc = run(job)
    assert code == 0
    assert doc["result"]["count"] == 0
    assert doc["result"]["unconditionally_noncritical"] is True
    assert doc["oracle"]["agrees"] is True


def test_oracle_agrees_on_candidates_and_factors():
    b2 = {"root_system": "B_2", "character": {"coords": [["1", "0"]], "smooth_tag": "t"}}
    # the parabolic filter drops members of the closure, and the filtered
    # oracle set must still match
    _, closure = run(make_job(command="linkset", **b2))
    code, doc = run(make_job(command="candidates", parabolic=[1], oracle=True, **b2))
    assert code == 0
    assert doc["oracle"]["agrees"] is True
    assert doc["oracle"]["count"] == doc["result"]["count"]
    assert doc["result"]["count"] < closure["result"]["count"]

    code, doc = run(make_job(command="factors", oracle=True, **b2))
    assert code == 0
    assert doc["oracle"]["agrees"] is True
    assert doc["oracle"]["count"] == doc["result"]["count"]


@pytest.mark.parametrize(
    "root_system,echoed",
    [("A1xA1", "A_1xA_1"), ([[2, 0], [0, 2]], [[2, 0], [0, 2]])],
)
def test_run_leaves_its_job_unchanged(root_system, echoed):
    job = make_job(root_system=root_system, command="linkset",
                   character={"coords": [["1", "0"]], "smooth_tag": "t"})
    before = copy.deepcopy(job)
    code, doc = run(job)
    assert code == 0
    assert job == before
    assert doc["job"]["root_system"] == echoed


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("LINKAGE_ORBIT_GUARD", "2")
    job = make_job(command="linkset", root_system="B_2",
                   character={"coords": [["0", "0"]], "smooth_tag": "t"})
    import linkage_kit

    with pytest.raises(linkage_kit.OrbitGuardExceeded):
        run(job)
    monkeypatch.setenv("LINKAGE_ORBIT_GUARD", "not-a-number")
    with pytest.raises(ValidationError):
        run(job)


def test_witness_steps_replay_to_member():
    job = make_job(command="factors", root_system="A_2",
                   character={"coords": [["1", "1"]], "smooth_tag": "t"}, witness=True)
    code, doc = run(job)
    assert code == 0
    for member in doc["result"]["members"]:
        steps = member["witness"]
        if steps:
            assert steps[-1]["to"] == member["coords"]


def test_dominance_document():
    job = make_job(command="dominance", root_system="A_2", parabolic=[1],
                   character={"coords": [["1/2", "1"]], "smooth_tag": "t"})
    code, doc = run(job)
    assert code == 0
    roots = doc["result"]["roots"]
    assert len(roots) == 3
    assert doc["result"]["in_lambda_p_plus"] is False
    by_root = {tuple(r["root"]): r for r in roots}
    assert by_root[(1, 0)]["integral"] is False
    assert by_root[(0, 1)]["dominant_paper"] is True


def test_orbit_document():
    job = make_job(command="orbit", root_system="A_2",
                   character={"coords": [["0", "0"]], "smooth_tag": "t"})
    code, doc = run(job)
    assert code == 0
    assert doc["result"]["count"] == 6


def test_table_rendering():
    job = make_job(command="obstructions")
    _, doc = run(job)
    table = cli.render_table(doc)
    assert "central_key" in table
    assert "count: 1" in table


def _run_cli(args, env_extra=None):
    import os

    env = dict(os.environ)
    env.update(env_extra or {})
    # the child imports the package under test, also from a checkout
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "linkage_kit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_end_to_end_deterministic():
    args = ["--root-system", "A_2", "--embeddings", "1", "--weight", "0,0",
            "--smooth", "theta", "--command", "linkset", "--witness"]
    p1 = _run_cli(args)
    p2 = _run_cli(args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    doc = json.loads(p1.stdout)
    assert doc["schema"] == "linkage-kit/1"
    assert doc["result"]["count"] == 6


def test_cli_validation_error_stream():
    p = _run_cli(["--root-system", "A_1", "--weight", "2/0", "--command", "linkset"])
    assert p.returncode == 2
    assert p.stdout == ""
    err = json.loads(p.stderr)
    assert err["error"]["field"] == "character.coords[0][0]"


def test_cli_guard_exit_code():
    p = _run_cli(
        ["--root-system", "B_2", "--weight", "0,0", "--command", "linkset"],
        env_extra={"LINKAGE_ORBIT_GUARD": "2"},
    )
    assert p.returncode == 3
    assert json.loads(p.stderr)["error"]["code"] == "guard"


def test_cli_job_file(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(
        json.dumps(
            {
                "root_system": "A_1",
                "embeddings": 1,
                "character": {"coords": [["2"]], "smooth_tag": "omega"},
                "command": "obstructions",
                "oracle": True,
            }
        )
    )
    p = _run_cli(["--job", str(path)])
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["result"]["count"] == 1
    assert doc["oracle"]["agrees"] is True


def test_cli_table_format():
    p = _run_cli(["--root-system", "A_1", "--weight", "3", "--command", "factors", "--format", "table"])
    assert p.returncode == 0
    assert "coords" in p.stdout and "-5/1" in p.stdout


@pytest.mark.parametrize(
    "matrix", ["[[2.7,-1],[-1,2]]", "[[true,-1],[-1,2]]", '[["2",-1],[-1,2]]']
)
@pytest.mark.parametrize("source", ["flag", "job_file"])
def test_matrix_entries_must_be_json_integers(matrix, source, tmp_path, capsys):
    if source == "flag":
        argv = ["--root-system", matrix, "--weight", "0,0", "--command", "linkset"]
    else:
        path = tmp_path / "job.json"
        path.write_text(
            json.dumps(
                {
                    "root_system": json.loads(matrix),
                    "character": {"coords": [["0", "0"]]},
                    "command": "linkset",
                }
            )
        )
        argv = ["--job", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {
        "code": "validation",
        "field": "root_system",
        "message": "matrix entries must be integers",
    }


def test_orbit_guard_bounds_the_orbit(monkeypatch, capsys):
    monkeypatch.setenv("LINKAGE_ORBIT_GUARD", "50")
    # -rho is fixed by the whole group (|W(A_4)| = 120 > 50): one member
    argv = ["--root-system", "A_4", "--weight=-1,-1,-1,-1", "--command", "orbit"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["count"] == 1
    assert doc["result"]["members"] == [{"coords": [["-1/1"] * 4]}]

    monkeypatch.setenv("LINKAGE_ORBIT_GUARD", "5")
    assert cli.main(["--root-system", "A_2", "--weight", "0,0", "--command", "orbit"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["code"] == "guard"


@pytest.mark.parametrize(
    "flag,command",
    [
        ("oracle", "dominance"),
        ("oracle", "orbit"),
        ("witness", "dominance"),
        ("witness", "orbit"),
        ("witness", "obstructions"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "job_file"])
def test_oracle_and_witness_need_a_closure_command(command, flag, source, tmp_path, capsys):
    # --oracle acts only on closure commands and --witness only on those
    # that print members; elsewhere a flag was echoed as true and then
    # ignored, so it is rejected instead
    if source == "flag":
        argv = ["--root-system", "A_1", "--weight", "0", "--command", command, f"--{flag}"]
    else:
        path = tmp_path / "job.json"
        path.write_text(
            json.dumps(
                {
                    "root_system": "A_1",
                    "character": {"coords": [["0"]]},
                    "command": command,
                    flag: True,
                }
            )
        )
        argv = ["--job", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation"
    assert error["field"] == flag
    # the same job without the flag runs, and so does --oracle on a closure command
    argv = ["--root-system", "A_1", "--weight", "0", "--command", command]
    assert cli.main(argv) == 0
    if command in cli.CLOSURE_COMMANDS:
        assert cli.main(argv + ["--oracle"]) == 0


@pytest.mark.parametrize("command", ["candidates", "obstructions"])
@pytest.mark.parametrize("source", ["flag", "job_file"])
def test_non_parabolic_dominant_character_is_a_field_error(command, source, tmp_path, capsys):
    # -3 is not dominant for the parabolic {1} of A_1
    if source == "flag":
        argv = ["--root-system", "A_1", "--weight=-3", "--parabolic", "1", "--command", command]
    else:
        path = tmp_path / "job.json"
        path.write_text(
            json.dumps(
                {
                    "root_system": "A_1",
                    "parabolic": [1],
                    "character": {"coords": [["-3"]]},
                    "command": command,
                }
            )
        )
        argv = ["--job", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": "validation",
        "field": "character.coords",
        "message": "character is not dominant-integral for the parabolic subset",
    }
    # the parabolic does not restrict the other commands
    argv = ["--root-system", "A_1", "--weight=-3", "--parabolic", "1", "--command", "linkset"]
    assert cli.main(argv) == 0


def _validation_error(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation"
    return error


@pytest.mark.parametrize(
    "content",
    [
        b'{"root_system": "A_1", "embeddings": ' + b"1" * 5000 + b"}",
        b'{"root_system": "A_\xff"}',
        b'{"root_system": ' + b"[" * 100000 + b"]" * 100000 + b"}",
        None,
    ],
    ids=["long_integer", "not_utf8", "deeply_nested", "missing"],
)
def test_unreadable_job_file_is_a_job_error(content, tmp_path, capsys):
    path = tmp_path / "job.json"
    if content is not None:
        path.write_bytes(content)
    assert _validation_error(["--job", str(path)], capsys)["field"] == "job"


@pytest.mark.parametrize(
    "matrix", [f"[[{'2' * 5000}]]", "[" * 5000 + "]" * 5000], ids=["long_integer", "deeply_nested"]
)
def test_unreadable_matrix_flag_is_a_root_system_error(matrix, capsys):
    argv = ["--root-system", matrix, "--weight", "0", "--command", "linkset"]
    assert _validation_error(argv, capsys)["field"] == "root_system"


@pytest.mark.parametrize(
    "field,flag_value,job_value",
    [
        ("convention", "bogus", "bogus"),
        ("command", "bogus", "bogus"),
        ("embeddings", "1.5", 1.5),
        ("central", "1.5", 1.5),
    ],
)
def test_flag_errors_are_the_job_file_errors(field, flag_value, job_value, tmp_path, capsys):
    # the job validator, not argparse, checks these flags: a JSON error on
    # the same field as the job file's
    path = tmp_path / "job.json"
    path.write_text(
        json.dumps(
            {
                "root_system": "A_1",
                "character": {"coords": [["0"]]},
                "command": "linkset",
                field: job_value,
            }
        )
    )
    argv = ["--root-system", "A_1", "--weight", "0", "--command", "linkset"]
    assert _validation_error(argv + [f"--{field}", flag_value], capsys)["field"] == field
    assert _validation_error(["--job", str(path)], capsys)["field"] == field


@pytest.mark.parametrize(
    "overrides,field,message",
    [
        (
            {"character": {"coords": [[1.5]]}},
            "character.coords[0][0]",
            "expected a rational string, got float",
        ),
        (
            {"character": {"coords": [[True]]}},
            "character.coords[0][0]",
            "expected a rational string, got bool",
        ),
        ({"root_system": 42}, "root_system", "expected a type name or an integer matrix"),
        (
            {
                "root_system": [[2, -1, -1], [-1, 2, -1], [-2, -1, 2]],
                "character": {"coords": [["0", "0", "0"]]},
            },
            "root_system",
            "matrix is not symmetrizable",
        ),
    ],
    ids=["float_coordinate", "bool_coordinate", "number_root_system", "not_symmetrizable"],
)
def test_job_file_value_errors(overrides, field, message, tmp_path, capsys):
    path = tmp_path / "job.json"
    job = {"root_system": "A_1", "character": {"coords": [["0"]]}, "command": "linkset"}
    path.write_text(json.dumps({**job, **overrides}))
    error = _validation_error(["--job", str(path)], capsys)
    assert (error["field"], error["message"]) == (field, message)


def test_unknown_format_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    job = {"root_system": "A_1", "character": {"coords": [["0"]]}, "command": "linkset"}
    path.write_text(json.dumps(job))
    for argv in (
        ["--root-system", "A_1", "--weight", "0", "--command", "linkset", "--format", "xml"],
        ["--job", str(path), "--format", "xml"],
    ):
        assert _validation_error(argv, capsys)["field"] == "format"


def test_render_json_is_json_dumps_on_a_hand_built_document():
    doc = {
        "zeta": [[], {}, [{}], {"empty": []}],
        "alpha": ("tuple", 1, ("nested",)),
        "Mid": {"b": None, "a": True, "c": False},
        "text": ['quote " backslash \\ newline \n tab \t', "\x00\x1f\x7f", "é ü 漢 \U0001d11e"],
        "big": -123456789012345678901234567890,
        "zero": 0,
        "": "empty key",
    }
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)
    for value in ([], {}, "", 7, None, [[]]):
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_render_json_refuses_what_json_dumps_refuses():
    for doc in ({"x": Fraction(1, 2)}, [Fraction(1)]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            render_json(doc)


def _seeded_documents(monkeypatch):
    """Every document ``run()`` returns on a seeded job set over all six
    commands, plus the validation and guard error documents."""
    import random

    import linkage_kit

    rng = random.Random(11)
    systems = [("A_1", 1), ("A_2", 2), ("B_2", 2), ("G_2", 2)]
    docs = []
    for n in range(90):
        command = cli.COMMANDS[n % len(cli.COMMANDS)]
        name, rank = rng.choice(systems)
        embeddings = rng.choice((1, 2))
        central = rng.choice((0, 1))
        coords = [
            [rng.choice(("0", "1", "2", "-1", "1/2", "-5/3")) for _ in range(rank + central)]
            for _ in range(embeddings)
        ]
        job = {
            "root_system": name,
            "embeddings": embeddings,
            "central": central,
            "parabolic": [i + 1 for i in range(rank) if rng.random() < 0.5],
            "character": {"coords": coords, "smooth_tag": rng.choice(("t", "θ", 'q"\\'))},
            "convention": rng.choice(("paper", "shifted")),
            "command": command,
            "oracle": command in cli.CLOSURE_COMMANDS and rng.random() < 0.5,
            "witness": command in cli.WITNESS_COMMANDS and rng.random() < 0.5,
        }
        monkeypatch.setenv("LINKAGE_ORBIT_GUARD", "3" if n % 7 == 0 else "1000000")
        try:
            docs.append(run(jobspec_from_dict(job))[1])
        except ValidationError as exc:
            docs.append(cli._error_document("validation", exc.message, exc.field))
        except linkage_kit.OrbitGuardExceeded as exc:
            docs.append(cli._error_document("guard", str(exc)))
    return docs


def test_render_json_is_json_dumps_on_every_run_document(monkeypatch):
    docs = _seeded_documents(monkeypatch)
    kinds = {d["error"]["code"] if "error" in d else d["job"]["command"] for d in docs}
    assert kinds == {*cli.COMMANDS, "validation", "guard"}
    assert any(d.get("job", {}).get("witness") for d in docs)
    assert any(d.get("oracle", {}).get("checked") for d in docs)
    for doc in docs:
        assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_parser_is_reused_without_state(capsys):
    base = ["--root-system", "A_1", "--weight", "2", "--command", "linkset"]
    assert cli.main(base + ["--witness", "--oracle", "--format", "table"]) == 0
    assert capsys.readouterr().out.startswith("command: linkset")
    assert cli.main(base) == 0
    job = json.loads(capsys.readouterr().out)["job"]
    assert job["witness"] is False and job["oracle"] is False
    with pytest.raises(SystemExit) as exit_:
        cli.main(base + ["--bogus"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert cli.main(base) == 0
    assert json.loads(capsys.readouterr().out)["job"]["witness"] is False
