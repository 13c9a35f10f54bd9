import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import linkage_kit as lk
import linkage_kit.cli as cli
from linkage_kit.cli import ValidationError, jobspec_from_dict, render_json, run
from linkage_kit.rationals import format_rational
from util import char, context


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


@pytest.mark.parametrize("text", ["1e3", "2.5", pytest.param("9" * 4301, id="4301_digits")])
def test_only_integers_and_fractions_are_rationals(text):
    # Fraction would accept the first two, and compute 10**exp for an
    # exponent; int() refuses a text past its digit limit
    with pytest.raises(ValidationError) as err:
        make_job(character={"coords": [[text]], "smooth_tag": "t"})
    assert err.value.field == "character.coords[0][0]"
    assert err.value.message == f"malformed rational {text!r}"


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"character": {"coords": [[10**4400]], "smooth_tag": "t"}}, "character.coords[0][0]"),
        ({"central": 10**4400}, "central"),
        ({"embeddings": 10**4400}, "embeddings"),
        ({"parabolic": [10**4400]}, "parabolic"),
    ],
    ids=["coordinate", "central", "embeddings", "parabolic"],
)
def test_ints_past_the_digit_limit_are_field_errors(overrides, field):
    # a job document given as a Python dict, not as text: argv and job
    # files already stop at int()'s and json's digit limit
    with pytest.raises(ValidationError) as err:
        make_job(**overrides)
    assert err.value.field == field
    assert err.value.message == f"integer of more than {sys.get_int_max_str_digits()} digits"
    # one digit fewer than the limit is an ordinary integer
    assert make_job(character={"coords": [[10**4299]], "smooth_tag": "t"})


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
    with pytest.raises(ValidationError) as err:
        make_job(parabolic=[3])
    assert err.value.field == "parabolic"


def test_coords_dimension_validation():
    with pytest.raises(ValidationError) as err:
        make_job(character={"coords": [["1", "2"]], "smooth_tag": "t"})
    assert err.value.field == "character.coords[0]"


def test_normalized_echo_reparses_identically():
    job = make_job(root_system="A1xA1", embeddings=2,
                   character={"coords": [["0", "0"], ["4/2", "-1"]], "smooth_tag": "t"},
                   command="linkset")
    assert job["root_system"] == "A_1xA_1"
    assert jobspec_from_dict(job) == job
    code, doc = run(job)
    assert code == 0
    assert doc["job"] == job
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
    def bad_oracle(chi, convention, indices, members, drop_origin):
        return False, 1  # the origin's state alone

    monkeypatch.setattr(cli, "_states_agree", bad_oracle)
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


def test_factors_ignores_the_parabolic():
    # parabolic is read by candidates, obstructions and dominance only:
    # factors echoes it and prints the Borel closure
    b2 = {"root_system": "B_2", "character": {"coords": [["1", "0"]], "smooth_tag": "t"}}
    _, borel = run(make_job(command="factors", **b2))
    code, doc = run(make_job(command="factors", parabolic=[1], **b2))
    assert code == 0
    assert doc["job"]["parabolic"] == [1]
    assert doc["result"] == borel["result"]
    assert "upper_bound" not in doc["result"]
    _, candidates = run(make_job(command="candidates", parabolic=[1], **b2))
    assert candidates["result"]["count"] < doc["result"]["count"]


# A job whose members have two embeddings, a central block and a
# parabolic-filtered subset, for the mutants below.
MUTANT_JOB = {
    "root_system": "A_2",
    "embeddings": 2,
    "central": 1,
    "character": {"coords": [["1", "0", "1/2"], ["0", "2", "-1"]], "smooth_tag": "t"},
}


def _moved(m, index=0, by=0, tag=None):
    """m with coordinate ``index`` of its first row moved by ``by``, and
    its smooth tag replaced by ``tag`` if given."""
    rows = [list(row) for row in m.algebraic.components]
    rows[0][index] += by
    return lk.LocAnChar(lk.WeightL(m.algebraic.context, rows), tag or m.smooth_tag)


def _zero_made_half(ms):
    """ms with the first zero among its first rows' semisimple coordinates
    made 1/2.  The rows are integral (d = 1), so an encoding that skipped
    the divisibility check (1 * (1 // 2)) would read that 1/2 as 0 again."""
    n, i = next(
        (n, i) for n, m in enumerate(ms) for i in (0, 1) if m.algebraic.components[0][i] == 0
    )
    return ms[:n] + [_moved(ms[n], index=i, by=Fraction(1, 2))] + ms[n + 1 :]


# each takes the members a command prints (sorted) and the origin
MUTANTS = {
    "extra_member": lambda ms, chi: ms + [_moved(chi, by=100)],
    "missing_member": lambda ms, chi: ms[1:],
    "smooth_tag": lambda ms, chi: [_moved(ms[0], tag="other")] + ms[1:],
    "central_block": lambda ms, chi: [_moved(ms[0], index=2, by=1)] + ms[1:],
    "denominator": lambda ms, chi: _zero_made_half(ms),
    # a member set cannot repeat a member or miss the origin: obstruction lists only
    "duplicate": lambda ms, chi: ms + ms[:1],
    "origin_kept": lambda ms, chi: ms + [chi],
}


@pytest.mark.parametrize(
    "command,mutant",
    [
        (command, mutant)
        for command in ("linkset", "candidates", "obstructions")
        for mutant in [None, *MUTANTS]
        if command == "obstructions" or mutant not in ("duplicate", "origin_kept")
    ],
)
def test_oracle_refuses_wrong_members(command, mutant, monkeypatch):
    edit = MUTANTS[mutant] if mutant else lambda ms, chi: ms
    if command == "obstructions":
        real_list = cli.noncritical_obstruction_set

        def mutated_list(chi, p, pi_tag, convention, *, guard):
            members = [m for m, _ in real_list(chi, p, pi_tag, convention, guard=guard)]
            return [(m, "key") for m in edit(members, chi)]

        monkeypatch.setattr(cli, "noncritical_obstruction_set", mutated_list)
    else:
        name = "strongly_linked_set" if command == "linkset" else "verma_factor_candidates"
        real_set = getattr(cli, name)

        def mutated_set(*args, **kwargs):
            r = real_set(*args, **kwargs)
            members = edit(sorted(r.members, key=lk.linkage.char_sort_key), r.origin)
            return lk.LinkageResult(r.origin, frozenset(members), {}, r.convention, r.parabolic)

        monkeypatch.setattr(cli, name, mutated_set)
    parabolic = [] if command == "linkset" else [1]
    code, doc = run(make_job(command=command, parabolic=parabolic, oracle=True, **MUTANT_JOB))
    if mutant is None:
        assert (code, doc["oracle"]["agrees"]) == (0, True)
        assert doc["oracle"]["count"] == doc["result"]["count"] > 1
    else:
        assert (code, doc["oracle"]["agrees"]) == (cli.EXIT_ORACLE_MISMATCH, False)


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


def _cli_env(env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    # the child imports the package under test, also from a checkout
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _run_cli(args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "linkage_kit", *args],
        capture_output=True,
        text=True,
        env=_cli_env(env_extra),
    )


@pytest.mark.parametrize("table", [False, True], ids=["json", "table"])
def test_closed_stdout_ends_quietly(table):
    # as `linkage-kit ... | head` once head has exited: the read end is
    # closed before the child starts, so its first write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    args = ["--root-system", "A_2", "--weight", "0,0", "--command", "linkset", "--witness"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linkage_kit", *args, *(["--format", "table"] if table else [])],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_cli_env(),
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT == 141


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


@pytest.mark.parametrize(
    "argv,guard,field,message",
    [
        (
            ["--root-system", "A_200", "--weight", "0", "--command", "dominance"],
            None,
            "character.coords[0]",
            "expected 200 coordinates (rank 200 + central 0), got 1",
        ),
        (
            ["--root-system", "A_200", "--weight", "0", "--parabolic", "201",
             "--command", "dominance"],
            None,
            "parabolic",
            "index 201 exceeds rank 200",
        ),
        (
            ["--root-system", "A_200", "--weight=-1" + ",0" * 199, "--parabolic", "1",
             "--command", "candidates"],
            None,
            "character.coords",
            "character is not dominant-integral for the parabolic subset",
        ),
        (
            ["--root-system", "[[2,-2],[-2,2]]", "--weight", "0,0", "--command", "linkset"],
            None,
            "root_system",
            "matrix is not of finite type",
        ),
        (
            ["--root-system", "A_80", "--weight", ",".join(["0"] * 80), "--command", "dominance"],
            "abc",
            "env.LINKAGE_ORBIT_GUARD",
            "not an integer: 'abc'",
        ),
    ],
    ids=["coordinate_count", "parabolic_index", "not_dominant", "affine_matrix", "bad_guard"],
)
def test_malformed_job_fails_before_any_root_is_generated(
    argv, guard, field, message, monkeypatch, capsys
):
    import linkage_kit.rootsys as rootsys

    def no_roots(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(rootsys, "_root_system", no_roots)
    if guard is not None:
        monkeypatch.setenv("LINKAGE_ORBIT_GUARD", guard)
    error = _validation_error(argv, capsys)
    assert (error["field"], error["message"]) == (field, message)


def test_rank_past_the_int_parsing_limit_is_a_root_system_error(monkeypatch, capsys):
    import linkage_kit.rootsys as rootsys

    def no_roots(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(rootsys, "_root_system", no_roots)
    name = "A_" + "1" * 4400  # more digits than int() converts
    with pytest.raises(lk.InvalidCartan, match="rank out of range for type A"):
        rootsys.build_root_system(name)
    argv = ["--root-system", name, "--weight", "0", "--command", "linkset"]
    error = _validation_error(argv, capsys)
    assert (error["field"], error["message"]) == ("root_system", "rank out of range for type A")
    # each factor's rank converts, but their sum has 4301 digits
    argv[1] = "A_" + "9" * 4300 + "xA_1"
    error = _validation_error(argv, capsys)
    assert error["field"] == "character.coords[0]"
    assert error["message"] == (
        f"expected 1{'0' * 4300} coordinates (rank 1{'0' * 4300} + central 0), got 1"
    )


def test_output_numbers_past_the_int_str_limit_print_exactly(capsys):
    # the parser takes 4300 digits, and one dot reflection adds a digit
    nines = "9" * 4300
    argv = ["--root-system", "A_1", "--weight", nines, "--command", "linkset"]
    assert cli.main(argv) == 0
    members = json.loads(capsys.readouterr().out)["result"]["members"]
    # s . (10**4300 - 1) = -(10**4300 - 1) - 2 = -10**4300 - 1
    assert [m["coords"] for m in members] == [[["-1" + "0" * 4299 + "1/1"]], [[nines + "/1"]]]
    argv = ["--root-system", "A_2", "--weight", f"{nines},{nines}", "--command", "dominance"]
    assert cli.main(argv) == 0
    roots = json.loads(capsys.readouterr().out)["result"]["roots"]
    assert roots[-1]["pairing"] == "1" + "9" * 4299 + "8/1"  # 2 * (10**4300 - 1)


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


def test_render_json_renders_a_shared_list_at_each_depth():
    import enum
    from collections import OrderedDict

    class Tag(str):
        pass

    class Level(enum.IntEnum):
        HIGH = 3

    row = ["1/2", "-3/1", 'q"\\', "θ"]
    doc = {
        "a": row,
        "b": [row, row, (row, [row])],  # row twice at one depth, and deeper
        "c": {"row": row, "ints": [0, -1, 2**70, -(2**70)], "flags": [True, False, None]},
        "d": ("x", ("y", ("z",)), 1, True, None),  # nested tuples, a str first
        "e": ["s", 5, "t"],  # a str first, not every item a string
        "f": [Tag("sub"), "str"],
        "g": [Level.HIGH, 2.5, OrderedDict([("z", 1), ("a", row)])],
        "h": [["copy", "of"], ["copy", "of"]],  # equal lists, distinct objects
        "i": row,
    }
    expected = json.dumps(doc, indent=2, sort_keys=True)
    assert render_json(doc) == expected
    assert render_json(doc) == expected  # nothing carries over between calls
    assert render_json([row, {"deep": [[row]]}, row]) == json.dumps(
        [row, {"deep": [[row]]}, row], indent=2, sort_keys=True
    )
    # an int past the int-to-str digit limit fails as json.dumps fails
    for value in ([10**4300], ["a", 10**4300]):
        with pytest.raises(ValueError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(ValueError):
            render_json(value)


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


def test_run_keeps_no_state_between_calls(capsys):
    # A: a witnessed closure over two embeddings; B, run in between, has rows
    # of A's length and values of its own
    job_a = ["--root-system", "A_2", "--embeddings", "2", "--weight", "1,0;0,0",
             "--command", "linkset", "--witness"]
    job_b = ["--root-system", "A_2", "--embeddings", "2", "--weight", "2,1;1,0",
             "--command", "linkset", "--witness"]
    outputs = []
    for argv in (job_a, job_b, job_a):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[2]
    members = json.loads(outputs[0])["result"]["members"]
    assert any(len({step["root"]["sigma"] for step in m["witness"]}) == 2 for m in members)

    # B's members and chains, formatted here from the library's closure
    def coords(chi):
        return [[format_rational(x) for x in row] for row in chi.algebraic.components]

    result = lk.strongly_linked_set(char(context("A_2", 2), [(2, 1), (1, 0)], "triv"), "paper")
    expected = [
        {
            "coords": coords(m),
            "smooth_tag": "triv",
            "witness": [
                {"root": {"sigma": r.sigma, "root_index": r.root_index}, "to": coords(step)}
                for r, step in result.witness[m].steps
            ],
        }
        for m in result.sorted_members()
    ]
    assert json.loads(outputs[1])["result"]["members"] == expected


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


# Seeded fuzz of the job contract: valid job documents of every command, each
# with one to three fields replaced from a fixed pool of bad and good values.
_FUZZ_JOBS = [
    {"root_system": "A_2", "embeddings": 2, "character": {"coords": [["1/2", "0"], ["0", "-1"]]},
     "command": "linkset", "witness": True, "oracle": True},
    {"root_system": "B_2", "central": 1, "character": {"coords": [["-1", "0", "1/3"]]},
     "command": "factors", "convention": "shifted"},
    {"root_system": [[2, -1], [-1, 2]], "parabolic": [1],
     "character": {"coords": [["1", "-2"]], "smooth_tag": "s"}, "command": "candidates",
     "witness": True},
    {"root_system": "B_2", "embeddings": 2, "central": 1, "parabolic": [1],
     "character": {"coords": [["2", "-1", "1/2"], ["0", "0", "3"]]}, "pi_tag": "pi",
     "command": "obstructions", "oracle": True},
    {"root_system": "G_2", "parabolic": [2], "character": {"coords": [["0", "5/2"]]},
     "command": "dominance"},
    {"root_system": "A1xA1", "character": {"coords": [["1", "-1"]]}, "command": "orbit",
     "schema": cli.SCHEMA},
]
# (path into the document, valid replacements); a path ending in a row or a
# coordinate is taken modulo the document's own lengths
_FUZZ_FIELDS = [
    (("schema",), [cli.SCHEMA]),
    (("root_system",), ["A_1", "A2", "B_2", "G_2", [[2, -1], [-1, 2]], [[2, -3], [-1, 2]]]),
    (("embeddings",), [1, 2]),
    (("central",), [0, 1]),
    (("parabolic",), [[], [1], [2, 1, 1]]),
    (("character",), [{"coords": [["0", "0"]]}]),
    (("character", "coords"), [[["0", "1"]], [["1", "1"], ["-3", "1/2"]]]),
    (("character", "coords", 0), [["0", "0"], ["1", "2", "3"]]),
    (("character", "coords", 0, 0), ["0", "1", "-2", "1/2", 3, "+4", "-6/4"]),
    (("character", "coords", 1, 1), ["0", "2", "-7/3"]),
    (("character", "smooth_tag"), ["t", ""]),
    (("pi_tag",), ["pi", "x"]),
    (("convention",), ["paper", "shifted"]),
    (("command",), list(cli.COMMANDS)),
    (("oracle",), [True, False]),
    (("witness",), [True, False]),
    (("unknown",), []),
]
_FUZZ_BAD = [
    None, True, False, 0.5, 2.0, float("nan"), -1, 0, 3, 10**4400, -(10**4400), "9" * 4400,
    "", "x", "1/0", "0/0", "1/-2", "\ud800", "A_0", "E_9", "A_2x", "D_2", "A_1\ud800",
    [], {}, [[]], [1], [["0"], "0"], [[2, -1], [-1]], [[2, -1], [-1, 2, 0]],
    [[2, -2], [-2, 2]], [[2, -1], [0, 2]], [[2, 1], [1, 2]], [[2, -1], [-1, True]],
    [[2, -1], [-1, 2.0]], {"coords": [["0"]], "extra": 1},
]


def _slot(container, step):
    """The key or index that ``step`` names in ``container``, or None."""
    if isinstance(container, dict) and isinstance(step, str):
        return step
    if isinstance(container, list) and container and isinstance(step, int):
        return step % len(container)
    return None


def _fuzz_job(rng):
    doc = copy.deepcopy(rng.choice(_FUZZ_JOBS))
    for path, good in rng.sample(_FUZZ_FIELDS, rng.randint(1, 3)):
        parent = doc
        for step in path[:-1]:
            key = _slot(parent, step)
            if isinstance(parent, dict):
                parent = parent.get(key)
            else:
                parent = None if key is None else parent[key]
        key = _slot(parent, path[-1])
        if key is None:
            continue
        roll = rng.random()
        if roll > 0.95 and isinstance(parent, dict):
            parent.pop(key, None)
        else:
            value = rng.choice(good) if good and roll < 0.65 else rng.choice(_FUZZ_BAD)
            parent[key] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzed_jobs_are_refused_on_a_field_or_run(seed, monkeypatch):
    monkeypatch.setenv("LINKAGE_ORBIT_GUARD", "40")
    rng = random.Random(seed)
    ran = 0
    for _ in range(800):
        doc = _fuzz_job(rng)
        try:
            job = jobspec_from_dict(copy.deepcopy(doc))
        except ValidationError as exc:
            assert isinstance(exc.field, str) and exc.field and exc.message, doc
            continue
        assert jobspec_from_dict(copy.deepcopy(job)) == job, doc
        try:
            code, out = run(job)
        except lk.OrbitGuardExceeded:
            continue
        ran += 1
        assert code in (cli.EXIT_OK, cli.EXIT_GUARD, cli.EXIT_ORACLE_MISMATCH), doc
        assert out["job"] == job
        assert render_json(out) == json.dumps(out, indent=2, sort_keys=True)
        cli.render_table(out)
    assert ran >= 200  # a quarter of the documents reach run()
