"""Golden bytes for the CLI: the sha256 of (exit code, stdout, stderr) of
``cli.main`` on a fixed list of jobs, covering all six commands, both
output formats, ``--witness``, ``--oracle``, job files, validation errors
and guard errors.  A refactor of the CLI must leave every digest as it is.

Argparse usage errors and JSON-decoder messages are left out: their text
depends on the Python version.
"""

import contextlib
import hashlib
import io
import json

import pytest

from linkage_kit import cli

A2 = [[2, -1], [-1, 2]]

# (label, argv or job-file document, LINKAGE_ORBIT_GUARD or None)
JOBS = [
    ("linkset-A2", ["--root-system", "A_2", "--weight", "0,0", "--command", "linkset"], None),
    ("linkset-A2-nonintegral", ["--root-system", "A_2", "--weight", "1/2,0", "--command", "linkset"], None),
    ("linkset-B2-witness", ["--root-system", "B_2", "--weight", "1,0", "--smooth", "s", "--command", "linkset", "--witness"], None),
    ("linkset-A1xA1-witness-table", ["--root-system", "A1xA1", "--weight", "0,1", "--command", "linkset", "--witness", "--format", "table"], None),
    ("linkset-G2-oracle", ["--root-system", "G_2", "--weight", "0,0", "--command", "linkset", "--oracle"], None),
    ("linkset-A2x2-witness", ["--root-system", "A_2", "--embeddings", "2", "--weight", "0,0;1,1", "--command", "linkset", "--witness"], None),
    ("linkset-matrix", ["--root-system", json.dumps(A2), "--weight", "0,0", "--command", "linkset"], None),
    ("linkset-A2-central-shifted", ["--root-system", "A_2", "--central", "1", "--weight", "0,0,3/2", "--convention", "shifted", "--command", "linkset"], None),
    ("linkset-B2-shifted-oracle-witness", ["--root-system", "B_2", "--weight=-1,0", "--convention", "shifted", "--command", "linkset", "--oracle", "--witness"], None),
    ("linkset-A3-table", ["--root-system", "A_3", "--weight", "0,0,0", "--command", "linkset", "--format", "table"], None),
    ("factors-A2", ["--root-system", "A_2", "--weight", "0,0", "--command", "factors"], None),
    ("factors-B2-witness-oracle", ["--root-system", "B_2", "--weight", "1,1", "--command", "factors", "--witness", "--oracle"], None),
    ("factors-A2x2-table", ["--root-system", "A_2", "--embeddings", "2", "--weight", "0,0;1/2,1/3", "--command", "factors", "--format", "table"], None),
    ("factors-C3-oracle", ["--root-system", "C_3", "--weight", "0,1,0", "--command", "factors", "--oracle"], None),
    ("factors-A1-shifted-witness", ["--root-system", "A_1", "--weight", "3", "--convention", "shifted", "--command", "factors", "--witness"], None),
    ("candidates-A2", ["--root-system", "A_2", "--parabolic", "1", "--weight", "2,0", "--command", "candidates"], None),
    ("candidates-B2-oracle-witness", ["--root-system", "B_2", "--parabolic", "1", "--weight", "1,0", "--command", "candidates", "--oracle", "--witness"], None),
    ("candidates-A2x2-table", ["--root-system", "A_2", "--embeddings", "2", "--parabolic", "2,1", "--weight", "1,1;0,2", "--command", "candidates", "--format", "table"], None),
    ("candidates-A3-oracle", ["--root-system", "A_3", "--parabolic", "2", "--weight", "0,1,0", "--command", "candidates", "--oracle"], None),
    ("candidates-A2-central", ["--root-system", "A_2", "--central", "1", "--parabolic", "1", "--weight", "1,-1,1/2", "--command", "candidates"], None),
    ("obstructions-A1", ["--root-system", "A_1", "--weight", "2", "--smooth", "omega", "--pi-tag", "pi", "--command", "obstructions"], None),
    ("obstructions-B2x2-central", ["--root-system", "B_2", "--embeddings", "2", "--central", "1", "--parabolic", "1", "--weight", "1,0,1/2;2,-1,3", "--command", "obstructions"], None),
    ("obstructions-A2-oracle", ["--root-system", "A_2", "--parabolic", "1", "--weight", "1,0", "--command", "obstructions", "--oracle"], None),
    ("obstructions-A2-table-oracle", ["--root-system", "A_2", "--parabolic", "1,2", "--weight", "1,1", "--command", "obstructions", "--format", "table", "--oracle"], None),
    ("obstructions-G2", ["--root-system", "G_2", "--parabolic", "2", "--weight", "0,1", "--smooth", "s", "--pi-tag", "p", "--command", "obstructions"], None),
    ("dominance-B2", ["--root-system", "B_2", "--weight", "1,-1/2", "--command", "dominance"], None),
    ("dominance-A2x2-central-table", ["--root-system", "A_2", "--embeddings", "2", "--central", "1", "--weight", "1,0,1/2;0,0,0", "--command", "dominance", "--format", "table"], None),
    ("dominance-G2-parabolic", ["--root-system", "G_2", "--parabolic", "1", "--weight", "1,0", "--command", "dominance"], None),
    ("orbit-A2", ["--root-system", "A_2", "--weight", "0,0", "--command", "orbit"], None),
    ("orbit-B2-table", ["--root-system", "B_2", "--weight", "1/2,0", "--command", "orbit", "--format", "table"], None),
    ("orbit-A1xA1x2", ["--root-system", "A_1xA_1", "--embeddings", "2", "--weight", "0,0;1,0", "--command", "orbit"], None),
    ("orbit-matrix", ["--root-system", json.dumps(A2), "--weight", "1,2", "--command", "orbit"], None),
    ("error-parabolic-index", ["--root-system", "A_2", "--parabolic", "3", "--weight", "0,0", "--command", "linkset"], None),
    ("error-coords-dimension", ["--root-system", "A_2", "--weight", "0,0,0", "--command", "linkset"], None),
    ("error-zero-denominator", ["--root-system", "A_1", "--weight", "2/0", "--command", "linkset"], None),
    ("error-convention", ["--root-system", "A_1", "--weight", "0", "--convention", "other", "--command", "linkset"], None),
    ("error-oracle-on-dominance", ["--root-system", "A_1", "--weight", "0", "--command", "dominance", "--oracle"], None),
    ("error-witness-on-obstructions", ["--root-system", "A_1", "--weight", "0", "--command", "obstructions", "--witness"], None),
    ("error-not-parabolic-dominant", ["--root-system", "A_2", "--parabolic", "1", "--weight=-1,0", "--command", "candidates"], None),
    ("error-affine-matrix", ["--root-system", "[[2,-2],[-2,2]]", "--weight", "0,0", "--command", "linkset"], None),
    ("error-unknown-type", ["--root-system", "Z_3", "--weight", "0,0,0", "--command", "linkset"], None),
    ("error-format", ["--root-system", "A_1", "--weight", "0", "--command", "linkset", "--format", "xml"], None),
    ("error-guard-not-integer", ["--root-system", "A_1", "--weight", "0", "--command", "linkset"], "abc"),
    ("error-embeddings", ["--root-system", "A_1", "--embeddings", "0", "--weight", "0", "--command", "linkset"], None),
    ("error-missing-command", ["--root-system", "A_1", "--weight", "0"], None),
    ("guard-orbit-B2", ["--root-system", "B_2", "--weight", "0,0", "--command", "orbit"], "3"),
    ("guard-linkset-A2", ["--root-system", "A_2", "--weight", "0,0", "--command", "linkset"], "4"),
    ("guard-obstructions-B2", ["--root-system", "B_2", "--parabolic", "1", "--weight", "1,0", "--command", "obstructions"], "2"),
    ("file-linkset-matrix", {"root_system": A2, "parabolic": [2, 1, 2], "character": {"coords": [["1", "-0/3"]], "smooth_tag": "f"}, "command": "linkset", "witness": True}, None),
    ("file-candidates-A1xA1", {"schema": "linkage-kit/1", "root_system": "A1xA1", "embeddings": 2, "parabolic": [1], "character": {"coords": [["2/2", "0"], [3, "1"]]}, "pi_tag": "q", "command": "candidates", "oracle": True}, None),
    ("file-unknown-field", {"root_system": "A_1", "character": {"coords": [["0"]]}, "command": "linkset", "colour": "red"}, None),
    ("file-foreign-schema", {"schema": "linkage-kit/0", "root_system": "A_1", "character": {"coords": [["0"]]}, "command": "linkset"}, None),
]

DIGESTS = {
    "linkset-A2": "7174533c8677818899bf2eadf0833d88be513966d66a8c8ae5d5905b149a4ca0",
    "linkset-A2-nonintegral": "983ba8a54c5415dc88ef8f42c27733ad0e90ea7b7998d7ea5b4264d3c539b551",
    "linkset-B2-witness": "99ebb016c86e03e021c573f2cffab6f6b779022d96c3fe84b398c2d8ec31b5a3",
    "linkset-A1xA1-witness-table": "6d85e8b91a78aec3979af339c8d3a6e761e5f2a068c632a2aa22feb0bf90c4a2",
    "linkset-G2-oracle": "3a690a52839362867ffb9188c51d4d04be3e4e7219f3b08962fe798c46c90df1",
    "linkset-A2x2-witness": "cedff05a34674826fcb558142084d4fbe12a9c8f62be6ddabf611fc384a350d3",
    "linkset-matrix": "1268a57860a740f03884065ae54981b1cf1a442edc7b7621aa0144ab8b5433af",
    "linkset-A2-central-shifted": "864c06e9c851940c1b255d266b1400b4fc91e9bef4f8f2d91d251e8f36385c8c",
    "linkset-B2-shifted-oracle-witness": "79de6971d47c9cc6d031736bfa0e3d8e37ebaac9c00b699b89c93874882c5aa0",
    "linkset-A3-table": "956878358bffcb3ee6385aa16d09eaa458bb90667e9b78385c95eced71fb0f91",
    "factors-A2": "104aba725ec67ea466ed4d025f1d7e00a1c06fcfe6140dc962f2bd06abac6ca2",
    "factors-B2-witness-oracle": "f64e4b20faec8ea3861721c2315d41b474096e6d92ee3863884308b96fba8260",
    "factors-A2x2-table": "9480a02469ac6ac37d197b1ab9d93c67c5ff5aa2ff08684c87baceaeaa31e27c",
    "factors-C3-oracle": "43e4299ab31c8e81d0eccf105493acb4da1778a57d375b43f4fa0d0b22389144",
    "factors-A1-shifted-witness": "5a60d0f8e580e6da0a187fca22924c701c90e31572241bfbe10e339a3443914a",
    "candidates-A2": "8107d1d116df0de28ac5280f4e703cc749398d2048982e1492667088c71b19e5",
    "candidates-B2-oracle-witness": "01c333a7d3fabce22b1d3c60dfe200215f5292bb1ef09b20dace86a76971557e",
    "candidates-A2x2-table": "79220aa6fa64edddb02cd62a653f8d5ec035928c26e6318d9aeb78d35b77f62d",
    "candidates-A3-oracle": "0f90ffcb07fe1a177704d667c3f88752030b796acb4d1e78bd78348478bdd3b1",
    "candidates-A2-central": "33e5d6c433c24368207d5f21c05921323d7618ad0b3490c8e113fcf1ff994fc4",
    "obstructions-A1": "f5b84a96e53a6c4f951c966da729f4056aa83fdee5221fb1ff294e2940d420aa",
    "obstructions-B2x2-central": "a845de69df40675a29e81be19a64e36ce6ebee91f16dac861905ab22f23ed084",
    "obstructions-A2-oracle": "c6ab9761b702eaf1b1631999160c96031a33f4485541516310e11bf52cefd455",
    "obstructions-A2-table-oracle": "7b23dd676ad7ea95f686f3ce92eb1ae0ca7a33fca5abe95603a2eadb7deabccc",
    "obstructions-G2": "c4d7e637cc62e6959c5e96b3b1eebcee7c10193574d3ceba3bcc679611afac57",
    "dominance-B2": "76e3e08cd476db35df3985777b4a8a05af08353a19f5195ee848417b13a94573",
    "dominance-A2x2-central-table": "9da600bd203fb07f3b61a88f9bb88341424473d6c7863c53f1bec4e9a83b0370",
    "dominance-G2-parabolic": "bddb5599ff6e784704b86e976e7deba0345806141ac52d1ff0ade8338d51a4b0",
    "orbit-A2": "bdeb721c0c320b030ff169b570852b0927528281e0e794c3c7022b8a6e4707b8",
    "orbit-B2-table": "e1b4c22c6b5e663578686fa2f8c56fd7c75a96283aca9bab9c0b2827fd42304b",
    "orbit-A1xA1x2": "8eec106bcbcfaa0f99ca62ba5ba872e4b575bfc8b348eff28758828eff5bbe26",
    "orbit-matrix": "93673aed625d600e6116a1703cf54b4e109eb7db010430e5ef34e4ff12c1b28c",
    "error-parabolic-index": "e62e1b15215c33390a4a84bb60d1a307ec53ba9873e452bd9f4d9ee93dfee84d",
    "error-coords-dimension": "506e05f06281bae22d39863861674b9d04ca43ab3925dfbd695f79554da11d31",
    "error-zero-denominator": "40d7609b1c57554abe725b32dc51f526a2cb89a3cbb41d122271e2e01df3278b",
    "error-convention": "1aff8253c2dc071455aa7e11540f749621e2b157ff1cf291f55182bf4967d5ce",
    "error-oracle-on-dominance": "ba820d4de73729722c607c766ff41dcebdab6a0a7da67e6246eafb85ab157dbf",
    "error-witness-on-obstructions": "f819fc1a6a1c60dca28275b1f0722f303f97dd69957304ab29a74199ccda0a0c",
    "error-not-parabolic-dominant": "a9dbb1be9924f2756e72d4317b178fc32addf6ddcb07d462a99bfd41ef337375",
    "error-affine-matrix": "344fc7a5b674fba753c39801882e652735a8b57a0a2cbd0913a9274d51796c93",
    "error-unknown-type": "39279ca3c652d9eaba073839b1f254cef11786d2cdb662ef1d2826eddf29a2d8",
    "error-format": "3a8aec48e488a5176d2328595de60438c53a16fbdb662cd8ce2a9453b64a5679",
    "error-guard-not-integer": "7c457a05fcdd43c291f1cae7d47e2f2ffd3254ba131308f1e2f9efda9df30d94",
    "error-embeddings": "5e81a34bb68cd22bc2fe45ba1cc88019f8ea35bbac1e3304fcfa2fcd151b1fbe",
    "error-missing-command": "52af1c908750a2b15b3a72e2b613e91d2ac41b51203abf7a9c6f256735fb6103",
    "guard-orbit-B2": "b12eef2bef2c24ddb1c8fbbe5c60976bbbeeab8383507d243b06b750b8787c64",
    "guard-linkset-A2": "24016810b5c7b0a31c3f45e3a7c6c526e261dba8726fdea121c03b820b9cc9ce",
    "guard-obstructions-B2": "1b0dbf047fc3f33b388afb4a893247a1bf59bacc765649e2e5a30a93755148e0",
    "file-linkset-matrix": "802bdbe6ca048a1ca75b0308bac1b6b0aa226745d2ea4e3c5734ffa8e5a83967",
    "file-candidates-A1xA1": "2e385d346703bda3bbaf98298b65b4465cc40d53a5f1720724ae67b076a2a8e7",
    "file-unknown-field": "f68721a33850905709a5ca8927b4ee140712606604dcc3f442b273a5c60fb91e",
    "file-foreign-schema": "4cacd864127f91577f83ca71a685e6694ed02e2516740c9ce913ef6cc11701f7",
}


def _digest(source, guard, tmp_path, monkeypatch) -> str:
    if guard is None:
        monkeypatch.delenv("LINKAGE_ORBIT_GUARD", raising=False)
    else:
        monkeypatch.setenv("LINKAGE_ORBIT_GUARD", guard)
    argv = source
    if isinstance(source, dict):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(source))
        argv = ["--job", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("label,source,guard", JOBS, ids=[job[0] for job in JOBS])
def test_cli_output_matches_golden_digest(label, source, guard, tmp_path, monkeypatch):
    assert _digest(source, guard, tmp_path, monkeypatch) == DIGESTS[label]


def test_golden_jobs_cover_every_command():
    commands = set()
    for _, source, _ in JOBS:
        if isinstance(source, dict):
            commands.add(source["command"])
        elif "--command" in source:
            commands.add(source[source.index("--command") + 1])
    assert commands == set(cli.COMMANDS)
    assert sorted(DIGESTS) == sorted(job[0] for job in JOBS)
