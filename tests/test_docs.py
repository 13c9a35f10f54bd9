"""The README's examples run against the current API and CLI."""

import re
import shlex
from pathlib import Path

from linkage_kit import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", TEXT, re.S)


def test_readme_library_sketch_runs():
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    (job,) = _blocks("json")
    (tmp_path / "job.json").write_text(job, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (block,) = [b for b in _blocks("") if b.startswith("linkage-kit ")]
    commands = block.replace("\\\n", " ").splitlines()
    assert any(c.split() == ["linkage-kit", "--job", "job.json"] for c in commands)
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "linkage-kit"
        assert cli.main(argv[1:]) == 0, command
        capsys.readouterr()
