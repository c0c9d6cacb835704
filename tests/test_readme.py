"""The README's library quick start runs as printed and prints what it
says, and every line of its command-line block exits 0."""
import contextlib
import io
import pathlib
import re
import shlex

from conifold_flows.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [float(word) for word in out.getvalue().split()]
    # the folded difference-equation residual and the plane-wave error
    assert len(printed) == 2
    assert all(value < 1e-12 for value in printed), printed


def _command_lines():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("conifold-flows ")]


def test_command_line_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _command_lines()
    assert len(commands) == 10
    for argv in commands:
        assert main(argv[1:]) == 0, argv
