"""The README's library quick start runs as printed and prints what it says."""
import contextlib
import io
import pathlib
import re

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
