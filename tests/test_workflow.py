"""The CI workflow runs the tier-1 command that ROADMAP.md states, and
lists its slowest tests."""
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _roadmap_command() -> str:
    text = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", text).group(1)


def _workflow_step_command(name: str) -> str:
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8").splitlines()
    start = lines.index(f"      - name: {name}")
    # the step's keys are indented past its "- name:" line
    for line in lines[start + 1:]:
        if not line.startswith("        "):
            break
        key, _, value = line.strip().partition(": ")
        if key == "run":
            return value
    raise AssertionError(f"step {name!r} has no one-line run command")


def test_tier1_step_runs_the_roadmap_command():
    # --durations=15 only adds the slowest tests to the log
    assert (_workflow_step_command("Tier-1 tests")
            == _roadmap_command() + " --durations=15")
