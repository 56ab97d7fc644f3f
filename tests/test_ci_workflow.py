"""The CI workflow's ``-k`` filters name tests that exist.

A ``pytest -k`` expression that matches fewer tests than it names still
exits 0, so a renamed or deleted test would silently drop out of the CI
job that selects it by name.  Here each name of each ``-k`` expression
in the ``campaign`` and ``obs`` jobs must match a ``def test_...`` in
the test files the same step hands to pytest.

The workflow is read as text (no YAML parser among the test
dependencies): a step's ``run:`` is the line itself or, for a folded
``run: >`` block, the more-indented lines under it joined by spaces.
"""

import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

JOB = re.compile(r"^  ([\w-]+):\s*$")
RUN = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")


def run_commands(job):
    """The command line of every ``run:`` step of ``job``, in order."""
    commands, current, lines = [], None, WORKFLOW.read_text().splitlines()
    for number, line in enumerate(lines):
        header = JOB.match(line)
        if header:
            current = header.group(1)
            continue
        step = RUN.match(line)
        if current != job or step is None:
            continue
        indent, value = len(step.group(1)), step.group(2).strip()
        if value not in (">", "|"):
            commands.append(value)
            continue
        body = []
        for following in lines[number + 1:]:
            if following.strip() and len(following) - len(following.lstrip()) <= indent:
                break
            body.append(following.strip())
        commands.append(" ".join(body))
    return commands


def k_filters(job):
    """``(test files, -k names)`` of each pytest step of ``job``."""
    filters = []
    for command in run_commands(job):
        argv = shlex.split(command)
        if "pytest" not in argv or "-k" not in argv:
            continue
        files = [arg for arg in argv if arg.endswith(".py")]
        names = [name.strip() for name in argv[argv.index("-k") + 1].split(" or ")]
        filters.append((files, names))
    return filters


@pytest.mark.parametrize("job", ["campaign", "obs"])
def test_every_k_name_in_the_ci_workflow_names_a_test(job):
    filters = k_filters(job)
    assert filters, f"no pytest -k step found in CI job {job!r}"
    for files, names in filters:
        assert files, names
        sources = [(REPO / path).read_text() for path in files]
        for name in names:
            assert re.fullmatch(r"test_\w+", name), f"{job}: {name!r} is not a test name"
            defined = re.compile(rf"^\s*def {name}\(", re.MULTILINE)
            assert any(defined.search(source) for source in sources), (
                f"CI job {job!r} selects {name!r}, which no file of {files} defines"
            )
