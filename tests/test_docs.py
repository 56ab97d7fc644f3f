"""The code samples of README.md and docs/api.md run as written.

A sample that drifts from the code -- a renamed parameter, an import path
that no longer exists, a name it never defines -- fails here rather than
in a reader's shell.  Each ``python`` block runs on its own namespace,
in a scratch directory, so what it writes (a result cache, a campaign
store) lands there.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/api.md")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

SAMPLES = [
    pytest.param(block, id=f"{doc}:{number}")
    for doc in DOCS
    for number, block in enumerate(PYTHON_BLOCK.findall((REPO / doc).read_text()), 1)
]


def test_every_doc_has_samples():
    assert {param.id.split(":")[0] for param in SAMPLES} == set(DOCS)


@pytest.mark.parametrize("source", SAMPLES)
def test_a_sample_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "<sample>", "exec"), {"__name__": "__sample__"})
