"""The CI workflow files parse as YAML.

A workflow file that does not parse runs no job at all, so CI itself
cannot report it; a plain scalar holding ``": "`` is enough.  PyYAML is
not a declared dependency, so the test skips where it is missing.
"""
from pathlib import Path

import pytest

WORKFLOWS = Path(__file__).resolve().parent.parent / ".github" / "workflows"


def test_every_workflow_parses_as_yaml():
    yaml = pytest.importorskip("yaml")
    paths = sorted(WORKFLOWS.glob("*.yml"))
    assert paths
    for path in paths:
        doc = yaml.safe_load(path.read_text())
        assert isinstance(doc, dict) and doc.get("jobs"), path.name
