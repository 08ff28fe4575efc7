"""The README's library examples run as written, from the repository root."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def library_examples():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)


def test_readme_has_two_library_examples():
    assert len(library_examples()) == 2


@pytest.mark.parametrize("index", [0, 1])
def test_readme_library_example_runs(index, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(library_examples()[index], f"README.md example {index + 1}", "exec"), {})
