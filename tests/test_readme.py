"""The README's library examples run as written, from the repository root, and
the README and the config docstring name the keys of the config table."""
import configparser
import re
from pathlib import Path

import pytest

import diracstar.config as config_module
from diracstar import load_config

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


def test_readme_config_loads_and_names_every_key(tmp_path):
    block = re.search(r"^```ini\n(.*?)^```", (ROOT / "README.md").read_text(),
                      re.M | re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    load_config(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    named = {
        (config_module._BOND if section.startswith("bond ") else section, key)
        for section in parser.sections() for key in parser.options(section)
    }
    assert named == set(config_module._KEYS)


def test_config_docstring_lists_the_key_table():
    listed = set()
    for line in config_module.__doc__.splitlines():
        if m := re.match(r"\s+\[(.+?)\]\s+(.*)", line):
            keys = re.sub(r"\(.*?\)", "", m.group(2)).split(",")
            listed |= {(m.group(1), key.strip()) for key in keys}
    assert listed == set(config_module._KEYS)
