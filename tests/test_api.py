"""The package's public surface: its exported names and README's library
example, so that neither can drift from the code."""

import re
from pathlib import Path

import fwmqkd

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(fwmqkd.__all__)) == len(fwmqkd.__all__)
    assert [name for name in fwmqkd.__all__ if not hasattr(fwmqkd, name)] == []


def test_the_readme_library_example_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "hi 1.0"
