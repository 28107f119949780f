"""README examples run as written, so a documented call that stops matching
the API fails here."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language: str) -> list:
    """The bodies of the README's code blocks fenced as ``language``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_library_example_runs_on_the_json_problem(tmp_path, monkeypatch, capsys):
    # One problem block and one library example; the example loads the
    # problem from my_problem.json in the working directory.
    (problem,) = fenced_blocks("json")
    (example,) = fenced_blocks("python")
    (tmp_path / "my_problem.json").write_text(problem, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip().startswith("[")
