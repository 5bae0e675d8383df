"""The package surface: its exported names and the README's library example."""

from pathlib import Path

import sigarea

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_exists_once():
    names = sigarea.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sigarea, name)] == []
    # discover is the one entry that scores pairs.
    assert "score_pair" not in names and not hasattr(sigarea, "score_pair")


def test_readme_quick_start_prints_what_its_comment_says(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comment = next(line for line in code.splitlines() if line.startswith("# "))
    expected = comment[2:].split("<-")[0].rstrip()
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == expected
