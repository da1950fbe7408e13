"""The README Quickstart is ``examples/quickstart.py`` verbatim, so the
run of the examples covers it."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_is_the_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    example = (ROOT / "examples" / "quickstart.py").read_text(encoding="utf-8")
    code = example.split('"""', 2)[2].lstrip("\n")
    assert block == code
