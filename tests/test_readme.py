"""The README's published library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The ```python block of the README's "Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs():
    exec(compile(library_example(), f"{README}:Library", "exec"), {})
