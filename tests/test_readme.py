"""The README's published examples run as written: the Python block of the
Library section, and every `$ branchzeta ...` command whose output is shown
in full (no `...` line), with the exit code of its `echo $?` line, or 0."""

import shlex
from pathlib import Path

import pytest

from branchzeta.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The ```python block of the README's "Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs():
    exec(compile(library_example(), f"{README}:Library", "exec"), {})


def command_examples() -> list[tuple[str, str, int]]:
    """(command, shown output, shown exit code) of every `$ branchzeta`
    command in a plain ``` block whose output is shown in full.  A command's
    output is the lines up to the next `$ ` line; an `echo $?` command and
    its one output line give the exit code of the command before it."""
    shown, fence, current = [], None, None  # fence: the opening line of the block we are in
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fence = line if fence is None else None
            current = None
        elif fence != "```":
            continue
        elif line == "$ echo $?":
            current[2] = None
        elif line.startswith("$ "):
            current = [line[2:], [], 0]
            shown.append(current)
        elif current is not None and current[2] is None:
            current[2] = int(line)
        elif current is not None:
            current[1].append(line)
    return [(command, "".join(line + "\n" for line in lines), code)
            for command, lines, code in shown
            if command.startswith("branchzeta ") and "..." not in lines]


def test_readme_command_examples_are_found():
    # a README layout the parser misreads would leave nothing to run
    assert len(command_examples()) >= 5


@pytest.mark.parametrize("command,output,code", command_examples(),
                         ids=[command for command, _, _ in command_examples()])
def test_command_example_prints_what_it_shows(capsys, command, output, code):
    # stderr then stdout, as a terminal shows a command that writes its
    # stderr lines before its stdout
    rc = main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert (err + out, rc) == (output, code)
