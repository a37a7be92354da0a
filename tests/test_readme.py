"""The README's examples, run as written.

Every ``$ pantsarc ...`` line of a code block runs through ``cli.main``
and every ``>>>`` line through the interpreter; each output is compared
with the lines the README shows under it, trailing whitespace stripped.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from pantsarc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples(prompt):
    """(the text after ``prompt``, the lines shown under it, up to a
    blank line, the next prompt or the end of the block) for each
    prompt line of the README's code blocks."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    examples = []
    for block in blocks:
        shown = None
        for line in block.splitlines():
            if line.startswith(prompt):
                shown = []
                examples.append((line[len(prompt):], shown))
            elif line.startswith(("$ ", ">>> ")) or not line.strip():
                shown = None
            elif shown is not None:
                shown.append(line.rstrip())
    return examples


def _lines(text):
    return [line.rstrip() for line in text.splitlines()]


def test_readme_commands():
    examples = _examples("$ pantsarc ")
    assert len(examples) == 5
    for cmd, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(shlex.split(cmd))
        assert rc == 0, cmd
        assert _lines(out.getvalue()) == shown, cmd


def test_readme_library_session():
    examples = _examples(">>> ")
    assert len(examples) == 6
    names = {}
    for source, shown in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            # "single" prints an expression's repr, as the prompt does
            exec(compile(source, "README.md", "single"), names)
        assert _lines(out.getvalue()) == shown, source
