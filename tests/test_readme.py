"""README's python examples run as written, and print what their comments claim."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: a claimed magnitude in a comment, such as "# ~1e-11"
_CLAIM = re.compile(r"#\s*~(\d+(?:\.\d*)?e-?\d+)")


def test_readme_examples_print_their_claimed_magnitudes():
    # the blocks run in order in one namespace; each statement whose line
    # claims ~X must print one number within a factor of 10 of X
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    namespace = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
            claim = _CLAIM.search(lines[stmt.end_lineno - 1])
            if claim:
                claimed, value = float(claim.group(1)), float(printed.getvalue())
                assert claimed / 10 <= value <= claimed * 10, (lines[stmt.end_lineno - 1], value)
                checked.append(value)
    # every claim sits on the last line of a statement, so none goes unchecked
    assert checked and len(checked) == len(_CLAIM.findall("".join(blocks)))
