"""The README's library example runs against the current API.

The fenced `python` block under `## Library` is run statement by
statement.  Where an expression statement ends in a comment that is a
Python literal, such as `# 3` or `# (2, 3, 3, 2)`, the expression must
give that value, so the values the README shows cannot drift either.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def shown_value(line):
    """The literal in the line's trailing comment, or None."""
    _, hash_, comment = line.partition("#")
    if not hash_:
        return None
    try:
        return (ast.literal_eval(comment.strip()),)
    except (ValueError, SyntaxError):
        return None


def test_library_example_runs_and_shows_its_values():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            got = eval(compile(ast.Expression(stmt.value), "README.md",
                               "eval"), namespace)
            shown = shown_value(lines[stmt.end_lineno - 1])
            if shown is not None:
                assert got == shown[0], lines[stmt.end_lineno - 1]
                checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
    assert checked >= 5
