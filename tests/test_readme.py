import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The python block under README's "Library quick start" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def _commented_value(comment: str):
    """The literal a `# value` comment gives: the longest prefix of the
    comment that ends at a `, ` or at its end and parses as a literal, so
    `# (25, 3), one row per coset` gives (25, 3)."""
    cuts = [i for i in range(len(comment)) if comment.startswith(", ", i)] + [len(comment)]
    for cut in reversed(cuts):
        try:
            return ast.literal_eval(comment[:cut])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"no literal value in the comment {comment!r}")


def test_readme_quick_start_values():
    """Every expression statement of README's library quick start gives
    the value its comment states, of the same type (an int stays an int, a
    list a list), so the docs cannot drift from the library."""
    block = _quick_start()
    lines = block.splitlines()
    env: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        code = compile(ast.Module([node], type_ignores=[]), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, env)
            continue
        line = lines[node.end_lineno - 1]
        assert "#" in line, f"README quick start: no value comment on {line!r}"
        expect = _commented_value(line.split("#", 1)[1].strip())
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), env)
        assert type(got) is type(expect) and got == expect, (line, got)
        checked += 1
    assert checked >= 8
