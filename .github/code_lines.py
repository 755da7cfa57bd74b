"""Count code lines per file under ``src/repro`` at one or two git revisions.

    python .github/code_lines.py c3b2c8c           # counts at one revision
    python .github/code_lines.py c3b2c8c HEAD      # counts at both + delta

A code line is a line that holds at least one token other than a
comment, a blank line or part of a docstring (the first string statement
of a module, class or function).  Files are read with ``git show``, so
the working tree is never consulted: commit first.  Files present at
only one revision count 0 at the other.  The last row is the total.
"""

import ast
import io
import subprocess
import sys
import tokenize

ROOT = "src/repro"
_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token that is not a comment, a
    blank or a docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts_at(rev: str) -> dict[str, int]:
    paths = _git("ls-tree", "-r", "--name-only", rev, "--", ROOT).split()
    return {
        path[len(ROOT) + 1:]: code_lines(_git("show", f"{rev}:{path}"))
        for path in paths
        if path.endswith(".py")
    }


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: code_lines.py REV [REV]", file=sys.stderr)
        return 2
    tables = [counts_at(rev) for rev in argv]
    names = sorted(set().union(*tables))
    rows = [[name, *(t.get(name, 0) for t in tables)] for name in names]
    rows.append(["TOTAL", *(sum(t.values()) for t in tables)])
    print(f"{'file':<40}" + "".join(f"{rev[:12]:>14}" for rev in argv)
          + (f"{'delta':>8}" if len(argv) == 2 else ""))
    for name, *counts in rows:
        line = f"{name:<40}" + "".join(f"{n:>14}" for n in counts)
        if len(counts) == 2:
            line += f"{counts[1] - counts[0]:>+8}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
