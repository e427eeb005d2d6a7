#!/usr/bin/env python3
"""Count the code lines of Python files: lines without docstrings, comments or blank lines.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a file or a directory, whose *.py files are counted (default:
src/bandctl).  A line counts when some token of the tokenize module covers
it, other than a comment, a line break, an indent or dedent, and a string
that is a statement of its own (a docstring).  A token that spans lines
covers each of them.  The script prints the count of every file and the
total.
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
# dropped before counting; NEWLINE stays, to mark where each statement ends
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
         tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in _SKIP]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string that opens and closes its logical line is a docstring
        alone = ((i == 0 or tokens[i - 1].type == tokenize.NEWLINE)
                 and (i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE))
        if tok.type != tokenize.STRING or not alone:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    paths = [pathlib.Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    files = []
    for path in paths or [ROOT / "src" / "bandctl"]:
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
