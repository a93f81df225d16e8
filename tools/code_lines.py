"""Count the code lines and file lines of Python sources.

    python tools/code_lines.py            # src/nmwit, per module and in total
    python tools/code_lines.py PATH ...   # the given files, or the *.py files of the given directories

A code line holds a token other than a comment, a line break, an indent or a
string that opens a logical line (a docstring). File lines are all lines.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines, prev = set(), tokenize.NEWLINE
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        docstring = tok.type == tokenize.STRING and prev in (tokenize.NEWLINE, tokenize.INDENT,
                                                             tokenize.DEDENT)
        if tok.type not in _SKIP and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            prev = tok.type
    return len(lines)


def main(argv: list[str]) -> None:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "nmwit"]
    paths = sorted(p for root in roots for p in ([root] if root.is_file() else root.glob("*.py")))
    total_code = total_file = 0
    for path in paths:
        code, file = code_lines(path), len(path.read_text().splitlines())
        total_code, total_file = total_code + code, total_file + file
        print(f"{path.name:16} {code:6} {file:6}")
    print(f"{'total':16} {total_code:6} {total_file:6}")


if __name__ == "__main__":
    main(sys.argv[1:])
