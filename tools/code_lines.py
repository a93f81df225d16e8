"""Count the code lines and file lines of Python sources.

    python tools/code_lines.py            # src/nmwit, per module and in total
    python tools/code_lines.py PATH ...   # the given files, or the *.py files of the given directories
    python tools/code_lines.py --rev REV  # src/nmwit as of the git revision REV, with no checkout

A code line holds a token other than a comment, a line break, an indent or a
string that opens a logical line (a docstring). File lines are all lines.
With --rev, the modules are listed by ``git ls-tree`` and read by
``git show REV:src/nmwit/NAME``, so ``--rev HEAD`` against a plain run gives
the before and after of uncommitted work, and ``--rev A`` and ``--rev B``
those of two commits.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    lines, prev = set(), tokenize.NEWLINE
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        docstring = tok.type == tokenize.STRING and prev in (tokenize.NEWLINE, tokenize.INDENT,
                                                             tokenize.DEDENT)
        if tok.type not in _SKIP and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            prev = tok.type
    return len(lines)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def sources_at(rev: str) -> list[tuple[str, str]]:
    """(name, text) of every *.py module of src/nmwit as of the git revision rev."""
    names = git("ls-tree", "--name-only", f"{rev}:src/nmwit").split()
    return [(name, git("show", f"{rev}:src/nmwit/{name}")) for name in sorted(names)
            if name.endswith(".py")]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH")
    parser.add_argument("--rev", help="count src/nmwit as of this git revision")
    args = parser.parse_args(argv)
    if args.rev is not None:
        if args.paths:
            parser.error("--rev counts src/nmwit and takes no PATH")
        sources = sources_at(args.rev)
    else:
        roots = args.paths or [ROOT / "src" / "nmwit"]
        paths = sorted(p for root in roots for p in ([root] if root.is_file() else root.glob("*.py")))
        sources = [(path.name, path.read_text()) for path in paths]
    total_code = total_file = 0
    for name, text in sources:
        code, file = code_lines(text), len(text.splitlines())
        total_code, total_file = total_code + code, total_file + file
        print(f"{name:16} {code:6} {file:6}")
    print(f"{'total':16} {total_code:6} {total_file:6}")


if __name__ == "__main__":
    main(sys.argv[1:])
