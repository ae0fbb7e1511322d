"""Print the code lines of each module under src/swcopt and their total.

A code line is one that is neither blank nor comment-only; docstrings
count, and comments are found with tokenize, so a '#' inside a string is
not one.  Run from anywhere: python tools/sloc.py [package directory].
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swcopt"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Nonblank lines that some token other than a comment or layout spans."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = path.read_text().splitlines()
    spanned = {i for tok in tokens if tok.type not in _LAYOUT
               for i in range(tok.start[0], tok.end[0] + 1)}
    return sum(1 for i in spanned if lines[i - 1].strip())


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {p.name: code_lines(p) for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}} {n:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
