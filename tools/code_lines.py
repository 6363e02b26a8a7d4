"""Count code lines per package of ``src/repro``.

A code line is a physical line that holds at least one token other than a
comment, a docstring, or the tokens that only carry layout (newlines,
indentation).  A docstring is any string that forms a statement on its own,
which covers module, class and function docstrings.  A token that spans
several lines (a multi-line string argument) counts every line it spans.

Usage::

    python tools/code_lines.py            # counts for src/repro
    python tools/code_lines.py PATH       # counts for another package root

Prints one ``<package> <code lines> <physical lines>`` row per top-level
package (modules directly under the root are grouped as ``(top)``), then the
total.  Stdlib only; nothing is compared against a threshold.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Tuple

_LAYOUT = frozenset(
    {
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.COMMENT,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)
#: Tokens around a string that forms a statement on its own (a docstring).
_STATEMENT_START = frozenset(
    {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
)
_STATEMENT_END = frozenset({tokenize.NEWLINE, tokenize.ENDMARKER})


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in (tokenize.NL, tokenize.COMMENT)
    ]
    lines = set()
    for index, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING:
            # A string that is a whole statement is a docstring; the token
            # list always ends with ENDMARKER, so ``index + 1`` exists.
            before = tokens[index - 1].type if index else tokenize.NEWLINE
            after = tokens[index + 1].type
            if before in _STATEMENT_START and after in _STATEMENT_END:
                continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count_packages(root: Path) -> Dict[str, Tuple[int, int]]:
    """``{package: (code lines, physical lines)}`` over every module under
    ``root``, keyed by top-level package name."""
    counts: Dict[str, List[int]] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "(top)"
        source = path.read_text(encoding="utf-8")
        row = counts.setdefault(package, [0, 0])
        row[0] += code_lines(source)
        row[1] += len(source.splitlines())
    return {package: (row[0], row[1]) for package, row in counts.items()}


def main(argv: List[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "repro"
    root = Path(argv[0]) if argv else default
    counts = count_packages(root)
    width = max(len(name) for name in counts) if counts else 5
    print(f"{'package':<{width}} {'code':>7} {'physical':>9}")
    for name, (code, physical) in sorted(counts.items()):
        print(f"{name:<{width}} {code:>7} {physical:>9}")
    total_code = sum(code for code, _ in counts.values())
    total_physical = sum(physical for _, physical in counts.values())
    print(f"{'total':<{width}} {total_code:>7} {total_physical:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
