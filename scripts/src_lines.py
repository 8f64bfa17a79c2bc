#!/usr/bin/env python3
"""Code lines of each src/sartrace module in two checkouts, and their difference.

    python3 scripts/src_lines.py PARENT_DIR CHANGE_DIR

A code line is a line that holds a token other than a comment or a
docstring: blank lines, comment lines and the lines of module, class and
function docstrings do not count, and a statement spread over several
lines counts each of them.  A module missing from one checkout counts 0
lines there.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """How many lines of source hold a token other than a comment or a docstring."""
    docstrings, lines = docstring_starts(source), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def module_lines(checkout: str) -> dict[str, int]:
    """{module file name: code lines} under checkout/src/sartrace."""
    package = os.path.join(checkout, "src", "sartrace")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    args = parser.parse_args(argv)
    parent, change = module_lines(args.parent), module_lines(args.change)
    print(f"{'module':16s} {'parent':>7s} {'change':>7s} {'delta':>6s}")
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, 0), change.get(name, 0)
        print(f"{name:16s} {a:7d} {b:7d} {b - a:+6d}")
    a, b = sum(parent.values()), sum(change.values())
    print(f"{'total':16s} {a:7d} {b:7d} {b - a:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
