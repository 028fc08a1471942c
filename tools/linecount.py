"""Count the lines of the `catreg` package by kind, in one tree or two.

    python tools/linecount.py [TREE] [OTHER_TREE]

A tree is a checkout of this repository (default: the one holding this file);
its modules are `src/catreg/*.py`. Every line of a module is one of:

- docstring: a line of a module, class or function docstring;
- code: any other line holding a token, a string or a continuation included;
- comment: a line holding only a comment;
- blank: a line holding nothing but white space.

A line of code with a comment after it is code, and a docstring that shares
its first line with code leaves that line to the code. The kinds of a module
add up to its total, which is its count of lines, as `wc -l` counts them on a
file that ends with a line break. Given two trees, each cell reads the second
tree's count and its change from the first; a module missing from a tree
counts 0 lines there.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

KINDS = ("total", "code", "docstring", "comment", "blank")
_SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> dict:
    """Lines of one module's source by kind: {kind: count} over KINDS."""
    docstrings = set()  # (row, column) where a docstring's string token starts
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                docstrings.add((value.lineno, value.col_offset))
    code, doc, comment = set(), set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type == tokenize.STRING and tok.start in docstrings:
            doc.update(rows)
        elif tok.type not in _SKIP:
            code.update(rows)
    counts = dict.fromkeys(KINDS, 0)
    counts["total"] = len(source.splitlines())
    for row in range(1, counts["total"] + 1):
        if row in code:
            counts["code"] += 1
        elif row in doc:
            counts["docstring"] += 1
        elif row in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def count_tree(tree: str) -> dict:
    """{module file name: count_lines} for each module of the tree's package."""
    package = os.path.join(tree, "src", "catreg")
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                out[name] = count_lines(f.read())
    return out


def table(first: dict, second: dict | None = None) -> list[str]:
    """The report's rows: a header, one row per module, then the package's sum."""
    empty = dict.fromkeys(KINDS, 0)
    before, now = (first, second) if second is not None else ({}, first)
    names = sorted({*before, *now})
    pairs = [(m, before.get(m, empty), now.get(m, empty)) for m in names]
    pairs.append(("all", *({k: sum(side.get(m, empty)[k] for m in names) for k in KINDS}
                           for side in (before, now))))
    rows = [["module", *KINDS]]
    for module, b, a in pairs:
        rows.append([module, *(str(a[k]) if second is None else f"{a[k]} ({a[k] - b[k]:+d})"
                               for k in KINDS)])
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) if c == 0 else cell.rjust(w)
                      for c, (cell, w) in enumerate(zip(row, widths))) for row in rows]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("tree", nargs="?", default=here)
    parser.add_argument("other", nargs="?")
    args = parser.parse_args(argv)
    first = count_tree(args.tree)
    second = count_tree(args.other) if args.other else None
    if second is not None:
        print(f"{args.other}, with the change from {args.tree}")
    print("\n".join(table(first, second)))


if __name__ == "__main__":
    main()
