"""Source lines of `src/vrcsim`, or of other directories, per module:
total, code, docstring, comment and blank.

    python3 tests/srclines.py [ROOT ...]

ROOT defaults to the `src/vrcsim` beside this file's directory. The `*.py`
files directly in each ROOT are counted, then the ROOT's total; with more
than one ROOT, a last `all` row sums them, so `python3 tests/srclines.py
src/vrcsim tests` gives the src lines, the test lines and both together.
Each physical line is counted once, in the first class it belongs to:

  docstring  part of a string statement alone on its logical line (a
             module, class or function docstring, or any other bare
             string), from its first line to its last;
  code       part of any other logical line, including every line of a
             multi-line string it holds;
  comment    a line that holds only a comment;
  blank      a line that holds only whitespace.

It reads the files with `tokenize` and needs nothing outside the standard
library. The file has no `test_` prefix, so the test suite does not
collect it.
"""

from __future__ import annotations

import argparse
import tokenize
from pathlib import Path

CLASSES = ("total", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path: Path) -> dict[str, int]:
    """The line counts of one file, by class."""
    total = len(path.read_text().splitlines())
    kind: list[str | None] = [None] * (total + 1)  # 1-based rows
    logical, comments = [], set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in _LAYOUT:
                logical.append(tok)
            elif tok.type == tokenize.NEWLINE and logical:
                docstring = all(t.type == tokenize.STRING for t in logical)
                for t in logical:
                    for row in range(t.start[0], t.end[0] + 1):
                        kind[row] = "docstring" if docstring else "code"
                logical = []
    counts = dict.fromkeys(CLASSES, 0)
    counts["total"] = total
    for row in range(1, total + 1):
        if kind[row] is None:
            kind[row] = "comment" if row in comments else "blank"
        counts[kind[row]] += 1
    return counts


def _row(name: str, counts: dict[str, int]) -> None:
    print(f"{name:<24}" + "".join(f"{counts[c]:>10}" for c in CLASSES))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", type=Path, metavar="ROOT",
                    default=[Path(__file__).resolve().parent.parent / "src" / "vrcsim"])
    roots = ap.parse_args().roots
    grand = dict.fromkeys(CLASSES, 0)
    _row("module", dict(zip(CLASSES, CLASSES)))
    for root in roots:
        totals = dict.fromkeys(CLASSES, 0)
        for path in sorted(root.glob("*.py")):
            counts = count(path)
            for c in CLASSES:
                totals[c] += counts[c]
            _row(path.name, counts)
        _row(f"{root.name}/ total", totals)
        for c in CLASSES:
            grand[c] += totals[c]
    if len(roots) > 1:
        _row("all", grand)


if __name__ == "__main__":
    main()
