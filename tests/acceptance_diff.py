"""Print the before/after table of two acceptance runs.

Each file is the ``acceptance.json`` that a pytest session running
``tests/test_acceptance.py`` writes into its base temp directory; pass
``--basetemp DIR`` to fix where.  One Markdown row per measured value (and
one per criterion for its pass/fail), marked ``moved`` where the two runs
differ; a value missing on one side reads ``-``.  pytest does not collect
this file; run it as

    python tests/acceptance_diff.py BEFORE.json AFTER.json
"""

import json
import sys


def values(records: list[dict]) -> dict[tuple[str, str], object]:
    """(criterion, value name) -> value, its pass/fail as ``passed``."""
    out = {}
    for r in records:
        out[r["name"], "passed"] = r["passed"]
        out.update(((r["name"], key), v) for key, v in r["measured"].items())
    return out


def span(lo, hi) -> str:
    if lo is None:
        return f"<= {hi}"
    return f">= {lo}" if hi is None else f"[{lo}, {hi}]"


def main(before_path: str, after_path: str) -> int:
    before, after = (json.loads(open(p).read()) for p in (before_path, after_path))
    a, b = values(before), values(after)
    bound = {(r["name"], key): span(*lo_hi)
             for r in before + after for key, lo_hi in r["bound"].items()}
    keys = list(dict.fromkeys([*a, *b]))
    moved = 0
    print("| criterion | value | before | after | bound | |")
    print("|---|---|---|---|---|---|")
    for key in keys:
        x, y = a.get(key, "-"), b.get(key, "-")
        moved += x != y
        print(f"| {key[0]} | {key[1]} | {x} | {y} | {bound.get(key, '')} | "
              f"{'moved' if x != y else ''} |")
    print(f"\n{len(keys)} values, {moved} moved")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
