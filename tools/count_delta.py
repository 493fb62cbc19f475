"""Check that a change moves only counts, and moves them only down.

Compares two dumps of ``tools/equality_dump.py``, the parent's and the
change's:

    python3 tools/count_delta.py parent.json change.json

Prints, for each queue kind and for the pipeline, the summed comparisons and
additions on both sides, the delta and how many cases fell.  Then exits 1
and names the offending cases if the two dumps hold different cases or
fields, if any field other than a count differs, or if any count rose.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

COUNTS = ("comparisons", "additions", "extract_comparisons", "lazy_spend")
TOTALS = ("comparisons", "additions")  # summed per kind and printed


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: count_delta.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        old = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    faults = [f"{name}: only in one dump" for name in sorted(old.keys() ^ new.keys())]
    before, after, fell = Counter(), Counter(), Counter()  # by (kind, count)
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        for field in sorted(a.keys() | b.keys()):
            if field not in a or field not in b:
                faults.append(f"{name}: field {field} only in one dump")
            elif field in COUNTS:
                if b[field] > a[field]:
                    faults.append(f"{name}: {field} rose {a[field]} -> {b[field]}")
            elif a[field] != b[field]:
                faults.append(f"{name}: {field} differs")
        kind = name.split("/")[1]  # graph/kind/mode, graph/pipeline/..., replay-sN/kind
        for count in TOTALS:
            x, y = a.get(count, 0), b.get(count, 0)
            before[kind, count] += x
            after[kind, count] += y
            fell[kind, count] += y < x
    for key in sorted(before):
        print(f"{key[0]:<10} {key[1]:<11} {before[key]:>11,} -> {after[key]:>11,}"
              f"  delta {after[key] - before[key]:>+9,}  fell in {fell[key]} cases")
    if faults:
        print("\n".join(faults), file=sys.stderr)
        print(f"{len(faults)} faults", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
