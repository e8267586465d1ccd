"""Compare two run records written by bench/run.py.

    python3 bench/diff_runs.py bench/out/runs/A.json bench/out/runs/B.json

Prints the run settings and environment of both records side by side,
then every metric with its change from the first record to the second.
"""

from __future__ import annotations

import json
import sys

FIELDS = ("workload", "seed", "seconds", "trace", "git_sha", "python", "numpy",
          "nproc", "correct", "attempted", "failed")


def _value(record: dict, name: str):
    return record["metrics"].get(name, {}).get("value")


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    first, second = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for field in FIELDS:
        print(f"{field:44} {first.get(field)!s:>16} {second.get(field)!s:>16}")
    names = list(first["metrics"]) + [n for n in second["metrics"] if n not in first["metrics"]]
    for name in names:
        a, b = _value(first, name), _value(second, name)
        unit = (first["metrics"].get(name) or second["metrics"][name])["unit"]
        change = f"{(b - a) / a:+.1%}" if a and b is not None else "-"
        print(f"{name:44} {_fmt(a):>16} {_fmt(b):>16} {change:>8}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
