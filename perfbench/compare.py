"""Compare two benchmark result files.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Both files are ``.perfbench_out/result-*.json`` files written by
``run.py``. Prints each metric of the two results side by side with the
relative change, and warns when the hosts differ in CPU count (a
throughput measured on 1 CPU says nothing about 2). Exits 3 when the
CPU counts differ, 0 otherwise.
"""

import json
import sys


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (_load(path) for path in argv)
    if before["workload"] != after["workload"]:
        print(
            f"note: different workloads ({before['workload']} vs {after['workload']})"
        )
    status = 0
    for key in ("nproc", "cpu_count"):
        a, b = before["host"].get(key), after["host"].get(key)
        if a != b:
            print(f"WARNING: host {key} differs ({a} vs {b}); figures are not comparable")
            status = 3
    for section in ("end_to_end", "per_layer"):
        names = sorted(set(before[section]) | set(after[section]))
        for name in names:
            a = before[section].get(name, {}).get("value")
            b = after[section].get(name, {}).get("value")
            unit = (after[section].get(name) or before[section].get(name))["unit"]
            if a is None or b is None:
                print(f"{section:10s} {name:32s} {a} -> {b} {unit}")
                continue
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"{section:10s} {name:32s} {a:.6g} -> {b:.6g} {unit} ({change})")
    return status


if __name__ == "__main__":
    sys.exit(main())
