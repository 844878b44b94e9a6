#!/usr/bin/env python3
"""Checks that a regenerated sweep report simulates exactly what a committed
one does.

    same_simulation.py COMMITTED.json REGENERATED.json

Compares every field of the two `paper`, `adversity` or `service` reports
except the host-timed ones: the provenance (`git_rev`, `rustc`, `host_cores`), every
key ending in `wall_ns`, the recovery-ns (4th) element of each
`curve_step_logbytes_records_recns` point and the threaded `backpressure`
drill. Everything else (cycles, commits, aborts, claim verdicts, plan
digests, recovery counters, totals) is a pure function of the simulator, so any difference
means a change altered simulated behaviour. Exits 1 naming each
differing field.
"""

import json
import sys

HOST_KEYS = {"git_rev", "rustc", "host_cores", "backpressure"}
CURVE = "curve_step_logbytes_records_recns"


def strip(node):
    """The report with every host-timed field removed."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key in HOST_KEYS or key.endswith("wall_ns"):
                continue
            if key == CURVE:
                value = [point[:3] for point in value]
            out[key] = strip(value)
        return out
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def diff(a, b, path, out):
    """Appends every differing path to `out`; returns the leaves compared."""
    if isinstance(a, dict) and isinstance(b, dict):
        n = 0
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}.{key}: only in {'regenerated' if key in b else 'committed'}")
                continue
            n += diff(a[key], b[key], f"{path}.{key}", out)
        return n
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} items committed, {len(b)} regenerated")
        return sum(diff(x, y, f"{path}[{i}]", out) for i, (x, y) in enumerate(zip(a, b)))
    if a != b:
        out.append(f"{path}: committed {a!r}, regenerated {b!r}")
    return 1


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    committed, regenerated = (strip(json.load(open(p))) for p in sys.argv[1:])
    differences = []
    compared = diff(committed, regenerated, "$", differences)
    for d in differences[:50]:
        print(d)
    print(f"{compared} fields compared, {len(differences)} differ")
    sys.exit(1 if differences else 0)


if __name__ == "__main__":
    main()
