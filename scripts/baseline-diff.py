#!/usr/bin/env python3
"""Checks that two fleet bench reports differ only in host fields.

    scripts/baseline-diff.py OLD.json NEW.json

Rows are matched by label (`scenario@things shards=K`). Integers and
strings are compared exactly and floats by their IEEE-754 bits, so a
deterministic field passes only if its value is bit-identical (however
the number was spelled: `4e-05` and `0.00004` are the same double).
Host fields (walls, throughput, RSS, CPU count) may differ; the script
counts how many rows changed them. Keys present on one side only are
listed. Exits 1 if any deterministic field differs or a row is missing
from either side.
"""
import json
import sys

# Fields a host measures rather than the simulation computes.
HOST = {
    "wall_ms",
    "events_per_wall_s",
    "peak_rss_bytes",
    "cpus",
    "wall_samples_ms",
    "peak_rss_kb",
    "rss_epoch1_kb",
}


def is_host(key):
    return any(part in HOST for part in key)


def load(path):
    with open(path) as f:
        # Floats as their exact bits; Python integers are exact already.
        return json.load(f, parse_float=lambda text: float(text).hex())


def leaves(value, path=()):
    """Yields (path, value) for every scalar under `value`."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, path + (str(i),))
    else:
        yield path, value


def rows(report):
    out = {}
    for row in report["scenarios"]:
        label = f'{row["metrics"]["scenario"]}@{row["things"]} shards={row["shards"]}'
        out[label] = dict(leaves(row))
    top = {k: v for k, v in report.items() if k != "scenarios"}
    out["(report)"] = dict(leaves(top))
    return out


def main(old_path, new_path):
    old, new = rows(load(old_path)), rows(load(new_path))
    failed = False
    for label in sorted(old.keys() | new.keys()):
        if label not in old or label not in new:
            print(f"{label}: only in {'new' if label in new else 'old'}")
            failed = True
            continue
        a, b = old[label], new[label]
        for key in sorted(a.keys() | b.keys()):
            name = ".".join(key)
            if is_host(key):
                continue
            if key not in b:
                print(f"{label}: {name} removed (was {a[key]})")
            elif key not in a:
                print(f"{label}: {name} added ({b[key]})")
            elif a[key] != b[key]:
                print(f"{label}: {name} {a[key]} -> {b[key]}")
                failed = True
    host = sum(
        any(old[l].get(k) != new[l].get(k) for k in old[l].keys() | new[l].keys() if is_host(k))
        for l in old.keys() & new.keys()
    )
    print(f"{len(old.keys() & new.keys())} rows compared, {host} with re-recorded host fields")
    print("deterministic fields differ" if failed else "every deterministic field is byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
