"""Check that a regenerated ``BENCH_*.json`` file kept its virtual fields.

Usage (from the repository root, after the benchmark rewrote the file)::

    python3 benchmarks/check_virtual_fields.py BENCH_sim.json

Every field that is not a host figure is compared with the file as
committed at ``HEAD``, through nested objects and lists alike.  Host
figures move from run to run and are skipped: keys matching
``HOST_FIELDS`` and the top-level ``python`` version.  Exits non-zero,
naming each field that moved, appeared or went missing.
"""

import fnmatch
import json
import subprocess
import sys

#: key patterns of host-time figures
HOST_FIELDS = ("*_host_s*", "*_mips", "*speedup*", "*_ms", "*_seconds",
               "*_per_second")
ABSENT = "(absent)"


def virtual(node, path=()):
    """Path -> value of every field below ``node`` that is not a host
    figure; an empty object or list is a value of its own."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = [(str(index), value) for index, value in enumerate(node)]
    else:
        items = None
    if not items:
        return {"/".join(path): node}
    fields = {}
    for key, value in items:
        if (not path and key == "python"
                or any(fnmatch.fnmatchcase(key, host)
                       for host in HOST_FIELDS)):
            continue
        fields.update(virtual(value, path + (key,)))
    return fields


def main(argv) -> int:
    path = argv[1]
    committed = virtual(json.loads(subprocess.run(
        ["git", "show", f"HEAD:{path}"], capture_output=True, text=True,
        check=True).stdout))
    with open(path) as fh:
        regenerated = virtual(json.load(fh))
    moved = sorted(key for key in committed.keys() | regenerated.keys()
                   if committed.get(key, ABSENT)
                   != regenerated.get(key, ABSENT))
    print(f"{path}: {len(committed)} virtual fields compared with HEAD")
    for key in moved:
        print(f"  {key}: {committed.get(key, ABSENT)} -> "
              f"{regenerated.get(key, ABSENT)}")
    if moved:
        print(f"{path}'s virtual fields moved")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
