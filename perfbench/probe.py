"""Set-up probe: what a fresh interpreter pays before its first answer.

    python3 perfbench/probe.py <src directory> <workload>

Times importing ``xmodlab``, building the workload's inputs from generator
strings or fixture JSON, and the first catalogue call (``small_group_name``
and ``match_catalogue``).  Prints one JSON line with the seconds and the
names the catalogue call returned, for the caller to check.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    src, name = argv
    workload = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import xmodlab  # noqa: F401  (timed: the import is part of set-up)

    names = workloads.catalogue_call(workload, workload.inputs())
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "names": names, "module": xmodlab.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
