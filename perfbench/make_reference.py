"""Write ``reference.json``: every workload member's summary and CSV sha256.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's correctness gate compares later commits against
it), with the same pinned environment as the benchmark:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import time

import run
from child import TOLERANCE


def main() -> int:
    members = {}
    for name in run.WORKLOADS:
        deadline = time.monotonic() + 600.0
        members.update(run.spawn("reference", name, 0, 0.0, deadline)["members"])
    payload = {
        "tolerance": TOLERANCE,
        "settings": "benchmark workloads as defined in child.py, BLAS pinned to one thread",
        "members": members,
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(members)} members to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
