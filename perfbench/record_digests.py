"""Record the reference digests that the value-requests workload checks against.

Runs every request the workload can draw once, in process, and stores the
sha256 of its exact stdout bytes in perfbench/digests.json.  Record only at a
commit whose output bytes are known good; afterwards the bytes must not
change (ROADMAP aim 2), so the file is rewritten only when the grid of
requests changes.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import subprocess
import sys

from workloads import DIGESTS_PATH, ValueRequests, digest, run_cli


def main() -> int:
    digests = {}
    for op in ValueRequests.op_space():
        rc, out = run_cli(op)
        if rc != 0:
            print(f"{' '.join(op)}: exit code {rc}", file=sys.stderr)
            return 1
        digests[" ".join(op)] = digest(out)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    DIGESTS_PATH.write_text(
        json.dumps({"recorded_at_commit": commit or "unknown", "digests": digests}, indent=0, sort_keys=True)
        + "\n"
    )
    print(f"recorded {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
