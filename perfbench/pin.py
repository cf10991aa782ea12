"""Pin the digests of every workload's result files, for every input variant.

Run once, from the repository root, at the commit whose outputs are the
reference (it records that commit)::

    python3 perfbench/pin.py [workload ...]

It runs each workload's commands at the full and the smoke size for every
variant and writes ``perfbench/digests.json``. Naming workloads re-pins only
those and keeps the other entries; the source digest must then match. Manifests are not pinned:
they record the run's duration.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl


def main(argv: list[str]) -> int:
    workers = len(os.sched_getaffinity(0))
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    table = {"reference_commit": commit, "src_digest": wl.tree_digest(wl.SRC), "variants": wl.VARIANTS}
    if argv:
        kept = json.loads(wl.DIGESTS.read_text())
        if kept["src_digest"] != table["src_digest"] or kept["variants"] != wl.VARIANTS:
            print("pin: the source differs from the pinned reference; pin every workload", file=sys.stderr)
            return 1
        table = kept
    for size in wl.SIZES:
        table.setdefault(size, {})
        for workload in argv or wl.WORKLOADS:
            table[size][workload] = {}
            for variant in range(wl.VARIANTS):
                digests = {}
                if workload == "estimate":
                    digests["records.csv"] = wl.sha256(wl.make_records(size, variant))
                for cmd in wl.commands(workload, size, variant, workers, "pin"):
                    wl.clear_outputs(cmd)
                    subprocess.run(
                        [sys.executable, "-m", "gap_gauge", *cmd.argv],
                        cwd=wl.ROOT, env=wl.child_env(), check=True,
                    )
                    for rel in cmd.outputs:
                        digests[Path(rel).name] = wl.sha256(wl.ROOT / rel)
                table[size][workload][str(variant)] = digests
                print(size, workload, variant, flush=True)
    wl.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
