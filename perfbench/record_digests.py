"""Record reference digests of seeded op outputs from finished runs.

    python3 perfbench/record_digests.py

Reads every ``.perfbench_out/<workload>-s<seed>-t<trace>.json`` result and
merges the digests of its first pass into ``perfbench/digests.json``, keyed
by scale, workload and seed.  Later runs at a recorded seed count the ops
whose digest differs as ``digest_mismatches``.  Re-record only when a change
alters a sampling law on purpose, and say so in the change.
"""

from __future__ import annotations

import glob
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")


def dumps(table: dict) -> str:
    """JSON with one line per (scale, workload, seed), so a re-recording
    shows in a diff as the seeds whose digests changed."""
    blocks = []
    for scale in sorted(table):
        workloads = []
        for workload in sorted(table[scale]):
            seeds = table[scale][workload]
            rows = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(seeds[seed], sort_keys=True)}"
                              for seed in sorted(seeds, key=int))
            workloads.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
        blocks.append(f" {json.dumps(scale)}: {{\n" + ",\n".join(workloads) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    recorded = 0
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "*-s*-t*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        ctx = result["context"]
        if not result.get("correct") or not result.get("digests"):
            continue
        slot = table.setdefault(ctx["scale"], {}).setdefault(ctx["workload"], {})
        slot[str(ctx["seed"])] = result["digests"]
        recorded += 1
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write(dumps(table))
    print(f"recorded {recorded} runs into {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
