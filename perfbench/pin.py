"""Pin the output digests that perfbench/run.py checks against.

Usage (from the repository root, on the commit whose outputs are the
reference): python3 perfbench/pin.py

Runs every campaign of every workload once, in a fresh process, for the
campaign seeds 0 .. run.PINNED_SEEDS-1, and writes sha256, byte count, row count and
violation count per campaign config to perfbench/digests.json.  A run
that exits nonzero or reports violations is not pinned; the script
stops with an error instead.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    cfgs = {}
    for seed in range(run.PINNED_SEEDS):
        for make in run.WORKLOADS.values():
            for cfg in make(seed):
                cfgs.setdefault(run.config_key(cfg), cfg)
    workdir = os.path.join(run.ROOT, ".perfbench-work", "pin")
    os.makedirs(workdir, exist_ok=True)
    pinned = {}
    try:
        for key, cfg in sorted(cfgs.items()):
            res = run.run_campaign_process(cfg, False, workdir, "pin")
            if res["exit"] != 0 or res.get("violations") or res["file_rows"] != res["rows"]:
                print(f"error: cannot pin {key}:\n{res['output']}", file=sys.stderr)
                return 1
            pinned[key] = {f: res[f] for f in ("sha256", "bytes", "rows", "violations")}
            print(f"{res['sha256']} rows={res['rows']:6d} {key}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
