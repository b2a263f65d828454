"""One campaign in a fresh process, as a CLI user runs it.

Usage: python3 perfbench/child.py '<spec json>'

The spec holds the CampaignConfig fields ("config") and whether to
trace ("trace").  The process
imports sl2lab, builds the campaign's field, and prints
`ready <time.monotonic()>` so the parent can time set-up from the moment
it spawned this process.  It then runs the campaign through
sl2lab.harness.run_campaign and prints one JSON line with the campaign
wall time, its summary counts, its peak RSS and, when traced, the layer
spans.

A fresh process per campaign matters: sl2lab.harness keeps the subset
table, the family battery and the 3-space line pool in a module-level
dict across run_campaign calls, so a second run in one process would
read caches that a CLI user never has.

Exit status follows the CLI: 1 when the campaign reports violations.
"""

import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak RSS of this process and of the pool workers it has reaped.

    This process's own ru_maxrss is not used: Linux carries the spawning
    parent's peak across exec, so it would report the benchmark's RSS.
    VmHWM belongs to the address space created by exec.
    """
    with open("/proc/self/status") as fh:
        hwm_kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm_kb, workers_kb) / 1024.0


def main(spec_text: str) -> int:
    spec = json.loads(spec_text)
    tracer = None
    import sl2lab.harness as harness

    if spec["trace"]:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    cfg = spec["config"]
    harness.make_field(cfg["p"], cfg["r"])
    print(f"ready {time.monotonic()!r}", flush=True)

    config = harness.CampaignConfig(**cfg)
    run = harness.run_campaign
    if tracer is not None:
        run = tracer.wrap("harness.run_campaign", run)
    t0 = time.perf_counter()
    result = run(config)
    wall = time.perf_counter() - t0

    report = {
        "wall_s": wall,
        "rows": result.summary["rows"],
        "violations": result.summary["violations"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        report["seconds"] = dict(tracer.seconds)
        report["self_seconds"] = dict(tracer.self_seconds)
        report["calls"] = dict(tracer.calls)
        report["counts"] = dict(tracer.counts)
    print(json.dumps(report), flush=True)
    return 1 if report["violations"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
