"""Campaign benchmark for sl2lab.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-gf4 --seed 1 --seconds 60 --trace 0

--workload is one of WORKLOADS or `all`.  Each campaign of a workload runs
in its own fresh process (perfbench/child.py) through the public
sl2lab.harness.run_campaign entry point, on the sources under src/.  The
workload is repeated in passes until --seconds is used up; every metric
is the median over passes.  Every output file is checked against the
digests pinned in perfbench/digests.json; a campaign run fails on a
nonzero exit, a missing or mismatched digest, a row-count or determinism
mismatch, or any violation.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")

MIN_PASSES = 3
MIN_TRACE_ROUNDS = 2
CAMPAIGN_TIMEOUT_S = 60  # a hung campaign is killed with its pool workers and fails


def _sweep_gf4(seed):
    return [dict(campaign="exhaustive-subsets", p=2, r=2, workers=2)]


def _battery_gf16(seed):
    return [
        dict(campaign="family-verify", p=2, r=4, workers=1),
        dict(campaign="family-verify", p=13, r=1, workers=1),
    ]


def _mixed_q7(seed):
    # two-line-exhaustive draws nothing at random, so it keeps seed 0
    # (the seed is echoed in its output) and its digest stays pinned.
    return [
        dict(campaign="two-line-exhaustive", p=5, r=1, fmt="json", workers=1),
        dict(campaign="lineset-exhaustive", p=7, r=1, budget=200, seed=seed, workers=1),
        dict(campaign="incidence-report", p=7, r=1, budget=300, seed=seed, workers=1),
        dict(
            campaign="search-extremal",
            p=7,
            r=1,
            strategy="orbit-union",
            budget=100,
            seed=seed,
            workers=1,
        ),
        dict(campaign="triple-audit", p=7, r=1, budget=20, seed=seed, workers=1),
    ]


WORKLOADS = {
    "sweep-gf4": _sweep_gf4,
    "battery-gf16": _battery_gf16,
    "mixed-q7": _mixed_q7,
}

# digests.json pins the campaign seeds 0 .. PINNED_SEEDS-1; a workload
# seed is folded into that range, so every campaign run has a pin.
PINNED_SEEDS = 32


def campaign_seed(seed: int) -> int:
    return seed % PINNED_SEEDS

# Rows each campaign must write whatever its seed; search-extremal keeps
# a seed-dependent number of ranked candidates, so it has no entry.
PLANNED_ROWS = {
    ("exhaustive-subsets", 4): 65536,
    ("family-verify", 16): 13,
    ("family-verify", 13): 13,
    ("two-line-exhaustive", 5): 6750,
    ("lineset-exhaustive", 7): 326,
    ("incidence-report", 7): 300,
    ("triple-audit", 7): 20,
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

# per-layer metric -> the traced span it sums (times) or counts (calls)
LAYER_TIMES = {
    "harness.csv_write_s": "harness.csv_write",
    "stabilizer.fast_s": "stabilizer.fast",
    "stabilizer.bound_report_s": "stabilizer.bound_report",
    "stabilizer.brute_s": "stabilizer.brute",
    "stabilizer.table_s": "stabilizer.table",
    "stabilizer.lineset_s": "stabilizer.lineset",
    "stabilizer.orbits_s": "stabilizer.orbits",
    "stabilizer.audit_s": "stabilizer.audit",
    "incidence3d.build_s": "incidence3d.build",
    "incidence3d.richness_s": "incidence3d.richness",
    "incidence3d.count_s": "incidence3d.count",
    "incidence3d.all_lines_s": "incidence3d.all_lines",
    "plane.sl2_materialize_s": "plane.sl2_materialize",
    "families.gen_family_s": "families.gen_family",
    "gf.make_field_s": "gf.make_field",
    "rng.sample_s": "rng.sample",
}
LAYER_CALLS = {
    "stabilizer.fast_calls": "stabilizer.fast",
    "stabilizer.bound_report_calls": "stabilizer.bound_report",
    "stabilizer.brute_calls": "stabilizer.brute",
    "incidence3d.brute_calls": "incidence3d.brute",
    "plane.point_permutation_calls": "plane.point_permutation",
}
PER_LAYER_UNITS = {
    "harness.self_s": "s",
    "harness.rows": "count",
    "harness.bytes_out": "bytes",
    "harness.pool_scaling_eff": "ratio",
    "stabilizer.fast_accept_ratio": "ratio",
    "incidence3d.lines_in": "count",
    "trace.overhead_frac": "frac",
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
}


def config_key(cfg: dict) -> str:
    """Digest key: every config field that can change the output bytes."""
    return " ".join(f"{k}={cfg[k]}" for k in sorted(cfg) if k not in ("workers", "out"))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SL2LAB_WORKERS", None)
    return env


def _count_rows(path: str, fmt: str) -> int:
    if fmt == "json":
        with open(path) as fh:
            return len(json.load(fh)["rows"])
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 2  # echo line and header


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every process of the group has already exited


def run_campaign_process(cfg: dict, trace: bool, workdir: str, tag: str) -> dict:
    """Run one campaign in a fresh process and return its measurements.

    cpu_s comes from wait4 on the campaign process, which includes the
    pool workers it has reaped; the process reports its own peak RSS.
    The process leads its own process group, so the watchdog also kills
    pool workers, which hold the output pipe open.
    """
    fmt = cfg.get("fmt", "csv")
    out = os.path.join(workdir, f"{tag}.{fmt}")
    spec = json.dumps({"config": {**cfg, "out": out}, "trace": trace})
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, spec],
        cwd=workdir,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    watchdog = threading.Timer(CAMPAIGN_TIMEOUT_S, _kill_group, (proc.pid,))
    watchdog.start()
    with proc.stdout:
        text = proc.stdout.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)

    result = {
        "key": config_key(cfg),
        "campaign": cfg["campaign"],
        "q": cfg["p"] ** cfg["r"],
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "output": text,
    }
    lines = text.strip().splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        return result
    result["setup_s"] = float(ready[0].split()[1]) - t_spawn
    result.update(json.loads(lines[-1]))
    with open(out, "rb") as fh:
        data = fh.read()
    result["sha256"] = hashlib.sha256(data).hexdigest()
    result["bytes"] = len(data)
    result["file_rows"] = _count_rows(out, fmt)
    os.remove(out)
    return result


class Checker:
    """Correctness gate for every campaign run of one benchmark run."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.seen: dict = {}  # key -> sha256 of the first run in this process
        self.attempted = 0
        self.failed = 0

    def problems(self, res: dict) -> list:
        if res["exit"] != 0 or "sha256" not in res:
            return [f"exit {res['exit']}: {res['output'].strip()[-400:]}"]
        out = []
        if res["violations"]:
            out.append(f"{res['violations']} violations")
        if res["file_rows"] != res["rows"]:
            out.append(f"file has {res['file_rows']} rows, campaign reported {res['rows']}")
        planned = PLANNED_ROWS.get((res["campaign"], res["q"]))
        if planned is not None and res["rows"] != planned:
            out.append(f"{res['rows']} rows, planned {planned}")
        pinned = self.digests.get(res["key"])
        if pinned is None:
            out.append("no pinned digest")
        else:
            for field in ("sha256", "rows", "violations", "bytes"):
                if res[field] != pinned[field]:
                    out.append(f"{field} {res[field]} != pinned {pinned[field]}")
        first = self.seen.setdefault(res["key"], res["sha256"])
        if res["sha256"] != first:
            out.append("output differs from an earlier run of the same config")
        return out

    def check(self, res: dict) -> bool:
        self.attempted += 1
        bad = self.problems(res)
        if bad:
            self.failed += 1
            print(f"FAIL {res['key']}: {'; '.join(bad)}", file=sys.stderr)
        return not bad


def run_pass(cfgs, trace, workdir, checker) -> dict | None:
    """One pass over a workload's campaigns; None if any campaign failed."""
    results = []
    for i, cfg in enumerate(cfgs):
        res = run_campaign_process(cfg, trace, workdir, f"c{i}")
        if not checker.check(res):
            return None
        results.append(res)
    wall = sum(r["wall_s"] for r in results)
    rows = sum(r["rows"] for r in results)
    return {
        "results": results,
        "wall_s": wall,
        "rows": rows,
        "rows_per_s": rows / wall,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "bytes": sum(r["bytes"] for r in results),
    }


def _repeat(seconds: float, minimum: int, step) -> None:
    """Call step() at least `minimum` times, then while one more call is
    expected to fit in `seconds`."""
    t0 = time.monotonic()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.monotonic() - t0
        if n >= minimum and elapsed * (n + 1) / n > seconds:
            return


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def measure_end_to_end(make, seed, seconds, workdir, checker) -> dict:
    """Passes of the workload as configured; pass i uses the campaign
    seed campaign_seed(seed + i), so the median of a run spans several
    seeds of the seeded campaigns, not the luck of one.  One untimed
    warm-up pass, checked like the others, comes first and counts
    against `seconds`.  setup_s is the median over every campaign
    process of the timed passes that passed the gate."""
    t0 = time.monotonic()
    run_pass(make(campaign_seed(seed)), False, workdir, checker)
    passes = []

    def step():
        cfgs = make(campaign_seed(seed + len(passes)))
        passes.append(run_pass(cfgs, False, workdir, checker))

    _repeat(seconds - (time.monotonic() - t0), MIN_PASSES, step)
    ok = [p for p in passes if p is not None]
    _print_samples("passes", ok)
    metrics = {"pass_frac": (checker.attempted - checker.failed) / checker.attempted}
    if ok:
        setups = [r["setup_s"] for p in ok for r in p["results"]]
        print(f"samples setup_s n={len(setups)}")
        metrics["setup_s"] = statistics.median(setups)
        for name in ("wall_s", "rows_per_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = _median(ok, name)
    return metrics


def _print_samples(label, passes):
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"samples {label} n={len(passes)} wall_s: {walls}")


def _layer_totals(p: dict) -> dict:
    """Sum the traced spans and counts of one pass over its campaigns."""
    tot = {"seconds": {}, "calls": {}, "counts": {}, "harness_self": 0.0}
    for r in p["results"]:
        for part in ("seconds", "calls", "counts"):
            for k, v in r[part].items():
                tot[part][k] = tot[part].get(k, 0) + v
        tot["harness_self"] += r["self_seconds"]["harness.run_campaign"]
    return tot


def measure_layers(cfgs, seconds, workdir, checker) -> dict:
    """Alternate untraced and traced passes; traced ones run at workers=1
    because spans inside pool workers never reach the parent."""
    serial = [{**c, "workers": 1} for c in cfgs]
    variants = {"base": (cfgs, False), "serial": (serial, False), "traced": (serial, True)}
    if serial == cfgs:
        del variants["serial"]
    runs = {name: [] for name in variants}

    def round_():
        for name, (cs, trace) in variants.items():
            runs[name].append(run_pass(cs, trace, workdir, checker))

    _repeat(seconds, MIN_TRACE_ROUNDS, round_)
    runs = {name: [p for p in ps if p is not None] for name, ps in runs.items()}
    for name, ps in runs.items():
        _print_samples(name, ps)
    if not all(runs.values()):
        return {}
    serial_runs = runs.get("serial", runs["base"])
    traced = [_layer_totals(p) for p in runs["traced"]]

    def med(fn):
        return statistics.median(fn(t) for t in traced)

    metrics = {
        "harness.self_s": med(lambda t: t["harness_self"]),
        "harness.rows": runs["traced"][0]["rows"],
        "harness.bytes_out": runs["traced"][0]["bytes"],
        "harness.pool_scaling_eff": 0.0,
        "trace.overhead_frac": _median(runs["traced"], "wall_s") / _median(serial_runs, "wall_s")
        - 1,
    }
    if "serial" in runs:
        workers = max(c["workers"] for c in cfgs)
        metrics["harness.pool_scaling_eff"] = _median(runs["serial"], "wall_s") / (
            workers * _median(runs["base"], "wall_s")
        )
    for name, span in LAYER_TIMES.items():
        metrics[name] = med(lambda t: t["seconds"].get(span, 0.0))
    for name, span in LAYER_CALLS.items():
        metrics[name] = traced[0]["calls"].get(span, 0)
    counts = traced[0]["counts"]
    tried = counts.get("stabilizer.fast_candidates", 0)
    metrics["stabilizer.fast_accept_ratio"] = (
        counts.get("stabilizer.fast_accepted", 0) / tried if tried else 0.0
    )
    metrics["incidence3d.lines_in"] = counts.get("incidence3d.lines_in", 0)
    return metrics


def environment(workload: str, seed: int) -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sl2lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"  # the benchmark may run from a plain source tree
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "campaign_seed": campaign_seed(seed),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_workload(name, seed, seconds, trace, workdir, digests):
    checker = Checker(digests)
    if trace:
        cfgs = WORKLOADS[name](campaign_seed(seed))
        metrics = measure_layers(cfgs, seconds, workdir, checker)
        units = PER_LAYER_UNITS
    else:
        metrics = measure_end_to_end(WORKLOADS[name], seed, seconds, workdir, checker)
        units = END_TO_END
    print("env " + json.dumps(environment(name, seed)))
    for key, sha in sorted(checker.seen.items()):
        print(f"digest {name} {sha} {key}")
    print(
        f"runs {name} attempted={checker.attempted} failed={checker.failed}"
        f" fail_frac={checker.failed / checker.attempted:.4g}"
    )
    for metric in units:
        if metric in metrics:
            print(f"metric {name} {metric} {metrics[metric]!r} {units[metric]}")
    return checker, {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sl2lab", "harness.py")):
        print(f"error: no sl2lab sources under {SRC}", file=sys.stderr)
        return 2
    # load the pinned digests and warm the bytecode cache before timing
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    subprocess.run([sys.executable, "-c", "import sl2lab.harness"], env=_child_env(), check=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            checker, got = run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir, digests
            )
            attempted += checker.attempted
            failed += checker.failed
            prefix = "" if len(names) == 1 else f"{name}:"
            metrics.update({prefix + k: v for k, v in got.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another benchmark run still uses it
    complete = len(metrics) == len(names) * len(PER_LAYER_UNITS if args.trace else END_TO_END)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
