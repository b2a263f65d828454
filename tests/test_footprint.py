"""What a campaign process loads and holds.

The import checks run in a fresh interpreter, since pytest itself loads
hashlib (OpenSSL), inspect and argparse.  The allocation bounds run in
this process under tracemalloc, from a cold field (make_field's cache
cleared), so every table a run builds counts.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sl2lab.harness as harness
from sl2lab.harness import CampaignConfig, make_field, run_campaign

SRC = str(Path(harness.__file__).resolve().parents[1])

# what the probe prints: the modules of HEAVY that are loaded
PROBE = """
import json, sys
import sl2lab.harness as harness

HEAVY = ("hashlib", "_hashlib", "dataclasses", "inspect", "argparse", "concurrent.futures")


def loaded():
    return sorted(set(HEAVY) & set(sys.modules))


"""


def probe(body: str, *args) -> list:
    """Run PROBE plus body in a fresh interpreter; body prints the last line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SL2LAB_WORKERS", None)
    done = subprocess.run([sys.executable, "-c", PROBE + body, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_heavy_module():
    # hashlib loads OpenSSL; dataclasses loads inspect; argparse is the
    # CLI's; concurrent.futures is the pool's
    assert probe("print(json.dumps(loaded()))") == []


def test_one_chunk_csv_run_loads_no_heavy_module(tmp_path):
    body = """
harness.run_campaign(harness.CampaignConfig(
    p=3, r=1, campaign="incidence-report", budget=5, workers=1, out=sys.argv[1]))
print(json.dumps(loaded()))
"""
    assert probe(body, str(tmp_path / "x.csv")) == []
    assert os.listdir(tmp_path) == ["x.csv"]


def test_checkpointing_run_loads_hashlib_and_seals(tmp_path):
    # eight chunks: a checkpoint after each of the first seven, sealed by
    # the sha256 of the output's prefix followed by the checkpoint's fields
    body = """
harness.CHUNK = 64
real = harness._run_range


def run_range(config, start, stop):
    if start >= 448:
        raise RuntimeError("injected crash")
    return real(config, start, stop)


harness._run_range = run_range
try:
    harness.run_campaign(harness.CampaignConfig(
        p=3, r=1, campaign="exhaustive-subsets", workers=1, out=sys.argv[1]))
except RuntimeError:
    pass
print(json.dumps(loaded()))
"""
    out = tmp_path / "x.csv"
    assert probe(body, str(out)) == ["_hashlib", "hashlib"]
    state = json.loads((tmp_path / "x.csv.ckpt").read_text())
    assert state["next_start"] == 448 and state["offset"] == out.stat().st_size
    seal = state.pop("sha256")
    text = out.read_bytes() + json.dumps(state, sort_keys=True).encode()
    assert seal == hashlib.sha256(text).hexdigest()


def traced_peak_mb(config: CampaignConfig) -> float:
    make_field.cache_clear()
    tracemalloc.start()
    try:
        run_campaign(config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kw,bound_mb", [
    # a 6.6 MB file: its rows are written one at a time, never held
    (dict(campaign="two-line-exhaustive", p=5, r=1, fmt="json"), 1.0),
    # the line pool and its two flat tables, not per-line tuples
    (dict(campaign="incidence-report", p=7, r=1, budget=300), 1.5),
], ids=lambda v: v["campaign"] if isinstance(v, dict) else None)
def test_campaign_allocation_peak(tmp_path, kw, bound_mb):
    peak = traced_peak_mb(CampaignConfig(workers=1, out=str(tmp_path / "x.out"), **kw))
    assert peak < bound_mb
