"""Smoke test of the benchmark itself, at the smoke size (200
conversations, one fold of 20, one link_one probe): every workload, the
traced run and the checks, in a few minutes on 4 CPUs.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
TIMEOUT = 600


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_run_reports_every_metric(workload):
    res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    runs = [_result(_run(workload, 1)) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "ratio")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["functions.grouping.calls"] > 0


def _client_pid() -> int | None:
    for d in os.listdir("/proc"):
        try:
            with open(f"/proc/{d}/cmdline") as f:
                argv = f.read().split("\0")
        except OSError:
            continue
        if "--events" in argv and any(a.endswith("perfbench/run.py")
                                      for a in argv):
            return int(d)
    return None


def test_client_crash_is_a_failed_op_and_the_run_still_reports():
    """A crash inside Ray's core aborts the client process; the run
    counts the op it was running as failed (not as a wrong output),
    prints every metric, and leaves no process or state behind."""
    cmd = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                             "--seed", "3", "--seconds", "1", "--trace", "0",
                             "--size", "smoke"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + TIMEOUT
    pattern = os.path.join(ROOT, ".pbtmp", "*", "events.jsonl")
    while time.monotonic() < deadline:
        logs = glob.glob(pattern)
        if logs and '"start"' in open(logs[0]).read():
            break
        time.sleep(0.2)
    os.kill(_client_pid(), signal.SIGABRT)
    out, err = proc.communicate(timeout=TIMEOUT)
    res = _result(subprocess.CompletedProcess(cmd, proc.returncode, out, err))
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 1, 1)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert res["metrics"]["ok_frac"]["value"] == 0
    assert _client_pid() is None
    assert not os.path.exists(os.path.join(ROOT, ".pbtmp"))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
