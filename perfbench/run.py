#!/usr/bin/env python3
"""Linkage benchmark: batch ``run_linkage`` and checkpointed micro-batch
``run_incremental`` + ``fold_incremental``, end to end and per layer.

    python3 perfbench/run.py --workload batch_link --seed 7 --seconds 10 \\
        --trace 0 [--size full|smoke]

Run from the root of a checkout of the repository; the package is
imported from there and nothing is installed.  One process is the single
client: it starts a private local Ray session sized to the CPUs this
process may run on, sets the workload up, then issues ops one after
another until their summed time reaches ``--seconds`` (at least one op).
Each op's outputs are checked against the generator's gold tables right
after the op, outside the timed window.  An op that raises or breaks its
output contract is counted as failed and the run goes on.

The client runs in a child process that logs each op to an event file
as it starts and ends; this process waits for it and reports.  A client
that dies (a crash inside Ray's core ends the process, no exception is
raised) is counted as one more failed op, the one it was running, and
the run still reports every metric from the ops logged before.
``correct`` is false when an op's output was checked and found wrong;
``failed`` also counts the ops that raised or died and so returned no
output to check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first op once untraced and once traced (same input), plus one traced
``link_one`` probe where the workload has a base to link against, and
reports the per-layer metrics (``tracing.py``); ``trace_overhead_s`` is the
traced op's time minus the untraced one's (the untraced op runs first, so
any first-op warm-up lowers it).

All state (the Parquet corpus, every ``checkpoint_root`` and Ray's
session files) lives in a fresh directory under ``.pbtmp/`` in the
checkout, deleted at exit; every process the run starts is waited for
before it exits.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the run (CPUs, sizes, per-op times and, when
traced, spans).
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = "pboh_entity_linking_ray"

# name → unit; the end_to_end list of BENCHMARK.json
E2E_METRICS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "convs_per_s": "1/s",
    "pair_f1": "ratio",
    "cluster_f1": "ratio",
    "assign_accuracy": "ratio",
    "ok_frac": "ratio",
    "driver_rss_peak_mb": "MB",
}
# an op whose quality falls below this floor is a wrong answer, not noise
QUALITY_FLOOR = 0.9
TMP_DIR = ".pbtmp"
# AF_UNIX paths hold 107 bytes; Ray appends up to ~66 to its temp dir
# (session_<date>_<time>_<usec>_<pid>/sockets/plasma_store)
RAY_TEMP_MAX = 40
# what the benchmark and the package import
DEPS = ("numpy", "pyarrow", "polars", "ray")
PR_SET_CHILD_SUBREAPER = 36
CHILD_EXIT_WAIT_S = 30.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Events:
    """The client's event log: one JSON object a line, flushed at once
    so that it survives the client's death."""

    def __init__(self, f):
        self.f = f

    def emit(self, event: str, **fields) -> None:
        self.f.write(json.dumps({"event": event, **fields}) + "\n")
        self.f.flush()


class Op:
    """One op's outcome.  It failed when it raised, or when its output
    broke the contract or fell below the quality floor, which also makes
    that output ``wrong``."""

    def __init__(self, kind: str, seconds: float, rss_mb: float,
                 checked=None, error: str | None = None,
                 wrong: bool = False):
        self.kind, self.seconds, self.rss_mb = kind, seconds, rss_mb
        self.checked, self.error, self.wrong = checked, error, wrong

    @property
    def ok(self) -> bool:
        return self.error is None

    def record(self) -> dict:
        c = self.checked
        return {"kind": self.kind, "seconds": self.seconds,
                "rss_mb": self.rss_mb, "ok": self.ok, "wrong": self.wrong,
                "error": self.error,
                "convs": c.convs if c else None,
                "pairs": c.pairs if c else None,
                "quality": c.quality if c else None}


def _attempt(ev: Events, kind: str, call, check) -> Op:
    """Run ``call`` timed and ``check`` on its output untimed; any
    exception in either is this op's failure, never the run's."""
    ev.emit("start", kind=kind, t=time.monotonic())
    op = _checked_op(kind, call, check)
    ev.emit("op", op=op.record())
    return op


def _checked_op(kind: str, call, check) -> Op:
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as e:          # boundary: one bad op must not end the run
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return Op(kind, seconds, _peak_rss_mb(),
                  error=f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - t0
    rss_mb = _peak_rss_mb()         # before the check collects outputs
    try:
        checked = check(out)
    except Exception as e:          # boundary: a failed check is a failed op
        traceback.print_exc()
        return Op(kind, seconds, rss_mb, error=f"{type(e).__name__}: {e}",
                  wrong=True)
    low = {k: v for k, v in checked.quality.items() if v < QUALITY_FLOOR}
    if low:
        return Op(kind, seconds, rss_mb, checked,
                  error=f"quality below floor: {low}", wrong=True)
    return Op(kind, seconds, rss_mb, checked)


def _op(ev: Events, wl, i: int) -> Op:
    return _attempt(ev, "op", lambda: wl.op(i),
                    lambda out: wl.check(i, out))


def measure(ev: Events, wl, seconds: float) -> None:
    """Closed loop: ops back to back until their summed time reaches
    ``seconds``, at least one."""
    busy, n = 0.0, 0
    while wl.has_op(n) and (not n or busy < seconds):
        busy += _op(ev, wl, n).seconds
        n += 1


def end_to_end(ops: list[dict], setup_s: float) -> dict:
    good = [o for o in ops if o["ok"]]
    busy = sum(o["seconds"] for o in good)

    def mean_quality(k):
        vals = [o["quality"][k] for o in good]
        return statistics.fmean(vals) if vals else 0.0

    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(o["seconds"] for o in (good or ops)),
        "convs_per_s": sum(o["convs"] for o in good) / busy if busy
        else 0.0,
        "pair_f1": mean_quality("pair_f1"),
        "cluster_f1": mean_quality("cluster_f1"),
        "assign_accuracy": mean_quality("assign_accuracy"),
        "ok_frac": len(good) / len(ops),
        # high-water mark at the end of the last op logged: set-up and
        # the program's own driver work, plus the checks of earlier ops
        "driver_rss_peak_mb": max((o["rss_mb"] for o in ops
                                   if o["rss_mb"] is not None), default=0.0),
    }


def traced(ev: Events, wl) -> None:
    """One untraced and one traced op on the same input, then the
    workload's ``link_one`` probe, if any, under a tracer of its own so
    its spans and exchanges stay out of the op's layers."""
    from tracing import LAYER_METRICS, Tracer

    ops = [_op(ev, wl, 0)]
    with Tracer() as op_tracer:
        ops.append(_op(ev, wl, 0))
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    layers.update(op_tracer.layer_metrics())
    layers["trace_overhead_s"] = ops[1].seconds - ops[0].seconds
    spans = {"op": op_tracer.span_records()}
    probe = wl.probe()
    if probe is not None:
        with Tracer() as probe_tracer:
            ops.append(_attempt(ev, "link_one", *probe))
        pm = probe_tracer.layer_metrics()
        for k in ("pipelines.console.s", "pipelines.console.filter_s"):
            layers[k] = pm[k]
        spans["link_one"] = probe_tracer.span_records()
    for o in ops[1:]:
        if o.checked is not None:
            layers.update(o.checked.layers)
    ev.emit("layers", metrics=layers, spans=spans)


def _ray_temp_dir(work: str) -> str:
    """Ray's session directory, inside ``work``.  When the checkout is too
    deep for Ray's socket paths, the same directory is named through
    this process's ``/proc`` link to its working directory, the checkout
    root, which every process Ray starts inherits."""
    path = os.path.join(work, "ray")
    if len(path) > RAY_TEMP_MAX:
        path = os.path.join(f"/proc/{os.getpid()}/cwd",
                            os.path.relpath(path, ROOT))
    if len(path) > RAY_TEMP_MAX:
        raise OSError(f"no path to {work} is short enough for Ray's "
                      f"sockets")
    return path


def _num_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _init_ray(work: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=_num_cpus(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=_ray_temp_dir(work))
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _warm(batch):
    import polars  # noqa: F401

    import pboh_entity_linking_ray.pipelines.linkage  # noqa: F401
    return batch


def _warm_workers() -> None:
    """Start the worker pool and import the package and its kernel
    libraries in it, so the first op does not pay worker start-up."""
    import ray.data

    n = _num_cpus()
    ray.data.range(n, override_num_blocks=n) \
        .map_batches(_warm, batch_size=1).materialize()


def client(args, work: str) -> int:
    """The single client: set up, then run the ops, logging each."""
    import ray

    from workloads import SIZES, WORKLOADS

    with open(args.events, "a") as f:
        ev = Events(f)
        marks = [time.perf_counter()]
        _init_ray(work)
        try:
            marks.append(time.perf_counter())
            _warm_workers()
            marks.append(time.perf_counter())
            wl = WORKLOADS[args.workload](args.seed, SIZES[args.size], work)
            wl.setup()
            marks.append(time.perf_counter())
            parts = zip(("ray_init", "warm", "workload"), marks, marks[1:])
            ev.emit("setup", setup_s=marks[-1] - marks[0],
                    rss_mb=_peak_rss_mb(),
                    parts_s={k: b - a for k, a, b in parts})
            if args.trace:
                traced(ev, wl)
            else:
                measure(ev, wl, args.seconds)
        finally:
            ray.shutdown()
    return 0


def _read_events(path: str) -> list[dict]:
    events = []
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:    # cut short by a crash
                    break
    return events


def report(args, events: list[dict], exit_code: int, started: float,
           ended: float) -> None:
    """Print the run record and the result line from the client's
    events.  A client that did not exit cleanly adds one failed op: the
    one it had started, else its set-up, else its exit."""
    from tracing import LAYER_METRICS
    from workloads import SIZES

    setup = next((e for e in events if e["event"] == "setup"), None)
    ops = [e["op"] for e in events if e["event"] == "op"]
    if exit_code != 0:
        starts = [e for e in events if e["event"] == "start"]
        if len(starts) > len(ops):
            kind, since = starts[-1]["kind"], starts[-1]["t"]
        else:
            kind, since = ("exit", ended) if setup else ("setup", started)
        ops.append({"kind": kind, "seconds": ended - since,
                    "rss_mb": setup["rss_mb"] if setup else None,
                    "ok": False, "wrong": False, "convs": None,
                    "pairs": None, "quality": None,
                    "error": f"client exited with code {exit_code}"})
    setup_s = setup["setup_s"] if setup else ended - started
    layers = next((e for e in events if e["event"] == "layers"), None)
    if args.trace:
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        metrics = layers["metrics"] if layers else dict.fromkeys(units, 0.0)
    else:
        units, metrics = E2E_METRICS, end_to_end(ops, setup_s)
    info = {"workload": args.workload, "seed": args.seed,
            "size": SIZES[args.size], "num_cpus": _num_cpus(),
            "client_exit_code": exit_code, "setup_s": setup_s,
            "setup_parts_s": setup["parts_s"] if setup else None,
            "ops": [{k: o[k] for k in ("kind", "seconds", "pairs", "ok",
                                       "wrong", "error")} for o in ops]}
    if layers:
        info["spans"] = layers["spans"]
    print(json.dumps({"perfbench": info}))
    # correct: every output checked was right; failed: every op that
    # raised, died or returned a wrong output
    print(json.dumps({
        "correct": not any(o["wrong"] for o in ops), "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}), flush=True)


def supervise(args, argv: list[str], work: str) -> int:
    """Run the client in a child process and report on what it logged."""
    events = os.path.join(work, "events.jsonl")
    started = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv,
         "--events", events], stdout=sys.stderr)
    try:
        exit_code = child.wait()
    finally:
        if child.poll() is None:    # this process is being terminated
            child.terminate()
            child.wait()
    report(args, _read_events(events), exit_code, started, time.monotonic())
    return 0


def _children() -> list[int]:
    me = str(os.getpid())
    pids = []
    for d in os.listdir("/proc"):
        try:
            with open(f"/proc/{d}/stat") as f:
                # pid (comm) state ppid ...; comm may hold spaces
                if f.read().rsplit(")", 1)[1].split()[1] == me:
                    pids.append(int(d))
        except (OSError, IndexError, ValueError):
            pass
    return pids


def _reap_all(deadline_s: float) -> None:
    """Wait for every descendant to end; Ray's processes are reparented
    to this process (a child subreaper) when their parent exits.  From
    the deadline on, whatever is still alive is killed, then waited
    for."""
    end = time.monotonic() + deadline_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > end:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def _has_deps(python: str) -> bool:
    probe = "import " + ", ".join(DEPS)
    return subprocess.run([python, "-c", probe], capture_output=True,
                          timeout=120).returncode == 0


def _python_with_deps() -> str | None:
    """The first ``python3`` or ``python`` on PATH, then among pyenv's
    shims, that imports every one of ``DEPS``."""
    pyenv = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    seen = {os.path.realpath(sys.executable)}
    for d in os.get_exec_path() + [os.path.join(pyenv, "shims")]:
        for name in ("python3", "python"):
            exe = os.path.join(d, name)
            real = os.path.realpath(exe)
            if real in seen or not os.access(exe, os.X_OK):
                continue
            seen.add(real)
            if _has_deps(exe):
                return exe
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isfile(os.path.join(ROOT, PKG, "__init__.py")):
        print(f"perfbench: no {PKG} package under {ROOT}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # the first python3 on PATH need not be the Python the package's
    # dependencies are installed in
    if any(importlib.util.find_spec(m) is None for m in DEPS):
        python = _python_with_deps()
        if python is None:
            print(f"perfbench: no Python on PATH imports {', '.join(DEPS)}",
                  file=sys.stderr)
            return 2
        print(f"perfbench: {sys.executable} lacks {', '.join(DEPS)}; "
              f"running under {python}", file=sys.stderr)
        os.execv(python, [python, os.path.abspath(__file__), *argv])
    # Ray off the network: no usage reports
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    from workloads import SIZES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    # set by the supervising process for its client
    ap.add_argument("--events", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still shuts Ray down and removes its state
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.events:
        return client(args, os.path.dirname(args.events))
    # Ray workers import the package from the checkout, like the client
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    os.chdir(ROOT)
    tmp_root = os.path.join(ROOT, TMP_DIR)
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="r", dir=tmp_root)
    os.environ["TMPDIR"] = work     # for the client and all it starts
    try:
        return supervise(args, argv, work)
    finally:
        _reap_all(CHILD_EXIT_WAIT_S)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
