"""Run one benchmark workload against pdpairs and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workload runs in a child process (``child.py``) that caps its own
memory and per-task wall time, so an out-of-memory task or a hang is a
counted failure, never a dead benchmark.  ``setup_s`` is the median over
several fresh processes, each importing pdpairs from cached bytecode and
building every input.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics of ``tracer.py`` and
the tracing overhead with ``--trace 1``.  The lines before it are the same
numbers for a reader, with the tail's percentile and sample count, and
every failed task with its reason.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4     # extra fresh processes that only set up
PYCACHE = ROOT / ".perfbench_out" / "pycache"
PROBE_LIMIT = 20.0   # wall seconds for one of them
HARD_LIMIT = 170.0   # wall seconds for the whole command

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With n samples sorted
    ascending that is the (n-10)-th, at percentile 100 (n-10)/n.  Below 11
    samples no percentile has ten beyond it, and the maximum is returned
    with 0 beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def spawn(argv, timeout):
    """Run a child; (records, exit code or None if killed at timeout).

    Children keep their bytecode under ``.perfbench_out/pycache`` and
    always write it, whatever the caller's environment says, so the state
    of ``__pycache__`` directories elsewhere never reaches a timing.
    """
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PD3_SEARCH_RADIUS", None)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        code = None
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records, code


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def collect(records, code):
    """Tasks and the end record, even when the workload process died.

    A task cut short by the death of the process is a failure with the
    reason; the end record is then rebuilt from the tasks that ended and
    from this process's view of its children.
    """
    tasks = [r for r in records if "id" in r]
    end = next((r for r in records if r.get("end")), None)
    if end is not None:
        return tasks, end
    why = ("killed at the run's hard limit" if code is None
           else f"the workload process died (exit code {code})")
    started = [r["start"] for r in records if "start" in r]
    if len(started) > len(tasks):
        tasks.append({"id": started[-1], "phase": "cut", "round": -1,
                      "seconds": 0.0, "wall": 0.0, "failed": why})
    elif not tasks:
        fail(f"no task ran: {why}")
    from tracer import LAYER_METRICS
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end = {"rounds": 1 + max(t["round"] for t in tasks),
           "wall_s": sum(t["seconds"] for t in tasks),
           "peak_rss_mb": rss_kb / 1024,
           "spans": 0, "span_file": why,
           "layers": dict.fromkeys(LAYER_METRICS, 0.0)}
    return tasks, end


def end_to_end(tasks, end, setups):
    times = [t["seconds"] for t in tasks]
    walls = [t["wall"] for t in tasks]
    ok = sum(1 for t in tasks if not t["failed"])
    value, pct, beyond = tail(times)
    setup = statistics.median(s["setup_s"] for s in setups)
    metrics = {
        "setup_s": (setup, "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (value, "s"),
        "tasks_per_s": (ok / sum(times), "1/s"),
        "peak_rss_mb": (end["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; wall "
                   f"{statistics.median(s['setup_wall'] for s in setups):.4g}",
        "verdict_s.p50": f"wall {statistics.median(walls):.4g}",
        "verdict_s.tail": f"p{pct:.1f}, n={len(times)}, {beyond} beyond; "
                          f"wall {tail(walls)[0]:.4g}",
        "tasks_per_s": f"{ok} tasks in {sum(times):.2f} s of "
                       f"{end['wall_s']:.2f} s, {end['rounds']} rounds; "
                       f"wall {ok / sum(walls):.4g}",
    }
    return metrics, notes


def traced(tasks, end):
    from tracer import LAYER_METRICS
    metrics = {k: (v, LAYER_METRICS[k]) for k, v in end["layers"].items()}
    rates = {}
    for phase in ("untraced", "traced"):
        times = [t["seconds"] for t in tasks if t["phase"] == phase]
        rates[phase] = len(times) / sum(times) if times else 0.0
    # 0 when the process died before both phases ran
    overhead = rates["untraced"] / rates["traced"] if rates["traced"] else 0.0
    metrics["trace.overhead"] = (overhead, "x")
    notes = {"trace.overhead": (
        f"untraced {rates['untraced']:.4g} tasks/s over traced "
        f"{rates['traced']:.4g} tasks/s; "
        f"{end['spans']} spans in {end['span_file']}")}
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "pdpairs" / "__init__.py").is_file():
        fail(f"no pdpairs sources under {ROOT / 'src'}")
    child_args = [args.workload, str(args.seed), str(args.seconds),
                  str(args.trace)]

    # Set-up 0 is a warm-up, not timed: it compiles into the bytecode
    # cache whatever is stale there, so every timed set-up loads the same
    # cached bytecode, on the first run in a checkout as later.
    setups = []
    for probe in range(1 + (0 if args.trace else SETUP_PROBES)):
        records, code = spawn(child_args + ["--setup-only"], PROBE_LIMIT)
        if code != 0 or not records or "setup_s" not in records[0]:
            fail(f"set-up of {args.workload} failed (exit code {code})")
        if probe:
            setups.append(records[0])

    records, code = spawn(child_args,
                          HARD_LIMIT - (time.monotonic() - started))
    if not records or "setup_s" not in records[0]:
        fail(f"the {args.workload} process failed to set up "
             f"(exit code {code})")
    setups.append(records[0])
    tasks, end = collect(records, code)
    failures = [t for t in tasks if t["failed"]]
    if args.trace:
        metrics, notes = traced(tasks, end)
    else:
        metrics, notes = end_to_end(tasks, end, setups)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  tasks {len(tasks)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:46s} {value:12.6g} {unit}{note}")
    print(f"  {'failed_share':46s} {len(failures) / len(tasks):12.6g} "
          f"({len(failures)}/{len(tasks)})")
    for t in failures:
        print(f"  FAILED {t['id']} (round {t['round']}): {t['failed']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(tasks),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
