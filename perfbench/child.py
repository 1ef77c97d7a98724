"""One workload in its own process: set up, then run tasks in a closed loop.

usage: python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE [--setup-only]

The process caps itself before importing pdpairs: an address-space limit
(``RLIMIT_AS``) and a wall budget per task (``ITIMER_REAL``).  A task that
hits either cap, raises, or gives facts that disagree with the oracle is
a failed task with a reason; the loop goes on with the next one.

Each record goes to standard output as one JSON line, as soon as it is
known, so the parent still learns what happened if this process dies.
``{"start": id}`` precedes each task, so a task cut short by the death of
the process can still be named.  Task output goes to an in-memory buffer,
never to this stream.

One client, closed loop: a task starts only when the previous one ended.
A round is one member of each stratum, in a seeded order.  Rounds run
back to back and the next one starts only while the tasks' time, in
reference seconds (``speed.py``), is expected to stay within SECONDS.
With TRACE=1 the loop runs twice: untraced for half of SECONDS, then
traced for the other half.
"""

import gc
import json
import random
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, Speedometer, mean_speed

MEMORY_CAP = 2 << 30   # bytes of address space
TASK_BUDGET = 90       # wall seconds per task

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench_out"
SPEEDOMETER = Speedometer()


class TaskTimeout(BaseException):
    """Raised by the alarm; not an Exception, so program code cannot
    swallow it in an ``except Exception``."""


def _alarm(signum, frame):
    raise TaskTimeout()


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def cap_self():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_CAP if hard == resource.RLIM_INFINITY \
        else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.signal(signal.SIGALRM, _alarm)


def run_task(task, expected, mismatch):
    """(reference seconds, wall seconds, failure reason or None, facts)."""
    facts = None
    reason = None
    gc.collect()  # every task starts without the previous one's garbage
    clock = SPEEDOMETER.task()
    signal.setitimer(signal.ITIMER_REAL, TASK_BUDGET)
    try:
        with clock:
            facts = task.run()
    except TaskTimeout:
        reason = f"hit the wall budget of {TASK_BUDGET} s"
    except MemoryError:
        reason = f"hit the address-space cap of {MEMORY_CAP >> 20} MiB"
    except Exception as exc:  # any raise is a counted failure
        last = traceback.extract_tb(exc.__traceback__)[-1]
        reason = (f"raised {type(exc).__name__}: {exc} "
                  f"({Path(last.filename).name}:{last.lineno})")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if reason is None:
        reason = mismatch(expected.get(task.id), facts)
    return SPEEDOMETER.reference(clock), clock.raw, reason, facts


def run_loop(strata, rng, seconds, phase, expected, mismatch, tracer=None):
    """Whole rounds for about ``seconds`` of task time at reference speed.

    Counting reference seconds, not wall seconds, keeps the number of
    rounds, and so the sample count behind the tail, the same however fast
    the shared machine happens to run.  Returns (rounds, wall seconds).
    """
    from workloads import round_tasks
    start = time.perf_counter()
    rounds = 0
    busy = 0.0
    while True:
        for task in round_tasks(strata, rng):
            emit({"start": task.id})
            if tracer is not None:
                tracer.task = task.id
            secs, wall, reason, facts = run_task(task, expected, mismatch)
            busy += secs
            if tracer is not None and facts and "_entry_seconds" in facts:
                tracer.catalog_child_s += facts["_entry_seconds"]
            emit({"id": task.id, "phase": phase, "round": rounds,
                  "seconds": secs, "wall": wall, "failed": reason})
        rounds += 1
        if busy + busy / rounds > seconds:
            return rounds, time.perf_counter() - start


def main(argv):
    workload, seed, seconds, trace = argv[:4]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    setup_only = "--setup-only" in argv
    cap_self()
    sys.path.insert(0, str(ROOT / "src"))
    clock = SPEEDOMETER.task()
    with clock:
        from oracle import load, mismatch
        from workloads import WORKLOADS
        strata = WORKLOADS[workload]()
    emit({"setup_s": SPEEDOMETER.reference(clock), "setup_wall": clock.raw})
    if setup_only:
        return 0
    expected = load()[workload]
    rng = random.Random(seed)
    if not trace:
        rounds, wall = run_loop(strata, rng, seconds, "timed", expected,
                                mismatch)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        emit({"end": True, "rounds": rounds, "wall_s": wall,
              "peak_rss_mb": rss_kb / 1024})
        return 0
    from tracer import Tracer, layer_metrics
    rounds, wall = run_loop(strata, rng, seconds / 2, "untraced", expected,
                            mismatch)
    tracer = Tracer()
    tracer.install()
    first_sample = len(SPEEDOMETER.kernel_s)
    t_rounds, _ = run_loop(strata, rng, seconds / 2, "traced", expected,
                           mismatch, tracer)
    speed = REFERENCE_S * mean_speed(SPEEDOMETER.kernel_s[first_sample:])
    mul_calls = tracer.mul_calls()
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.dump(trace_path)
    emit({"end": True, "rounds": rounds, "wall_s": wall,
          "spans": len(tracer.spans), "span_file": str(trace_path),
          "layers": layer_metrics(tracer.spans, tracer.attrs, mul_calls,
                                  tracer.catalog_child_s, t_rounds, speed)})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
