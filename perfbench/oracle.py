"""Outcome oracle: the facts every benchmark task gave when it was recorded.

``oracle.json`` maps workload -> task id -> facts.  A task passes when its
facts equal the recorded ones; keys starting with ``_`` are measurements
and are not compared.  A task whose recorded outcome is unknown (status
``unknown`` or exit code 2) passes whatever it answers, and fails only if
it raises or hits a cap.

Re-record, after a change that is meant to alter outcomes, with

    python3 perfbench/oracle.py

which runs every task of every workload once, each band member included.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ORACLE = Path(__file__).resolve().parent / "oracle.json"


def load():
    with open(ORACLE) as fh:
        return json.load(fh)


def facts_only(facts):
    """The comparable part of a task's facts, in JSON-normalised form."""
    return json.loads(json.dumps({k: v for k, v in facts.items()
                                  if not k.startswith("_")}))


def is_unknown(facts):
    """Whether the task's own outcome was unknown: its verdict status, or
    its exit code 2.  An unknown deeper inside, such as one ladder square,
    leaves every fact of the task compared."""
    return facts.get("status") == "unknown" or facts.get("exit") == 2


def mismatch(expected, facts):
    """None when ``facts`` agree with the recorded ``expected``; else why."""
    if expected is None:
        return "no recorded outcome for this task"
    if is_unknown(expected):
        return None
    got = facts_only(facts)
    if got == expected:
        return None
    diffs = [f"{k}: expected {expected.get(k)!r}, got {got.get(k)!r}"
             for k in sorted(set(expected) | set(got))
             if expected.get(k) != got.get(k)]
    return "wrong outcome: " + "; ".join(diffs)


def record():
    sys.path.insert(0, str(ORACLE.parent.parent / "src"))
    from workloads import WORKLOADS, all_tasks
    out = {}
    for name, build in WORKLOADS.items():
        out[name] = {}
        for task in all_tasks(build()):
            out[name][task.id] = facts_only(task.run())
            print(f"{name:14s} {task.id}: {out[name][task.id]}",
                  file=sys.stderr)
    with open(ORACLE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
