"""Traced-run recorder: spans and counts around calls into pdpairs.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each public
function named in ``SPANS`` in every pdpairs module namespace that bound it
by name (``pairs`` binds ``find_contraction``, ``cli`` binds ``verify_pd``,
and so on), and replaces the named methods on their classes.  Each call
then records one span ``(name, start, end, parent, task)``; some calls also
record counts (matrix cells, nnz, solved or not, radius).  Spans stay in
memory until ``Tracer.dump`` writes them out at the end of the run.

``groups.mul`` is only counted, never spanned: it is called millions of
times per round, and a span each would swamp the numbers it is meant to
explain.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import threading
import time


def _cells(m):
    return m.rows * m.cols


def _max_bits(m):
    return max((abs(x).bit_length() for row in m.data for x in row),
               default=0)


def _snf_counts(args, kw, result):
    a = args[0]
    return {"cells": _cells(a), "bits": _max_bits(a)}


def _solved(args, kw, result):
    return {"ok": result is not None}


def _sparse_counts(args, kw, result):
    return {"ok": result is not None,
            "nnz": sum(len(r) for r in args[0])}


def _linearized_counts(args, kw, result):
    return {"cells": sum(_cells(m) for m in result.boundary.values())}


def _column_solver_init_counts(args, kw, result):
    return {"cells": _cells(args[0].solver.A)}


def _contraction_counts(args, kw, result):
    radius = args[1] if len(args) > 1 else kw.get("radius", 4)
    return {"ok": result is not None, "radius": radius}


def _nullhomotopy_counts(args, kw, result):
    return {"ok": result.found()}


# (module, attribute, span name, counts from (args, kwargs, result));
# "Class.method" attributes are patched on the class.
SPANS = [
    ("intlinalg", "snf", "intlinalg.snf", _snf_counts),
    ("intlinalg", "LinearSolver.solve", "intlinalg.LinearSolver.solve",
     _solved),
    ("intlinalg", "sparse_solve", "intlinalg.sparse_solve", _sparse_counts),
    ("intlinalg", "homology_at", "intlinalg.homology_at", None),
    ("intlinalg", "mat_vec", "intlinalg.mat_vec", None),
    # the module function chains.linearize has no caller; finite-group
    # linearization goes through this method
    ("chains", "LambdaComplex.linearized", "chains.linearize",
     _linearized_counts),
    ("chains", "system_block_matrix", "chains.system_block_matrix", None),
    ("chains", "LambdaColumnSolver.__init__", "chains.LambdaColumnSolver.init",
     _column_solver_init_counts),
    ("chains", "LambdaColumnSolver.solve", "chains.LambdaColumnSolver.solve",
     _solved),
    ("chains", "LambdaLinearSystem.solve", "chains.LambdaLinearSystem.solve",
     _solved),
    ("chains", "find_contraction", "chains.find_contraction",
     _contraction_counts),
    ("chains", "is_nullhomotopic", "chains.is_nullhomotopic",
     _nullhomotopy_counts),
    ("chains", "compose", "chains.compose", None),
    ("chains", "mapping_cone", "chains.mapping_cone", None),
    ("chains", "verify_contraction", "chains.verify_contraction", None),
    ("pairs", "verify_pd", "pairs.verify_pd", None),
    ("pairs", "verify_ladder", "pairs.verify_ladder", None),
    ("pairs", "ChainPairData.cap_with", "pairs.cap_with", None),
    ("pairs", "solve_diagonal_cell", "pairs.solve_diagonal_cell", None),
    ("presented", "derived_equivalence", "presented.derived_equivalence",
     None),
    ("presented", "search_factorization", "presented.search_factorization",
     None),
    ("invariants", "nu_of_pair", "invariants.nu_of_pair", None),
    ("invariants", "nu_verdict", "invariants.nu_verdict", None),
    ("sums", "interior_sum", "sums.interior_sum", None),
    ("sums", "boundary_sum", "sums.boundary_sum", None),
    ("sums", "realize_free_case", "sums.realize_free_case", None),
    ("groups", "GroupModel.ball", "groups.ball", None),
    ("dsl", "load_scenario", "dsl.load_scenario", None),
    ("delta", "build_equivariant_pair", "delta.build_equivariant_pair", None),
    ("report", "to_json", "report.to_json", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_catalog", "cli.cmd_catalog", None),
]


class Tracer:
    """Span and count recorder for one traced run.

    Spans are kept as ``id -> (name, start, end, parent id, task)``; a
    parent is the innermost open span of the same thread, or -1.  Ids come
    from ``itertools.count`` and records are single dict stores, both of
    which are atomic under the interpreter lock, so the catalog's worker
    threads can record without a lock.
    """

    def __init__(self):
        self.spans = {}
        self.attrs = {}
        self.task = None
        # sum of the catalog entries' own "seconds", read from its output
        self.catalog_child_s = 0.0
        self._mul_calls = itertools.count()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counts=None):
        def traced(*args, **kw):
            stack = self._stack()
            idx = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx] = (name, start, end, parent, self.task)
            if counts is not None:
                self.attrs[idx] = counts(args, kw, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_count(self, fn):
        calls = self._mul_calls

        def counted(*args):
            next(calls)
            return fn(*args)
        counted.__wrapped__ = fn
        return counted

    def mul_calls(self):
        """Calls to any group's ``mul``; each read advances the count by
        one, so read it once, at the end of the run."""
        return next(self._mul_calls)

    def install(self):
        """Patch pdpairs in this process; there is no uninstall."""
        import pdpairs
        modules = {info.name: importlib.import_module(f"pdpairs.{info.name}")
                   for info in pkgutil.iter_modules(pdpairs.__path__)}
        for mod_name, attr, name, counts in SPANS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], name, counts))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, counts)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        from pdpairs.groups import GroupModel
        pending = [GroupModel]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "mul" in cls.__dict__:
                cls.mul = self.wrap_count(cls.__dict__["mul"])

    def dump(self, path):
        """Write every span as one JSON line, with its counts if any."""
        with open(path, "w") as fh:
            for idx in sorted(self.spans):
                name, start, end, parent, task = self.spans[idx]
                rec = {"id": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "task": task}
                if idx in self.attrs:
                    rec["counts"] = self.attrs[idx]
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    ``spans`` maps id -> (name, start, end, parent, task).  Children of one
    thread never overlap; the union also covers spans whose intervals do.
    """
    children = {}
    for idx, (_, start, end, parent, _) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, (_, start, end, _, _) in spans.items():
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[idx] = (end - start) - covered
    return out


def ancestor_names(spans, idx):
    """Names of the spans enclosing span ``idx``, innermost first."""
    parent = spans[idx][3]
    while parent in spans:
        yield spans[parent][0]
        parent = spans[parent][3]


def outermost(spans, idx):
    """True when no enclosing span has the same name as span ``idx``."""
    return spans[idx][0] not in ancestor_names(spans, idx)


# metric name -> unit, in report order
LAYER_METRICS = {
    "intlinalg.snf.calls": "calls/round",
    "intlinalg.snf.self_s": "s/round",
    "intlinalg.snf.cells": "cells/round",
    "intlinalg.snf.max_cells": "cells",
    "intlinalg.snf.max_bits": "bits",
    "intlinalg.LinearSolver.solve.calls": "calls/round",
    "intlinalg.LinearSolver.solve.self_s": "s/round",
    "intlinalg.LinearSolver.solve.solved_ratio": "ratio",
    "intlinalg.sparse_solve.calls": "calls/round",
    "intlinalg.sparse_solve.self_s": "s/round",
    "intlinalg.sparse_solve.nnz": "nnz/round",
    "intlinalg.sparse_solve.core_cells": "cells/round",
    "intlinalg.sparse_solve.solved_ratio": "ratio",
    "intlinalg.homology_at.calls": "calls/round",
    "intlinalg.homology_at.self_s": "s/round",
    "intlinalg.mat_vec.self_s": "s/round",
    "chains.linearize.self_s": "s/round",
    "chains.linearize.cells": "cells/round",
    "chains.system_block_matrix.self_s": "s/round",
    "chains.LambdaColumnSolver.init.self_s": "s/round",
    "chains.LambdaColumnSolver.init.int_cells": "cells/round",
    "chains.LambdaColumnSolver.solve.calls": "calls/round",
    "chains.LambdaColumnSolver.solve.solved_ratio": "ratio",
    "chains.LambdaLinearSystem.solve.calls": "calls/round",
    "chains.LambdaLinearSystem.solve.self_s": "s/round",
    "chains.LambdaLinearSystem.solve.solved_ratio": "ratio",
    "chains.find_contraction.calls": "calls/round",
    "chains.find_contraction.self_s": "s/round",
    "chains.find_contraction.found_ratio": "ratio",
    "chains.find_contraction.radius_max": "radius",
    "chains.is_nullhomotopic.calls": "calls/round",
    "chains.is_nullhomotopic.self_s": "s/round",
    "chains.is_nullhomotopic.found_ratio": "ratio",
    "chains.compose.self_s": "s/round",
    "chains.mapping_cone.self_s": "s/round",
    "chains.verify_contraction.self_s": "s/round",
    "pairs.verify_pd.total_s": "s/round",
    "pairs.verify_pd.self_s": "s/round",
    "pairs.verify_ladder.total_s": "s/round",
    "pairs.verify_ladder.self_s": "s/round",
    "pairs.cap_with.self_s": "s/round",
    "pairs.solve_diagonal_cell.calls": "calls/round",
    "pairs.solve_diagonal_cell.self_s": "s/round",
    "pairs.solve_diagonal_cell.solves_per_call": "solves/call",
    "presented.derived_equivalence.self_s": "s/round",
    "presented.search_factorization.self_s": "s/round",
    "invariants.nu_of_pair.self_s": "s/round",
    "invariants.nu_verdict.self_s": "s/round",
    "sums.interior_sum.self_s": "s/round",
    "sums.boundary_sum.self_s": "s/round",
    "sums.realize_free_case.total_s": "s/round",
    "sums.realize_free_case.self_s": "s/round",
    "groups.mul.calls": "calls/round",
    "groups.ball.calls": "calls/round",
    "groups.ball.self_s": "s/round",
    "dsl.load_scenario.calls": "calls/round",
    "dsl.load_scenario.self_s": "s/round",
    "delta.build_equivariant_pair.self_s": "s/round",
    "report.to_json.self_s": "s/round",
    "cli.main.self_s": "s/round",
    "cli.cmd_catalog.wall_s": "s/round",
    "cli.cmd_catalog.child_s": "s/round",
}


def layer_metrics(spans, attrs, mul_calls, catalog_child_s, rounds,
                  speed=1.0):
    """Per-module metrics of a traced run, per round of the workload.

    Times are multiplied by ``speed``, the machine-speed factor that turns
    wall seconds into reference seconds.  A ratio counts useful outcomes
    over attempts; its base is the matching ``.calls`` metric, and a ratio
    over zero attempts reads 0.
    """
    selfs = self_times(spans)
    calls, self_s, total_s = {}, {}, {}
    sums, maxes, oks = {}, {}, {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for idx, (name, start, end, parent, _) in spans.items():
        add(calls, name, 1)
        add(self_s, name, selfs[idx])
        if outermost(spans, idx):
            add(total_s, name, end - start)
        counts = attrs.get(idx, {})
        if "ok" in counts:
            add(oks, name, int(counts["ok"]))
        for key in ("cells", "nnz"):
            if key in counts:
                add(sums, (name, key), counts[key])
        for key in ("cells", "bits", "radius"):
            if key in counts:
                maxes[(name, key)] = max(maxes.get((name, key), 0),
                                         counts[key])
        if name == "intlinalg.snf":
            if spans.get(parent, ("",))[0] == "intlinalg.sparse_solve":
                add(sums, ("intlinalg.sparse_solve", "core_cells"),
                    counts["cells"])
            if "pairs.solve_diagonal_cell" in ancestor_names(spans, idx):
                add(sums, ("pairs.solve_diagonal_cell", "solves"), 1)

    def ratio(num, den):
        return num / den if den else 0.0

    summed = {"cells": "cells", "int_cells": "cells", "nnz": "nnz",
              "core_cells": "core_cells"}
    maxed = {"max_cells": "cells", "max_bits": "bits", "radius_max": "radius"}
    out = {}
    for metric in LAYER_METRICS:
        name, _, field = metric.rpartition(".")
        if metric == "groups.mul.calls":
            value = mul_calls / rounds
        elif metric == "cli.cmd_catalog.child_s":
            value = catalog_child_s * speed / rounds
        elif field == "calls":
            value = calls.get(name, 0) / rounds
        elif field == "self_s":
            value = self_s.get(name, 0.0) * speed / rounds
        elif field in ("total_s", "wall_s"):
            value = total_s.get(name, 0.0) * speed / rounds
        elif field in ("solved_ratio", "found_ratio"):
            value = ratio(oks.get(name, 0), calls.get(name, 0))
        elif field in summed:
            value = sums.get((name, summed[field]), 0) / rounds
        elif field in maxed:
            value = maxes.get((name, maxed[field]), 0)
        elif field == "solves_per_call":
            value = ratio(sums.get((name, "solves"), 0), calls.get(name, 0))
        else:
            raise KeyError(metric)
        out[metric] = value
    return out
