"""Span tracing from outside the program.

``Recorder.install()`` replaces every public function of the traced openchain
modules, and ``numpy.linalg.svd``, with a wrapper that records a span
(name, start, end, parent) around each call. Wrapping is done by module
attribute: every openchain module attribute that refers to a traced function
is rebound, so calls through ``from .x import f`` names are seen too, while
calls that bypass module attributes (closures, bound methods) are not.
``restore()`` puts every original object back.

Spans stay in memory until the run ends. Pool workers are forked from the
traced process; after a fork the child drops the parent's spans, and each
time a top-level span closes in a worker it appends its spans to
``<span_dir>/<pid>.jsonl``. ``merge_worker_spans()`` reads those files back
and hangs the worker roots under the ensemble span that spawned them.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_MODULES = ("kernels", "mps", "mpdo", "trajectories", "models", "traces",
                  "runner")
SVD = "kernels.svd"
ENSEMBLE = "trajectories.run_ensemble"

_active = None          # the installed Recorder, for the after-fork hook
_fork_hook_registered = False


def _after_fork_in_child():
    if _active is not None:
        _active._clear()


def traced_functions():
    """{function object: span name} for every traced entry point."""
    out = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"openchain.{short}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__ and obj not in out):
                out[obj] = f"{short}.{attr}"
    return out


class Recorder:
    def __init__(self, span_dir):
        self.span_dir = Path(span_dir)
        self.names = []
        self._name_ids = {}
        self._patches = []
        self._clear()
        self.pid = os.getpid()

    def _clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.svd_shape = array("q")          # m, n pairs, in call order
        self.csv_bytes = 0
        self.max_bond = 0
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if not self._stack and os.getpid() != self.pid:
            self._flush_worker()

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        rec = self
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            i = rec._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(i)
            if after is not None:
                after(rec, args, out)
            return out

        return functools.update_wrapper(wrapper, fn)

    # -- install / restore -------------------------------------------------

    def install(self):
        global _active, _fork_hook_registered
        if _active is not None:
            raise RuntimeError("a recorder is already installed")
        targets = traced_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "openchain":
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._patches.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._wrap(np.linalg.svd, SVD)
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook_registered = True
        _active = self
        return self

    def restore(self):
        global _active
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []
        if _active is self:
            _active = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- pool workers ------------------------------------------------------

    def _flush_worker(self):
        self.span_dir.mkdir(parents=True, exist_ok=True)
        blob = {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "svd_shape": self.svd_shape.tolist(),
                "csv_bytes": self.csv_bytes, "max_bond": self.max_bond}
        with open(self.span_dir / f"{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps(blob) + "\n")
        self._clear()

    def merge_worker_spans(self):
        """Adopt worker span files; worker roots go under the latest ensemble span."""
        files = sorted(self.span_dir.glob("*.jsonl")) if self.span_dir.is_dir() else []
        ens_id = self._name_ids.get(ENSEMBLE)
        host = max((i for i, n in enumerate(self.name) if n == ens_id), default=-1)
        for path in files:
            with open(path) as f:
                for line in f:
                    blob = json.loads(line)
                    remap = [self._name_id(n) for n in blob["names"]]
                    base = len(self.start)
                    for nid, par, s, e in zip(blob["name"], blob["parent"],
                                              blob["start"], blob["end"]):
                        self.name.append(remap[nid])
                        self.parent.append(host if par < 0 else base + par)
                        self.start.append(s)
                        self.end.append(e)
                    self.svd_shape.extend(blob["svd_shape"])
                    self.csv_bytes += blob["csv_bytes"]
                    self.max_bond = max(self.max_bond, blob["max_bond"])
            path.unlink()


def _after_svd(rec, args, out):
    m, n = np.shape(args[0])[-2:]
    rec.svd_shape.append(m)
    rec.svd_shape.append(n)


def _after_write_csv(rec, args, out):
    rec.csv_bytes += os.path.getsize(args[0])


def _after_bond_update(rec, args, out):
    rec.max_bond = max(rec.max_bond, len(out[1]))


_AFTER = {SVD: _after_svd, "traces.write_csv": _after_write_csv,
          "kernels.bond_update": _after_bond_update,
          "kernels.bond_update_nogate": _after_bond_update}


# -- analysis ----------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(rec):
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            children[p].append((rec.start[i], rec.end[i]))
    return [rec.end[i] - rec.start[i]
            - _covered(children.get(i, ()), rec.start[i], rec.end[i])
            for i in range(len(rec.start))]


def _has_ancestor_in(rec, i, ids):
    p = rec.parent[i]
    while p >= 0:
        if rec.name[p] in ids:
            return True
        p = rec.parent[p]
    return False


def outermost_time(rec, names):
    """Summed duration of spans named in ``names`` that have no ancestor in it."""
    ids = {rec._name_ids[n] for n in names if n in rec._name_ids}
    return float(sum(rec.end[i] - rec.start[i] for i, nid in enumerate(rec.name)
                     if nid in ids and not _has_ancestor_in(rec, i, ids)))


def layer_table(rec):
    """{span name: {"calls", "s", "self_s", "durations"}} over the recorder.

    ``s`` counts only outermost spans of a name, so recursion is not counted
    twice; ``self_s`` sums self time over every span of the name.
    """
    selfs = self_times(rec)
    table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
             for name in rec.names}
    for i, nid in enumerate(rec.name):
        row = table[rec.names[nid]]
        dur = rec.end[i] - rec.start[i]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["durations"].append(dur)
        if not _has_ancestor_in(rec, i, (nid,)):
            row["s"] += dur
    return table


def svd_stats(rec):
    """SVD count, mean min(m, n), and computed GFLOP (R-SVD, 6mn^2 + 20n^3)."""
    shapes = np.asarray(rec.svd_shape, dtype=np.float64).reshape(-1, 2)
    if len(shapes) == 0:
        return {"k_mean": 0.0, "gflop": 0.0}
    big, small = shapes.max(axis=1), shapes.min(axis=1)
    flops = 6.0 * big * small ** 2 + 20.0 * small ** 3
    return {"k_mean": float(small.mean()), "gflop": float(flops.sum() / 1e9)}
