"""Span recorder for the traced run.

Public entry points of the package modules are wrapped by rebinding their
names in every package module that holds them (``scatter_grid`` in
``zsdirect``, ``quench``, ``darboux`` and ``cli``; ``scattering_batch`` in
``zsdirect``, ``quench`` and ``oracle``; and so on), so calls made inside the
package are recorded as well as calls from the CLI.  Spans are kept in
memory as (name, start, end, parent, job, work) and summarised at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

PACKAGE_MODULES = ("core", "zsdirect", "closedforms", "quench", "glm", "darboux",
                   "oracle", "cli")


def _evolve_steps(a, result):
    t, dt = a["t"], a["cfg"].dt
    n_full = int(t / dt)
    return n_full + (1 if t - n_full * dt > 1e-15 * max(t, 1.0) else 0)


# module -> {public function: work count of one call, or None}
ENTRY_POINTS = {
    "core": {"dump_json": None, "load_json": None},
    "zsdirect": {
        "scatter_grid": None,
        "scattering_batch": lambda a, r: len(a["k"]),
        "find_zeros": lambda a, r: len(r),
        "analytic_continue_a": lambda a, r: int(np.size(a["k"])),
        "norming_constant": None,
    },
    "quench": {"quench_map": None, "classify_post_quench": None,
               "verify_factorization": None},
    "glm": {"radiative_part": None,
            "reconstruct_field": lambda a, r: len(a["xgrid"])},
    "darboux": {"apply_bt": None, "strip_solitons": None, "dual_quench": None},
    "oracle": {"evolve": _evolve_steps, "fft_upsample": None,
               "isospectral_check": None},
}

# core's artifact I/O is charged to the cli layer
LAYER_OF = {"core": "cli"}

JOB_SPAN = "cli.job"


class Tracer:
    """Records spans while a job is open; wrappers pass straight through
    when no job is open (set-up and the output checks)."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, job, work]
        self._stack = []
        self._job = None
        self._restore = []

    def install(self, package="nlsquench"):
        mods = {m: importlib.import_module(f"{package}.{m}") for m in PACKAGE_MODULES}
        for mod_name, funcs in ENTRY_POINTS.items():
            for fn_name, work in funcs.items():
                original = getattr(mods[mod_name], fn_name)
                span_name = f"{LAYER_OF.get(mod_name, mod_name)}.{fn_name}"
                wrapper = self._wrap(span_name, original, work)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, work):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][5] = int(work(bound.arguments, result))
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job, 1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job):
        self._job = job
        return self._open(JOB_SPAN)

    def end_job(self, idx):
        self._close(idx)
        self._job = None

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j, "work": w}
                for n, s, e, p, j, w in self.spans]

    def summary(self):
        """Per span name: busy time (union of its spans), self time
        (duration minus the part covered by child spans), call count and
        summed work count."""
        children = {}
        for i, sp in enumerate(self.spans):
            if sp[3] is not None:
                children.setdefault(sp[3], []).append(i)
        out = {}
        for name in sorted({sp[0] for sp in self.spans}):
            mine = [i for i, sp in enumerate(self.spans) if sp[0] == name]
            self_s = 0.0
            for i in mine:
                s, e = self.spans[i][1], self.spans[i][2]
                covered = _union([(self.spans[c][1], self.spans[c][2])
                                  for c in children.get(i, [])])
                self_s += (e - s) - covered
            out[name] = {
                "s": _union([(self.spans[i][1], self.spans[i][2]) for i in mine]),
                "self_s": self_s,
                "calls": len(mine),
                "work": sum(self.spans[i][5] for i in mine),
            }
        return out


def _union(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
