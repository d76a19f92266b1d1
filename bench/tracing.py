"""Spans and counts recorded from outside the program.

The tracer replaces the program's public functions with wrappers in every
module that binds them (``from .linalg import expm`` makes a second binding
in each importer), so calls are caught whichever module makes them.  Each
call becomes a span: name, parent span, root span, start and end.  One root
span is opened per CLI invocation.  Spans stay in memory; ``summary`` folds
them into per-function calls, self time and work units.

A function that no longer exists is listed in ``absent``; it is not an
error, because refactors are expected to delete some of them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np
import numpy.linalg

#: program functions recorded as spans, as (module, function) under the package
SPANNED = (
    ("linalg", "expm"),
    ("linalg", "hermitian_extremes"),
    ("convection_diffusion", "evolve_spectrum"),
    ("goldstein_taylor", "gt_evolve"),
    ("goldstein_taylor", "gt_uniform_constant"),
    ("fokker_planck", "fp_evolve"),
    ("fokker_planck", "kuniform_constant"),
    ("oracle", "propagator_lognorm"),
    ("oracle", "check_dominance"),
    ("family", "grid_sup_envelope"),
    ("jordan", "jordan_chains"),
    ("jordan", "structure_from_chains"),
    ("lyapunov", "build_form"),
    ("lyapunov", "decay_constant"),
    ("lyapunov", "verify_matrix_inequality"),
)

#: numpy.linalg functions that are only counted; a span each would cost more
#: than the small-matrix calls it measures
COUNTED = ("norm", "svd", "eigvals")

# span record fields
_NAME, _PARENT, _ROOT, _START, _END, _UNITS, _DIM = range(7)


def _expm_work(a, *args, **kwargs):
    """(matrices, d): a stack (..., d, d) counts every matrix in it."""
    shape = np.shape(a)
    return (int(np.prod(shape[:-2])) if len(shape) > 2 else 1), int(shape[-1])


def _lognorm_work(c, *args, **kwargs):
    """(time points, 0): a vector of times counts each point."""
    t = args[0] if args else next(iter(kwargs.values()), 0.0)
    return int(np.size(t)), 0


_WORK = {"linalg.expm": _expm_work, "oracle.propagator_lognorm": _lognorm_work}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = _WORK.get(name)

        def traced(*args, **kwargs):
            units, dim = work(*args, **kwargs) if work else (1, 0)
            sid = len(spans)
            rec = [name, stack[-1] if stack else -1, stack[0] if stack else sid, 0.0, 0.0, units, dim]
            spans.append(rec)
            stack.append(sid)
            rec[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a root span."""
        return self._wrap(name, fn)(*args)

    def _rebind(self, modules, orig, replacement):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def install(self, package: str = "lyapdecay") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for modname, func in SPANNED:
            orig = getattr(sys.modules.get(f"{package}.{modname}"), func, None)
            if orig is None:
                self.absent.append(f"{modname}.{func}")
                continue
            self._rebind(modules, orig, self._wrap(f"{modname}.{func}", orig))
        for func in COUNTED:
            orig = getattr(numpy.linalg, func)
            self._rebind([numpy.linalg, *modules], orig, self._counter(f"numpy.linalg.{func}", orig))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    def summary(self) -> dict:
        """Per span name: calls, self_s, total_s, units; expm also per dimension.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the program is single-threaded.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "units": 0, "by_dim": defaultdict(lambda: [0, 0.0])}
        )
        for sid, rec in enumerate(spans):
            dur = rec[_END] - rec[_START]
            agg = out[rec[_NAME]]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[sid]
            agg["units"] += rec[_UNITS]
            if rec[_DIM]:
                by_dim = agg["by_dim"][rec[_DIM]]
                by_dim[0] += rec[_UNITS]
                by_dim[1] += dur - child[sid]
        return {
            "spans": {
                name: {**agg, "by_dim": {str(d): v for d, v in agg["by_dim"].items()}}
                for name, agg in out.items()
            },
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "roots": sum(1 for rec in spans if rec[_PARENT] < 0),
        }
