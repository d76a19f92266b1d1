"""One workload process: set-up, timed passes and an optional traced pass.

Run by ``run.py`` with the work directory as the current directory and the
plan in ``plan.json`` there.  numpy is imported before the set-up clock
starts; the clock covers importing the program, reading the generated
inputs, and one warm-up invocation of each subcommand the workload uses.

    python3 workload.py [--setup-only]

The result goes to ``result.json`` (``setup.json`` with ``--setup-only``)
in the work directory.  Times are recorded raw and rescaled to the reference
host speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import numpy as np

import hostspeed

CLOCK = time.perf_counter


def _env_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LYAPDECAY_THREADS")
        },
    }


def _setup(plan):
    """Timed set-up; returns (seconds, kernel time around it, cli main)."""
    k0 = hostspeed.burst()
    t0 = CLOCK()
    from lyapdecay.cli import main

    for inp in plan["inputs"]:
        with open(inp, "rb") as fh:
            fh.read()
    for argv in plan["warmups"]:
        rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {argv} exited {rc}")
    setup_s = CLOCK() - t0
    return setup_s, (k0 + hostspeed.burst()) / 2, main


def spin(loops: int) -> int:
    """Fixed pure-Python work, of another kind than the host-speed kernel."""
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return acc


def _pass(main, invocations, call=None, delay_loops=0):
    """One pass over every invocation; returns (wall, [(start, end)], exit codes).

    ``spin(delay_loops)`` is added to each invocation's time, standing in
    for a slowdown of the program.
    """
    spans, codes = [], []
    t0 = CLOCK()
    for argv in invocations:
        s = CLOCK()
        codes.append(call(f"cli.{argv[0]}", main, argv) if call else main(argv))
        if delay_loops:
            spin(delay_loops)
        spans.append((s, CLOCK()))
    return CLOCK() - t0, spans, codes


def main_(setup_only: bool) -> None:
    with open("plan.json") as fh:
        plan = json.load(fh)
    setup_s, setup_kernel_s, main = _setup(plan)
    import lyapdecay

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(lyapdecay.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {lyapdecay.__file__}, not the package under {src}")
    if setup_only:
        with open("setup.json", "w") as fh:
            json.dump({"setup_s": setup_s, "setup_kernel_s": setup_kernel_s}, fh)
        return

    invocations = [inv["argv"] for inv in plan["invocations"]]
    walls, passes, codes = [], [], []
    delay = plan["delay_loops"]
    with hostspeed.Sampler() as sampler:
        start = CLOCK()
        if plan["warmup_pass"]:
            # untimed, but within the run's seconds; its exit codes are checked
            codes.append(_pass(main, invocations, delay_loops=delay)[2])
        while True:
            wall, spans, rc = _pass(main, invocations, delay_loops=delay)
            walls.append(wall)
            passes.append(spans)
            codes.append(rc)
            if CLOCK() - start + wall > plan["seconds"]:
                break
    # per pass and invocation: the invocation's own time and the kernel's time around it
    latencies = [[(e - s - sampler.busy(s, e), sampler.kernel_time(s, e)) for s, e in spans] for spans in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "walls": walls,
        "latencies": latencies,
        "codes": codes,
        "peak_rss_mb": peak_rss_mb,
        "env": _env_record(),
    }
    if plan["trace"]:
        from tracing import Tracer

        # host speed around the traced pass, measured outside the tracer
        # (the kernel calls numpy.linalg.norm, which the tracer counts)
        k0 = hostspeed.burst()
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, rc = _pass(main, invocations, call=tracer.call)
        finally:
            tracer.uninstall()
        kernel_s = (k0 + hostspeed.burst()) / 2
        result["traced"] = {"wall": wall, "kernel_s": kernel_s, "codes": rc, **tracer.summary()}
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main_("--setup-only" in sys.argv[1:])
