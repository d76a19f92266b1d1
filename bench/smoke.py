"""Smoke test of the benchmark harness at tiny sizes (about 25 s).

    python3 bench/smoke.py

Runs every workload with and without tracing on tiny inputs and checks that:

* every metric named in BENCHMARK.json is printed with its unit, in the
  final JSON line and in the readable lines above it, and fail_frac too;
* a deliberately too-small envelope given to ``verify`` through
  ``--c-const/--mu/--m`` is counted as exactly one failed item;
* model outputs that differ from the recorded digests are counted as failed
  (tiny grids cannot match the digests of the defaults);
* malformed or missing outputs are failed items and make ``correct`` false,
  without stopping the harness;
* the traced run splits the layers: no oracle or Jordan work on ``models``
  and ``expm`` the largest self time there, no ``expm`` or oracle work on
  ``analyze``, and on ``verify`` the oracle evaluates exactly the time points
  the invocations asked for;
* a slowdown passes through the host-speed rescaling undiminished: fixed
  pure-Python work added to every ``analyze`` invocation raises the
  rescaled ``wall_s`` by that work's time at the reference host speed,
  timed apart, within ``RESCALE_TOL``.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

UNDERCUT = {
    "id": "undercut", "kind": "probe", "matrix": "warm.json", "t_max": 50.0, "points": 200,
    "argv": ["verify", "--matrix", "warm.json", "--c-const", "0.1", "--mu", "1", "--m", "1", "--out", "undercut.csv"],
    "outs": ["undercut.csv"],
}


#: pure-Python loops added to each invocation by the rescaling check (about 0.08 s)
DELAY_LOOPS = 600_000
#: the rescaled growth may differ from the expected one by this share
RESCALE_TOL = 0.25


def _spin_at_ref():
    """Median time of ``workload.spin(DELAY_LOOPS)`` at the reference host
    speed, timed in this process between kernel bursts."""
    times = []
    for _ in range(5):
        k0 = hostspeed.burst(10)
        t0 = time.perf_counter()
        workload.spin(DELAY_LOOPS)
        spin_s = time.perf_counter() - t0
        times.append(spin_s * 2 * hostspeed.REF_KERNEL_S / (k0 + hostspeed.burst(10)))
    return times


def rescaling_check(expect):
    """Rescaled wall_s of tiny ``analyze`` with and without ``spin(DELAY_LOOPS)``
    added to every invocation.

    The growth should be the invocations times the spin's time at the
    reference speed, timed apart from the workload process.  The spin is
    work of another kind than the host-speed kernel, so a sampler that the
    program's own work slows down would divide part of the growth out.  One
    that timed a single cold kernel run after the program's work read 0.63
    to 0.74 of the expected growth; the warm samples read 0.93 to 1.19.
    The rest of the difference is the host: its speed changes between the
    spin's timing and the runs, and it speeds the kernel and the spin up by
    different shares.
    """
    ref = _spin_at_ref()
    base, slow = (
        run.run("analyze", 7, 3.0, 0, sizes=run.TINY, setup_runs=2, delay_loops=n) for n in (0, DELAY_LOOPS)
    )
    ref += _spin_at_ref()
    base_wall, slow_wall = ({n: v for n, _, v, _ in r["end_to_end"]}["wall_s"] for r in (base, slow))
    expected = base["attempted"] * statistics.median(ref)
    grown = slow_wall - base_wall
    print(
        f"rescaling: wall_s {base_wall:.4g} s -> {slow_wall:.4g} s with {DELAY_LOOPS} loops per invocation; "
        f"growth {grown:.4g} s, expected {expected:.4g} s (ratio {grown / expected:.3f}); "
        f"raw {base['raw_wall_s']:.4g} s -> {slow['raw_wall_s']:.4g} s, "
        f"host factor {base['host_factor']:.3f} -> {slow['host_factor']:.3f}"
    )
    expect(abs(grown / expected - 1.0) <= RESCALE_TOL, f"rescaling: growth {grown:.4g} s is not {expected:.4g} s")


def malformed_check(expect):
    """Malformed or missing outputs are failed, incorrect items, not a crash."""
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as wd:
        with open(os.path.join(wd, "null-mu.json"), "w") as fh:
            json.dump({"mu": None, "M": 1, "C_const": 1.0}, fh)
        with open(os.path.join(wd, "ragged.csv"), "w") as fh:
            fh.write("t,propagator_sq,bound_sq,ratio\n0,1,1\n")
        item = {"kind": "main", "split": None, "min_real": 0.5, "t_max": 50.0, "points": 200, "matrix": "warm.json"}
        plan = {
            "invocations": [
                {**item, "id": "null-mu", "argv": ["analyze"], "outs": ["null-mu.json"]},
                {**item, "id": "missing", "argv": ["analyze"], "outs": ["missing.json"]},
                {**item, "id": "ragged", "argv": ["verify"], "outs": ["ragged.csv"]},
            ]
        }
        failed, incorrect = run.check(plan, [[0, 0, 0]], wd)
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK_DIR)
    ids = ["null-mu", "missing", "ragged"]
    expect([f[0] for f in failed] == ids and [i[0] for i in incorrect] == ids, f"malformed outputs: {failed}, {incorrect}")
    print(f"malformed outputs: {len(failed)} failed, {len(incorrect)} incorrect")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            extra = [UNDERCUT] if workload == "verify" else []
            report = run.run(workload, 7, 0.0, trace, sizes=run.TINY, extra=extra, setup_runs=2)
            buf = io.StringIO()
            run.print_report(report, trace, out=buf)
            lines = buf.getvalue().splitlines()
            final = json.loads(lines[-1])
            tag = f"{workload} trace {trace}"
            expect(set(final) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys {sorted(final)}")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            expect(set(final["metrics"]) == {m["name"] for m in wanted}, f"{tag}: metric names differ from BENCHMARK.json")
            for m in wanted:
                got = final["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
                expect(
                    any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line for line in lines[:-1]),
                    f"{tag}: {m['name']} not printed with its unit",
                )
            expect(any(line.split()[:1] == ["fail_frac"] for line in lines), f"{tag}: fail_frac not printed")
            failed = {item: reason for item, _, reason in report["failed"]}
            expect(final["failed"] == len(report["failed"]), f"{tag}: failed count {final['failed']} != listed items")
            expect(final["attempted"] == report["attempted"], f"{tag}: attempted count")
            if workload == "verify":
                expect(failed.get("undercut") == "envelope violated", f"{tag}: undercut envelope not one failed item")
                expect(sum(item == "undercut" for item, _, _ in report["failed"]) == 1, f"{tag}: undercut counted twice")
            if workload == "models":
                expect(
                    len(failed) == 4 and all(r == "output differs from the recorded digest" for r in failed.values()),
                    f"{tag}: tiny model outputs not counted as digest failures: {failed}",
                )
            if trace:
                layer = {name: value for name, _, value in report["per_layer"]}
                if workload == "models":
                    expect(layer["oracle.propagator_lognorm.calls"] == 0, f"{tag}: oracle called")
                    expect(layer["jordan.jordan_chains.calls"] == 0, f"{tag}: jordan_chains called")
                    expect(layer["linalg.expm.calls"] > 0, f"{tag}: expm not traced")
                    expect(report["largest_self"][0] == "linalg.expm", f"{tag}: largest self time {report['largest_self']}")
                if workload == "analyze":
                    expect(layer["linalg.expm.calls"] == 0, f"{tag}: expm called")
                    expect(layer["oracle.propagator_lognorm.calls"] == 0, f"{tag}: oracle called")
                    expect(layer["jordan.jordan_chains.calls"] > 0, f"{tag}: jordan_chains not traced")
                if workload == "verify":
                    expect(
                        layer["oracle.propagator_lognorm.points"] == report["requested_points"] > 0,
                        f"{tag}: oracle points {layer['oracle.propagator_lognorm.points']} != requested {report['requested_points']}",
                    )
                expect(report["roots"] == report["attempted"], f"{tag}: {report['roots']} root spans")
            print(f"{tag}: {final['attempted']} attempted, {final['failed']} failed, {len(final['metrics'])} metrics")
    malformed_check(expect)
    rescaling_check(expect)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
