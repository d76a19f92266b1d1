"""Benchmark of the lyapdecay command line, end to end and layer by layer.

    python3 bench/run.py --workload {models,verify,analyze} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy.  Inputs are generated from the
seed into a scratch directory under ``.bench_work/``, which is removed
afterwards.  Every invocation goes through ``lyapdecay.cli.main(argv)`` in
one sequential workload process, with BLAS limited to one thread and
``LYAPDECAY_THREADS`` unset (the model reports record it).

Workloads (closed loop: one invocation at a time, each waits for the last):

* ``models``  - the mode-evolution sweeps of the three PDE models at CLI
  defaults; nearly all time is the scalar ``expm`` per (mode, z, t).
* ``verify``  - envelope dominance against the log-domain propagator oracle,
  at the default and a long horizon, plus ``family`` at its defaults.
* ``analyze`` - Jordan chains, adapted forms and envelope constants of
  single matrices, d = 2..8, no oracle work.

A run repeats whole passes over the workload's invocations while the next
pass is expected to end within ``--seconds`` (at least one pass).  On
``analyze`` the first pass is an untimed warm-up within that time.

``--trace 0`` prints the end-to-end metrics: the time of one pass (each
invocation at its median over the run's passes), the median set-up time of
several fresh processes, peak RSS, the share of items that passed their
checks, and per-invocation latency quantiles.  Times are rescaled to a
reference host speed measured next to them (see ``hostspeed.py``), because
other tenants of the host change its speed by up to half; the raw times and
the host factor are printed beside them.  ``--trace 1`` adds one traced pass
and prints the per-layer metrics from its spans (see ``tracing.py``; span
times are raw), and the tracing overhead from the traced and untraced pass
times, both rescaled.

Item checks (a failing item is counted in ``failed`` and listed by its seed
index): ``models`` outputs must be byte-identical to ``seed_digests.json``;
``verify`` fails on any nonzero exit; ``analyze`` fails on a nonzero exit or
when the reported ``mu`` exceeds the smallest planted eigenvalue real part by
more than ``MU_TOL``.  ``correct`` is false when an output is malformed,
disagrees with an independent recomputation, or breaks the byte contract;
an envelope the program itself reports as violated is a failed item, not an
incorrect output.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in the workload processes
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import contextlib
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = {
    "models": "mode-evolution sweeps of the three PDE models at defaults: scalar expm per (mode, z, t), no oracle or Jordan work",
    "verify": "log-domain propagator oracle at t_max 50 and 1e6 plus family: squaring with a 2-norm per step, expm on scaled matrices",
    "analyze": "Jordan chains, adapted forms and constants of d = 2..8 matrices, half with heuristic weights: no oracle or expm work",
}

WORK_DIR = ".bench_work"
#: workloads whose first pass is an untimed warm-up: analyze makes several
#: passes a run, and its first pass over the fresh inputs differed from the
#: later ones by -10 % to +23 %, a different amount each run; models and
#: verify make one pass a run
WARMUP_PASS = ("analyze",)
#: fresh processes that time the set-up, half before and half after the
#: workload process so that one slow spell of the host cannot cover them all;
#: one more runs first and is discarded (it may compile bytecode)
SETUP_RUNS = 8
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0
#: analyze: reported mu may exceed the planted gap by this much (near pairs split by >= 1e-8)
MU_TOL = 1e-9
#: analyze: a reported mu this far from the planted gap means the gap was misidentified
MU_GROSS = 1e-3
#: verify: times up to this are recomputed with scipy's expm, to this relative tolerance
CHECK_T_MAX, CHECK_RTOL = 5.0, 1e-8
#: verify: a ratio above 1 + this is a violation (the program's own slack)
DOMINANCE_SLACK = 1e-9

MODEL_COMMANDS = (
    ("model-cd-1", ["model-cd", "--order", "1"]),
    ("model-cd-2", ["model-cd", "--order", "2"]),
    ("model-gt", ["model-gt"]),
    ("model-fp", ["model-fp"]),
)
#: verify's t_max values: its default and a long horizon
HORIZONS = ("50", "1e6")
#: verify's default --points
VERIFY_POINTS = 200
#: family's default (t points, z points); every (z, t) is one oracle point
FAMILY_GRID = (100, 241)
WARM_MATRIX = {"dim": 2, "entries": [[1.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]]}

#: full sizes; the smoke test passes smaller ones
SIZES = {"verify_matrices": 60, "analyze_matrices": 1500, "family": None, "models": []}
#: tiny sizes for the smoke test (model outputs then differ from the recorded digests)
TINY = {
    "verify_matrices": 5,
    "analyze_matrices": 10,
    "family": (4, 3),
    "models": ["--z-grid=0:1:2", "--t-points", "3", "--K", "4"],
}


def _model_argv(cmd, sizes):
    tiny = sizes["models"]
    return list(cmd) + tiny + (["--k-max", "2"] if tiny and cmd[0] == "model-gt" else [])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def make_plan(workload, seed, seconds, trace, src, workdir, sizes=SIZES, extra=()):
    """Write the inputs into ``workdir`` and return the plan the workload process runs."""
    _write_json(os.path.join(workdir, "warm.json"), WARM_MATRIX)
    files, invocations = ["warm.json"], []
    os.makedirs(os.path.join(workdir, "m"))
    if workload == "models":
        warmups = [
            _model_argv(cmd, TINY) + ["--out", "warm.csv", "--report", "warm-report.json"]
            for _, cmd in MODEL_COMMANDS
        ]
        for name, cmd in MODEL_COMMANDS:
            outs = [f"{name}.csv", f"{name}.json"]
            argv = _model_argv(cmd, sizes) + ["--out", outs[0], "--report", outs[1]]
            invocations.append({"id": name, "kind": "model", "argv": argv, "outs": outs})
    elif workload == "verify":
        warmups = [
            ["verify", "--matrix", "warm.json", "--points", "3", "--out", "warm.csv"],
            ["family", "--points", "4", "--z-points", "3", "--out", "warm.csv"],
        ]
        for item in inputs.matrix_items(seed, sizes["verify_matrices"]):
            path = f"m/{item['index']:04d}.json"
            _write_json(os.path.join(workdir, path), item["matrix"])
            files.append(path)
            for h in HORIZONS:
                out = f"v{item['index']:04d}-{h}.csv"
                argv = ["verify", "--matrix", path, "--t-max", h, "--out", out]
                invocations.append(
                    {
                        "id": f"{item['index']}@{h}", "kind": item["kind"], "split": item["split"],
                        "argv": argv, "outs": [out], "matrix": path,
                        "t_max": float(h), "points": VERIFY_POINTS,
                    }
                )
        grid = sizes["family"] or FAMILY_GRID
        argv = ["family", "--out", "family.csv"]
        if sizes["family"]:
            argv += ["--points", str(grid[0]), "--z-points", str(grid[1])]
        invocations.append(
            {"id": "family", "kind": "family", "argv": argv, "outs": ["family.csv"], "points": grid[0] * grid[1]}
        )
    elif workload == "analyze":
        warmups = [
            ["analyze", "--matrix", "warm.json", "--out", "warm-report.json"],
            ["analyze", "--matrix", "warm.json", "--weights", "heuristic", "--out", "warm-report.json"],
        ]
        for item in inputs.matrix_items(seed, sizes["analyze_matrices"]):
            path = f"m/{item['index']:04d}.json"
            _write_json(os.path.join(workdir, path), item["matrix"])
            files.append(path)
            out = f"a{item['index']:04d}.json"
            argv = ["analyze", "--matrix", path, "--out", out]
            if item["index"] % 2:
                argv += ["--weights", "heuristic"]
            invocations.append(
                {
                    "id": str(item["index"]), "kind": item["kind"], "split": item["split"],
                    "argv": argv, "outs": [out], "min_real": item["min_real"],
                }
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    invocations += [dict(inv) for inv in extra]
    return {
        "seconds": seconds, "trace": bool(trace), "src": src, "warmup_pass": workload in WARMUP_PASS,
        "inputs": files, "warmups": warmups, "invocations": invocations,
    }


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path) as fh:
        width = len(fh.readline().split(","))
        return np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()]).reshape(-1, width)


def _check_verify(inv, rc, workdir):
    """(failure reason or None, incorrect reason or None) of one verify item."""
    if rc not in (0, 1):
        return f"exit {rc}", None
    rows = _read_csv(os.path.join(workdir, inv["outs"][0]))
    points, t_max = inv["points"], inv["t_max"]
    expect_t = np.concatenate([[0.0], np.geomspace(1e-3, t_max, points - 1)])
    if rows.shape != (points, 4) or not np.allclose(rows[:, 0], expect_t, rtol=1e-12, atol=0):
        return "incorrect output", f"time grid of {rows.shape[0]} rows differs from the request"
    # where both columns underflow to 0 the ratio column is nan; the exit
    # code comes from log-domain ratios, so only finite ratios are compared
    ratio = rows[:, 3][np.isfinite(rows[:, 3])]
    over = bool(ratio.size and ratio.max() > 1.0 + DOMINANCE_SLACK)
    if over and rc == 0 or rc == 1 and not over and ratio.size == points:
        return "incorrect output", f"exit {rc} disagrees with the ratio column"
    import scipy.linalg

    with open(os.path.join(workdir, inv["matrix"])) as fh:
        mat = json.load(fh)
    c = np.array([complex(re, im) for re, im in mat["entries"]]).reshape(mat["dim"], mat["dim"])
    for t, prop in rows[(rows[:, 0] <= CHECK_T_MAX)][::8, :2]:
        ref = np.linalg.norm(scipy.linalg.expm(-c * t), 2) ** 2
        if abs(prop - ref) > CHECK_RTOL * ref:
            return "incorrect output", f"propagator_sq {prop:.17g} at t={t:g} differs from expm's {ref:.17g}"
    return ("envelope violated" if rc else None), None


def _check_analyze(inv, rc, workdir):
    if rc != 0:
        return f"exit {rc}", None
    with open(os.path.join(workdir, inv["outs"][0])) as fh:
        rep = json.load(fh)
    mu, m, c = rep.get("mu"), rep.get("M"), rep.get("C_const")
    if not (isinstance(m, int) and m >= 1 and isinstance(c, (int, float)) and math.isfinite(c) and c >= 1.0):
        return "incorrect output", f"M = {m!r}, C = {c!r}"
    excess = mu - inv["min_real"]
    if abs(excess) > MU_GROSS:
        return "incorrect output", f"reported mu {mu!r} is not near the planted gap {inv['min_real']!r}"
    return ("mu exceeds planted gap" if excess > MU_TOL else None), None


def _check_digests(inv, rc, workdir, digests):
    if rc != 0:
        return f"exit {rc}", None
    for out in inv["outs"]:
        want = digests.get(out)
        got = _sha256(os.path.join(workdir, out))
        if got != want:
            return "output differs from the recorded digest", f"{out} sha256 {got} != {want}"
    return None, None


def check(plan, codes, workdir):
    """Returns (failed [(id, kind, reason)], incorrect [(id, reason)])."""
    with open(os.path.join(BENCH, "seed_digests.json")) as fh:
        digests = json.load(fh)["files"]
    failed, incorrect = [], []
    for n, inv in enumerate(plan["invocations"]):
        rcs = {run[n] for run in codes}
        rc = codes[-1][n]
        if len(rcs) > 1:
            incorrect.append((inv["id"], f"exit codes differ between passes: {sorted(rcs)}"))
        try:
            if inv["kind"] in ("model", "family"):
                fail, bad = _check_digests(inv, rc, workdir, digests)
            elif inv["argv"][0] == "verify":
                fail, bad = _check_verify(inv, rc, workdir)
            else:
                fail, bad = _check_analyze(inv, rc, workdir)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            fail, bad = "incorrect output", f"malformed output: {type(exc).__name__}: {exc}"
        if fail:
            label = inv["kind"] + (f" split {inv['split']:.0e}" if inv.get("split") else "")
            failed.append((inv["id"], label, fail))
        if bad:
            incorrect.append((inv["id"], bad))
    return failed, incorrect


def _child(workdir, setup_only, deadline):
    env = {k: v for k, v in os.environ.items() if k != "LYAPDECAY_THREADS"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    cmd = [sys.executable, os.path.join(BENCH, "workload.py")] + (["--setup-only"] if setup_only else [])
    with open(os.path.join(workdir, "stderr.txt"), "ab") as err:
        proc = subprocess.run(
            cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=err,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    if proc.returncode != 0:
        with open(os.path.join(workdir, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{tail}")


def _span(spans, name, key):
    agg = spans.get(name)
    return agg[key] if agg else 0


def _per_unit(spans, name, per):
    agg = spans.get(name)
    n = agg and agg[per]
    return agg["self_s"] / n * 1e6 if n else 0.0


def _expm_dim(spans, d):
    units, self_s = (spans.get("linalg.expm") or {"by_dim": {}})["by_dim"].get(str(d), (0, 0.0))
    return self_s / units * 1e6 if units else 0.0


SPAN_METRICS = (
    ("linalg.expm", ("calls", "matrices", "self_s")),
    ("linalg.hermitian_extremes", ("calls", "self_s")),
    ("goldstein_taylor.gt_uniform_constant", ("self_s",)),
    ("convection_diffusion.evolve_spectrum", ("calls", "self_s")),
    ("goldstein_taylor.gt_evolve", ("calls", "self_s")),
    ("fokker_planck.fp_evolve", ("calls", "self_s")),
    ("fokker_planck.kuniform_constant", ("self_s",)),
    ("oracle.propagator_lognorm", ("calls", "points", "self_s", "us_per_point")),
    ("oracle.check_dominance", ("calls", "self_s")),
    ("family.grid_sup_envelope", ("self_s",)),
    ("jordan.jordan_chains", ("calls", "self_s", "us_per_call")),
    ("jordan.structure_from_chains", ("calls",)),
    ("lyapunov.build_form", ("calls", "self_s")),
    ("lyapunov.decay_constant", ("calls", "self_s")),
    ("lyapunov.verify_matrix_inequality", ("calls",)),
)
SUBCOMMANDS = ("analyze", "verify", "family", "model-cd", "model-gt", "model-fp")


def per_layer_metrics(traced, untraced_wall, output_bytes):
    """[(name, unit, value)] from the traced pass, in BENCHMARK.json order.

    ``untraced_wall`` is the rescaled ``wall_s``; the traced pass's wall time
    is rescaled by the kernel bursts around it before the two are compared.
    """
    spans = traced["spans"]
    out = []
    for name, keys in SPAN_METRICS:
        for key in keys:
            if key in ("calls", "matrices", "points"):
                out.append((f"{name}.{key}", "count", _span(spans, name, "units" if key != "calls" else "calls")))
            elif key == "self_s":
                out.append((f"{name}.self_s", "s", _span(spans, name, "self_s")))
            elif key == "us_per_point":
                out.append((f"{name}.us_per_point", "us", _per_unit(spans, name, "units")))
            elif key == "us_per_call":
                out.append((f"{name}.us_per_call", "us", _per_unit(spans, name, "calls")))
        if name == "linalg.expm":
            out += [(f"linalg.expm.d{d}.us_per_matrix", "us", _expm_dim(spans, d)) for d in (2, 3, 4)]
    for func in ("norm", "svd", "eigvals"):
        out.append((f"numpy.linalg.{func}.calls", "count", traced["counts"].get(f"numpy.linalg.{func}", 0)))
    for sub in SUBCOMMANDS:
        out.append((f"cli.{sub}.total_s", "s", _span(spans, f"cli.{sub}", "total_s")))
    out.append(("cli.output_bytes", "bytes", output_bytes))
    traced_wall = traced["wall"] * hostspeed.REF_KERNEL_S / traced["kernel_s"]
    out.append(("trace.overhead_frac", "frac", traced_wall / untraced_wall - 1.0))
    return out


def run(workload, seed, seconds, trace, sizes=SIZES, extra=(), setup_runs=SETUP_RUNS, delay_loops=0):
    """Run one benchmark; returns a report dict (see ``main`` for the printout).

    ``delay_loops`` adds ``workload.spin(delay_loops)`` to every timed
    invocation; the smoke test uses it to check that a slowdown passes
    through the host-speed rescaling.
    """
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lyapdecay", "cli.py")):
        raise FileNotFoundError(f"no program source at {os.path.join('src', 'lyapdecay')} under {root}")
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(root, WORK_DIR))
    try:
        plan = make_plan(workload, seed, seconds, trace, src, workdir, sizes, extra)
        plan["delay_loops"] = delay_loops
        _write_json(os.path.join(workdir, "plan.json"), plan)
        setup_samples = []
        for n in range(setup_runs + 1):
            if n == setup_runs // 2 + 1:
                _child(workdir, False, deadline)
            _child(workdir, True, deadline)
            with open(os.path.join(workdir, "setup.json")) as fh:
                setup_samples += [json.load(fh)] if n else []
        with open(os.path.join(workdir, "result.json")) as fh:
            result = json.load(fh)
        setup_samples.append(result)
        codes = result["codes"] + ([result["traced"]["codes"]] if trace else [])
        failed, incorrect = check(plan, codes, workdir)
        outs = [os.path.join(workdir, o) for inv in plan["invocations"] for o in inv["outs"]]
        output_bytes = sum(os.path.getsize(o) for o in outs if os.path.exists(o))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, WORK_DIR))
    attempted = len(plan["invocations"])
    ref = hostspeed.REF_KERNEL_S
    setups = [s["setup_s"] * ref / s["setup_kernel_s"] for s in setup_samples]
    lat = np.array(result["latencies"])  # (passes, invocations, [raw s, kernel s])
    # each invocation at its median over the passes
    lat_ms = np.median(lat[..., 0] * ref / lat[..., 1], axis=0) * 1e3
    raw_s = float(np.median(lat[..., 0], axis=0).sum())
    host = float(np.median(lat[..., 1])) / ref
    passes = len(result["walls"])
    report = {
        "workload": workload, "seed": seed, "env": result["env"], "passes": passes,
        "raw_wall_s": raw_s, "host_factor": host,
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "end_to_end": [
            ("wall_s", "s", float(lat_ms.sum()) / 1e3, f"per-invocation medians of {passes} passes; raw {raw_s:.6g} s, host factor {host:.4f}"),
            ("setup_s", "s", statistics.median(setups), f"median of {len(setups)} set-ups; raw {statistics.median(s['setup_s'] for s in setup_samples):.4g} s"),
            ("peak_rss_mb", "MB", result["peak_rss_mb"], "workload process"),
            ("ok_frac", "frac", (attempted - len(failed)) / attempted, f"{attempted - len(failed)} of {attempted} items"),
            ("item_p50_ms", "ms", float(np.percentile(lat_ms, 50)), f"{lat_ms.size} invocations x {passes} passes"),
            ("item_p90_ms", "ms", float(np.percentile(lat_ms, 90)), f"{lat_ms.size} invocations x {passes} passes"),
        ],
    }
    if trace:
        report["per_layer"] = per_layer_metrics(result["traced"], float(lat_ms.sum()) / 1e3, output_bytes)
        report["absent"] = result["traced"]["absent"]
        report["roots"] = result["traced"]["roots"]
        spans = result["traced"]["spans"]
        report["largest_self"] = max(((name, agg["self_s"]) for name, agg in spans.items()), key=lambda x: x[1])
        # the oracle is reached by every invocation that exits 0 or 1
        report["requested_points"] = sum(
            inv.get("points", 0) for inv, rc in zip(plan["invocations"], codes[-1]) if rc in (0, 1)
        )
    return report


def print_report(report, trace, out=sys.stdout):
    env = report["env"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, {threads}", file=out)
    print(
        f"workload {report['workload']} seed {report['seed']}: {report['passes']} timed pass(es) "
        f"of {report['attempted']} invocations",
        file=out,
    )
    fails = len(report["failed"])
    print(f"  {'fail_frac':<24} {fails / report['attempted']:<14.6g} frac  ({fails} failed of {report['attempted']} attempted)", file=out)
    for name, unit, value, samples in report["end_to_end"]:
        print(f"  {name:<24} {value:<14.6g} {unit:<5} ({samples})", file=out)
    by_reason = {}
    for item, kind, reason in report["failed"]:
        by_reason.setdefault((kind, reason), []).append(item)
    for (kind, reason), items in sorted(by_reason.items()):
        print(f"  failed [{kind}] {reason}: {len(items)} items: {', '.join(items)}", file=out)
    for item, reason in report["incorrect"]:
        print(f"  INCORRECT output of {item}: {reason}", file=out)
    metrics = {}
    if trace:
        for name, unit, value in report["per_layer"]:
            print(f"  {name:<48} {value:<14.6g} {unit}", file=out)
            metrics[name] = {"value": value, "unit": unit}
        print(f"  traced root spans: {report['roots']}; absent functions: {report['absent'] or 'none'}", file=out)
        print(f"  largest self time: {report['largest_self'][0]} ({report['largest_self'][1]:.6g} s)", file=out)
        print(f"  oracle points requested by invocations that reached the oracle: {report['requested_points']}", file=out)
    else:
        metrics = {name: {"value": value, "unit": unit} for name, unit, value, _ in report["end_to_end"]}
    final = {
        "correct": not report["incorrect"],
        "attempted": report["attempted"],
        "failed": fails,
        "metrics": metrics,
    }
    print(json.dumps(final), file=out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_report(report, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
