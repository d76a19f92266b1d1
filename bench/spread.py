"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --runs 10 --first-seed 1 [--out FILE] [--compare FILE]

Runs ``run.py`` once per (seed, workload), for every workload of
BENCHMARK.json at its ``run_seconds``, one process at a time, seeds in the
outer loop so that slow spells of the host fall on every workload.  For
each workload and metric it prints the quartiles of the runs, as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
``--out`` also writes them, with every run's values and the environment line
of the first run, as JSON; next to them go each run's raw (not rescaled)
``wall_s`` and host factor, and the spread of the raw ``wall_s``.  ``--compare`` names an earlier such file and
prints how far each median moved from it, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
#: run.py's readable wall_s line carries the raw time and the host factor
RAW_WALL = re.compile(r"^\s*wall_s .*raw (\S+) s, host factor (\S+)\)$")


def _spread(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare")
    args = p.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    outcomes = {w: [] for w in workloads}
    raw = {w: {"raw_wall_s": [], "host_factor": []} for w in workloads}
    env = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            env = env or next((line for line in lines if line.startswith("env: ")), None)
            last = json.loads(lines[-1])
            wall_raw, host = next(map(float, m.groups()) for m in map(RAW_WALL.match, lines) if m)
            raw[w]["raw_wall_s"].append(wall_raw)
            raw[w]["host_factor"].append(host)
            outcomes[w].append({k: last[k] for k in ("correct", "attempted", "failed")})
            for name, m in last["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: correct={last['correct']} failed={last['failed']}/{last['attempted']} "
                  + ", ".join(f"{k}={m['value']:.5g}" for k, m in last["metrics"].items())
                  + f" (raw wall_s={wall_raw:.5g}, host factor {host:.4f})", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for w, metrics in values.items():
        table[w] = {}
        for name, vals in metrics.items():
            q1, q2, q3, spread = _spread(vals)
            table[w][name] = {"q1": q1, "median": q2, "q3": q3, "spread": spread, "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"{w:8} {name:12} q1 {q1:<12.6g} median {q2:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} (bound {bounds[name]}){flag}")
        q1, q2, q3, spread = _spread(raw[w]["raw_wall_s"])
        print(f"{w:8} {'raw wall_s':12} q1 {q1:<12.6g} median {q2:<12.6g} q3 {q3:<12.6g} spread {spread:.4f} (not gated)")
        table[w]["raw"] = {**raw[w], "raw_wall_s_spread": spread}
        table[w]["outcomes"] = outcomes[w]
    if args.compare:
        with open(args.compare) as fh:
            before = json.load(fh)["workloads"]
        for w, metrics in table.items():
            for name, now in metrics.items():
                if name not in ("outcomes", "raw") and name in before.get(w, {}):
                    old = before[w][name]["median"]
                    shift = (now["median"] - old) / old if old else 0.0
                    print(f"{w:8} {name:12} median {old:<12.6g} -> {now['median']:<12.6g} shift {shift:+.4f} (bound {bounds[name]})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "runs": args.runs, "first_seed": args.first_seed, "seconds": spec["run_seconds"], "workloads": table}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
