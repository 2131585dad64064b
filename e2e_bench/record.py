#!/usr/bin/env python3
"""Record the swmond end-to-end benchmark over several seeds.

    python3 e2e_bench/record.py --seeds 1-10 [--workloads table1_mix,...]
                                [--trace 0|1] [--out FILE]

Runs e2e_bench/run.py once per (workload, seed), then prints, per metric,
the median, the quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, next to the metric's bound from
BENCHMARK.json. With --out, writes all of it as JSON, stamped with the
run context (hardware threads, build type, compiler, git sha, seeds, run
count). Exits 1 if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    context = next((json.loads(l[len("context: "):]) for l in lines
                    if l.startswith("context: ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, context, time.time() - t0
    return result, context, time.time() - t0


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"context": None, "seeds": seeds, "trace": args.trace,
              "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        samples = {}
        for seed in seeds:
            result, context, took = run_once(workload, seed, args.seconds,
                                             args.trace)
            print(f"{workload} seed {seed}: {took:.1f}s "
                  f"{'ok' if result else 'FAILED'}", flush=True)
            if result is None:
                ok = False
                continue
            if report["context"] is None:
                report["context"] = {k: context.get(k) for k in (
                    "hardware_threads", "build_type", "compiler", "git_sha")}
            for name, m in result["metrics"].items():
                samples.setdefault(name, {"unit": m["unit"], "values": []})
                samples[name]["values"].append(m["value"])
        stats = {}
        for name, s in samples.items():
            if len(s["values"]) < 2:
                continue
            stats[name] = dict(summarize(s["values"]), unit=s["unit"],
                               bound=bounds.get(name))
            b = bounds.get(name)
            flag = ""
            if b is not None and args.trace == 0 and name != "setup_s":
                flag = "ok" if stats[name]["spread"] <= b / 3 else \
                    "WIDE (> bound/3)" if stats[name]["spread"] <= b else \
                    "OVER BOUND"
            print(f"  {name:44s} median {stats[name]['median']:<14.6g} "
                  f"q1 {stats[name]['q1']:<12.6g} q3 {stats[name]['q3']:<12.6g} "
                  f"spread {stats[name]['spread']:.4f} {flag}")
        report["workloads"][workload] = {"runs": len(seeds), "metrics": stats}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
