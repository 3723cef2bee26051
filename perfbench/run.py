#!/usr/bin/env python3
"""Build and run the waitfree-store benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload run executes in its own child process (the Rust program
in this directory), so a run that crashes is recorded as failed
operations instead of killing the harness. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it name every metric with its unit and
sample count. `--workload all` runs every workload the program lists
(`perfbench --list`), the checkpointed churn workload included.

The program is built with cargo into `$CARGO_TARGET_DIR` (default
`.bench_build`). Each run's result, with the host it ran on, is
appended to `<target>/perfbench/runs.jsonl`; a traced run's spans are
written to `<target>/perfbench/spans-<workload>.csv`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A child gets this long beyond its measured time before it is killed
# and its run counted as crashed.
CHILD_SLACK_S = 60


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def crashed(workload, seed, trace, seconds, code, out):
    """The result of a child that died: every op it had not finished
    counts as failed. The unfinished ops are those the run would still
    have issued at the pace it kept until its last progress line."""
    done, timed = 0, 0.0
    for line in out.splitlines():
        if line.startswith("progress "):
            fields = dict(kv.split("=") for kv in line.split()[1:])
            done, timed = int(fields["ops"]), float(fields["timed_s"])
    planned = done + 1
    if timed > 0:
        planned = max(planned, round(done * seconds / timed))
    how = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
    return {
        "workload": workload, "seed": seed, "trace": trace, "correct": False,
        "attempted": planned, "failed": planned - done,
        "faults": [f"process died ({how}) after {done} ops, {timed:.2f} s"],
        "crash": how, "metrics": {},
    }


def host():
    """The host fingerprint every run prints and records."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_one(exe, target, host_info, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(target, "perfbench", f"spans-{workload}.csv")]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
    lines = out.splitlines()
    if child.returncode == 0 and lines and lines[-1].startswith("{"):
        res = json.loads(lines[-1])
    else:
        res = crashed(workload, seed, trace, seconds, child.returncode, out)
    res["host"] = host_info
    with open(os.path.join(target, "perfbench", "runs.jsonl"), "a") as f:
        f.write(json.dumps(res) + "\n")
    return res


def show(res):
    err = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"{res['workload']} seed={res['seed']} trace={res['trace']}: correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']} error_rate={err:.6g}")
    for fault in res.get("faults", []):
        print(f"  fault: {fault}")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:10s} samples={m['samples']}")


def listed_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode, if present."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(target)
    os.makedirs(os.path.join(target, "perfbench"), exist_ok=True)
    workloads = subprocess.run([exe, "--list"], stdout=subprocess.PIPE, text=True,
                               check=True).stdout.split()
    if args.workload not in workloads + ["all"]:
        sys.exit(f"perfbench: unknown workload {args.workload}; "
                 f"choose one of {', '.join(workloads)} or all")

    host_info = host()
    print(f"host nproc={host_info['nproc']} cpu={host_info['cpu']!r} "
          "(numbers compare only within one host)")
    names = workloads if args.workload == "all" else [args.workload]
    results = [run_one(exe, target, host_info, w, args.seed, args.seconds, args.trace)
               for w in names]
    for res in results:
        show(res)

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        metrics = results[0]["metrics"]
        wanted = listed_metrics(args.trace)
        if wanted is not None:
            missing = [n for n in wanted if n not in metrics]
            if missing and results[0]["correct"]:
                sys.exit(f"perfbench: {args.workload} did not report {', '.join(missing)}")
            metrics = {n: metrics[n] for n in wanted if n in metrics}
    summary["metrics"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
