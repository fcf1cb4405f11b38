#!/usr/bin/env python3
"""End-to-end benchmark of the resilient-PCG stack (see bench/e2e/README.md).

    python3 bench/e2e/run.py                          # every workload, seed 1
    python3 bench/e2e/run.py --workload emilia-esrp --seed 7 --seconds 20
    python3 bench/e2e/run.py --workload emilia-esrp --trace 1   # per-layer
    python3 bench/e2e/run.py --runs 10                # result set, seeds 1..10
    python3 bench/e2e/run.py --smoke                  # quick self-check

Builds bench/e2e with CMake into .bench_build/e2e, runs each workload in a
process of its own, writes a result file (with provenance) and, when
traced, a span file under bench_results/e2e/, prints every metric by name
and unit, and ends stdout with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits 1 if any correctness check failed, 2 if the
benchmark could not be built or run.
"""

import argparse
import datetime
import json
import os
import statistics
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RESULTS = ROOT / "bench_results" / "e2e"
WORKLOADS = ["emilia-esrp", "emilia-esr", "audikw-imcr", "poisson-pcg"]
TIMEOUT_S = 170  # per benchmark process


def fail(message):
    sys.stderr.write(f"run.py: {message}\n")
    sys.exit(2)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed, see {log}")


def provenance(args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        try:
            p = subprocess.run(["git", "-C", str(ROOT), *cmd], env=env,
                               capture_output=True, text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            return None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        l3 = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        l3 = None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l3_bytes": l3,
        "runs_per_workload": args.runs,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "comparable": not args.smoke,
    }


def invoke(binary, argv, out_json):
    """Run one benchmark process; its JSON result, or None if it crashed."""
    out_json.unlink(missing_ok=True)
    try:
        proc = subprocess.run([str(BUILD / binary), *argv, "--json", str(out_json)],
                              stdout=sys.stderr, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {binary} exceeded {TIMEOUT_S} s\n")
        return None
    if proc.returncode not in (0, 1) or not out_json.exists():
        sys.stderr.write(f"run.py: {binary} exited with {proc.returncode}\n")
        return None
    with open(out_json) as f:
        return json.load(f)


def self_times(spans):
    """Per span name: count, total and self time [ms] (self = minus children)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_us"] - s["start_us"]
    table = {}
    for s, c in zip(spans, child):
        d = s["end_us"] - s["start_us"]
        row = table.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += d * 1e-3
        row["self_ms"] += (d - c) * 1e-3
    return table


def run_one(spec, workload, seed, args, stamp):
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if args.smoke else [])
    parts = [invoke("esrp_bench", base + ["--seconds", str(args.seconds)]
                    + (["--trace"] if args.trace else []),
                    BUILD / f"{workload}-runner.json")]
    if args.trace and parts[0] is not None:
        fail_iteration = parts[0]["info"].get("fail_iteration")
        parts.append(invoke("esrp_bench_layers", base + (
            ["--fail-iteration", fail_iteration] if fail_iteration else []),
            BUILD / f"{workload}-layers.json"))

    rec = {"workload": workload, "seed": seed, "trace": args.trace,
           "attempted": 0, "failed": 0, "failures": [], "metrics": {},
           "samples": {}, "info": {}, "not_exercised": []}
    merged = {}
    for p in parts:
        if p is None:
            rec["attempted"] += 1
            rec["failed"] += 1
            rec["failures"].append("benchmark process failed")
            continue
        rec["attempted"] += p["attempted"]
        rec["failed"] += p["failed"]
        rec["failures"] += p["failures"]
        merged.update(p["metrics"])
        rec["samples"].update(p["samples"])
        rec["info"].update(p["info"])

    if args.trace and len(parts) == 2 and None not in parts and "fail_modeled_s" in merged:
        # The direct ResilientPcg solve must charge exactly what the service
        # path charged for the same failure solve.
        rec["attempted"] += 1
        if merged["fail_modeled_s"] != merged.get("netsim.fail_modeled_s"):
            rec["failed"] += 1
            rec["failures"].append("direct and service modeled times differ")

    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = merged.get(m["name"])
        if value is None:
            # Layers this workload never calls (comm and resilience on the
            # sequential solve, for instance) read 0.
            rec["not_exercised"].append(m["name"])
            value = 0.0
        rec["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    if not args.trace and rec["not_exercised"] and None not in parts:
        rec["failed"] += 1
        rec["failures"].append("missing end-to-end metrics: " + ", ".join(rec["not_exercised"]))
    # Everything else measured (wall seconds of the solves, for one) stays
    # in the result file.
    rec["extra"] = {k: v for k, v in merged.items() if k not in rec["metrics"]}
    rec["correct"] = rec["failed"] == 0

    if args.trace and None not in parts:
        spans = {"runner": parts[0]["spans"], "layers": parts[1]["spans"]}
        rec["self_time_ms"] = {k: self_times(v) for k, v in spans.items()}
        path = RESULTS / f"{stamp}_{workload}_s{seed}.trace.json"
        with open(path, "w") as f:
            json.dump(spans, f)
        rec["trace_file"] = str(path.relative_to(ROOT))
    return rec


def print_run(rec):
    tag = f"{rec['workload']} seed={rec['seed']}"
    for name, m in rec["metrics"].items():
        n = len(rec["samples"].get(name, []))
        count = f" (median of {n})" if n > 1 else ""
        off = " (not exercised)" if name in rec["not_exercised"] else ""
        print(f"{tag} {name} = {m['value']:.6g} {m['unit']}{count}{off}")
    for name in ("setup_wall_s", "ref_solve_wall_s", "solve_wall_s", "fail_solve_wall_s"):
        if name in rec["extra"]:
            print(f"{tag} {name} = {rec['extra'][name]:.6g} s (wall time, not gated)")
    for f in rec["failures"]:
        print(f"{tag} CHECK FAILED: {f}")
    if "self_time_ms" in rec:
        rows = sorted(rec["self_time_ms"]["runner"].items(), key=lambda kv: -kv[1]["self_ms"])
        sys.stderr.write(f"{tag} self time by span (runner):\n")
        for name, r in rows[:12]:
            sys.stderr.write(f"  {name:34s} n={r['count']:6d} total={r['total_ms']:10.1f} ms"
                             f" self={r['self_ms']:10.1f} ms\n")


def summary(runs):
    """The final line: one run's metrics as is; several runs' medians, keyed
    by workload when more than one workload ran."""
    keyed = len({r["workload"] for r in runs}) > 1
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if keyed else name
            values.setdefault(key, (m["unit"], []))[1].append(m["value"])
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": statistics.median(v), "unit": u}
                    for k, (u, v) in values.items()},
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="seeds seed .. seed+runs-1")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, one repetition, untraced and traced; "
                         "checks the machinery, numbers are not comparable")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = 0

    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.smoke else (args.trace,)
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads:
            for mode in modes:
                args.trace = mode
                rec = run_one(spec, workload, seed, args, stamp)
                print_run(rec)
                runs.append(rec)

    label = args.workload + ("_smoke" if args.smoke else "_trace" if args.trace else "")
    result_file = RESULTS / f"{stamp}_{label}.json"
    with open(result_file, "w") as f:
        json.dump({"provenance": provenance(args), "runs": runs}, f, indent=1)
    sys.stderr.write(f"run.py: results in {result_file.relative_to(ROOT)}\n")

    out = summary(runs)
    if args.smoke:
        print("smoke run: tiny grids and one repetition, numbers are not comparable")
        import compare  # bench/e2e is on sys.path as the script's directory
        out["attempted"] += 1
        if compare.main([str(result_file), str(result_file)]) != 0:
            out["failed"] += 1
            out["correct"] = False
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
