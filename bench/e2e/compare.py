#!/usr/bin/env python3
"""Compare two bench/e2e result sets (see bench/e2e/README.md).

    python3 bench/e2e/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories of them
(traced runs supply the per-layer metrics, untraced runs the end-to-end
ones). For every workload and end-to-end metric it prints each set's median
and quartiles, the change of NEW against BASE as a share of BASE's median
(positive = worse), the metric's bound from BENCHMARK.json, and a verdict:

  worse       NEW's median is worse by more than the bound; when a set's
              interquartile spread exceeds the bound, also every NEW run
              must read worse than every BASE run
  better      NEW's median is better by more than BASE's spread and NEW wins
              at least 9 of 10 same-seed pairs; when a set's spread exceeds
              the bound, instead every NEW run must read better than every
              BASE run
  unresolved  a set's spread exceeds the bound and the sets overlap
  same        otherwise

The modeled times on the simulated cluster (ref/ff/fail_modeled_s, the
paper's own metric) are deterministic for a seed and are gated seed by
seed, from traced and untraced runs alike: lower is better, with no
tolerance. Any rise is worse; a drop with no rise is better. Same-seed runs
within one set must agree bitwise. Other per-layer metrics are listed with
their medians and change but get no verdict. Exits 1 if any verdict is
worse or a set disagrees with itself.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


MODELED = ("ref_modeled_s", "ff_modeled_s", "fail_modeled_s")


def load(path):
    """From a result file or a directory of them:
    {(trace, workload, metric): {seed: value}} for the metrics, and
    {(workload, metric): {seed: value}} for the modeled times, which every
    distributed run reports, traced or not (under `extra` when untraced).
    Same-seed runs of one set must agree on the modeled times bitwise; a
    mismatch is listed in the third value."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out, modeled, mismatches = {}, {}, []
    for f in files:
        if f.name.endswith(".trace.json"):
            continue
        for run in json.loads(f.read_text()).get("runs", []):
            for name, m in run["metrics"].items():
                if name in run.get("not_exercised", []):
                    continue
                key = (bool(run["trace"]), run["workload"], name)
                out.setdefault(key, {})[run["seed"]] = m["value"]
            values = {k: v for k, v in run.get("extra", {}).items() if k in MODELED}
            values.update({k: m["value"] for k, m in run["metrics"].items()
                           if k in MODELED and k not in run.get("not_exercised", [])})
            for name, v in values.items():
                seeds = modeled.setdefault((run["workload"], name), {})
                if seeds.get(run["seed"], v) != v:
                    mismatches.append(f"{run['workload']} {name} seed {run['seed']}")
                seeds[run["seed"]] = v
    return out, modeled, mismatches


def stats(values):
    """(median, first quartile, third quartile), by statistics.quantiles(n=4)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, lower_better):
    """`base`/`new` map seed -> value. Returns (change, verdict)."""
    sign = 1 if lower_better else -1
    b, n = list(base.values()), list(new.values())
    mb, mn = stats(b)[0], stats(n)[0]
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    if max(spread(b), spread(n)) > bound:
        # Too noisy to read the medians, unless the sets do not overlap.
        if all(sign * x < sign * y for x in n for y in b):
            return change, "better"
        if change > bound and all(sign * x > sign * y for x in n for y in b):
            return change, "worse"
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if -change > spread(b) and (not pairs or wins >= 0.9 * len(pairs)):
        return change, "better"
    return change, "same"


def modeled_verdict(base, new):
    """Seed by seed, lower is better and nothing is tolerated."""
    pairs = [(base[s], new[s]) for s in base if s in new]
    if any(y > x for x, y in pairs):
        return "worse"
    if any(y < x for x, y in pairs):
        return "better"
    return "same (bitwise equal)"


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_modeled, base_bad), (new, new_modeled, new_bad) = load(argv[0]), load(argv[1])
    workloads = sorted({w for (_, w, _) in base} | {w for (_, w, _) in new})
    bad = 0
    for m in base_bad + new_bad:
        print(f"same-seed runs of one set differ in the modeled time: {m}")
        bad += 1
    header = f"{'workload':12s} {'metric':34s} {'base median [q1, q3]':>34s} " \
             f"{'new median [q1, q3]':>34s} {'change':>8s} {'bound':>6s} verdict"
    print(header)

    def row(w, name, b, n, tail):
        def fmt(v):
            med, q1, q3 = stats(list(v.values()))
            return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(v)}"
        print(f"{w:12s} {name:34s} {fmt(b):>34s} {fmt(n):>34s} {tail}")

    def change(b, n):
        mb, mn = stats(list(b.values()))[0], stats(list(n.values()))[0]
        return (mn - mb) / abs(mb) if mb else 0.0

    for w in workloads:
        for m in spec["end_to_end"]:
            b, n = base.get((False, w, m["name"])), new.get((False, w, m["name"]))
            if not b or not n:
                continue
            c, v = verdict(b, n, m["bound"], m["better"] == "lower")
            bad += v == "worse"
            row(w, m["name"], b, n, f"{c:+8.2%} {m['bound']:6.0%} {v}")
        for name in MODELED:
            b, n = base_modeled.get((w, name)), new_modeled.get((w, name))
            if not b or not n:
                continue
            v = modeled_verdict(b, n)
            bad += v == "worse"
            row(w, name, b, n, f"{change(b, n):+8.2%} {0:6.0%} {v}")
        for m in spec["per_layer"]:
            b, n = base.get((True, w, m["name"])), new.get((True, w, m["name"]))
            if not b or not n or m["name"] in MODELED:
                continue
            row(w, m["name"], b, n, f"{change(b, n):+8.2%} {'-':>6s} ({m['unit']})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
