#!/usr/bin/env python3
"""Collects benchmark run sets and compares two of them.

    # One set: every workload of BENCHMARK.json once per seed.
    python3 perfbench/compare.py collect CHECKOUT --seeds 1:10 --out A.json

    # Parent and change on seeds 1..N, in alternating order (pair i runs
    # the parent first when i is odd); writes parent.json and change.json.
    python3 perfbench/compare.py pairs PARENT CHANGE --pairs 10 --out-dir D

    # Compare them, one row per workload and metric (--unpaired for two
    # `collect` sets, which do not alternate).
    python3 perfbench/compare.py report D/parent.json D/change.json

CHECKOUT, PARENT and CHANGE are source trees holding perfbench/run.py; the
benchmark builds each one in its own .bench_build. `report` reads the
bounds from the BENCHMARK.json next to this script and prints, for each
side, the median and quartiles of every end-to-end metric, the median
change/parent ratio (c/p), the pairs the change wins (ties count for
neither side), and a verdict. Runs are
compared pair by pair, parent and change on the same seed: the change of
a pair is its change/parent ratio, so a metric that the seed fixes (recall,
index size) changes exactly where the code does, and a timing's pair ratio
leaves out how much the seed moves it. The verdicts:

    better      the change wins at least 9 in 10 pairs and the medians
                differ by more than the parent's quartile spread;
    worse       the median pair ratio is worse than 1 by more than the
                metric's bound;
    unresolved  the quartile spread of the pair ratios exceeds the bound,
                and the change's runs do not all beat the parent's;
    same        none of the above.

It exits non-zero when a workload has fewer than 10 pairs or (without
--unpaired) pairs that did not run back to back in alternating order, when
a run failed its correctness checks, or when a metric is worse.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in `checkout`; returns its record."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.time()
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "wall_s": round(time.time() - start, 3),
            "result": result}


def write_set(path, runs):
    Path(path).write_text(json.dumps({"runs": runs}, indent=1))


def parse_seeds(text):
    first, _, last = text.partition(":")
    return range(int(first), int(last or first) + 1)


def cmd_collect(args):
    spec = load_spec()
    runs = []
    for seed in parse_seeds(args.seeds):
        for w in spec["workloads"]:
            runs.append(dict(run_once(args.checkout, w["name"], seed,
                                      spec["run_seconds"], args.trace),
                             order=len(runs)))
            write_set(args.out, runs)
    return 0


def cmd_pairs(args):
    spec = load_spec()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": [], "change": []}
    order = 0
    for seed in range(1, args.pairs + 1):
        for w in spec["workloads"]:
            first = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in first:
                checkout = args.parent if side == "parent" else args.change
                sides[side].append(dict(
                    run_once(checkout, w["name"], seed, spec["run_seconds"],
                             False), order=order))
                order += 1
            for side, runs in sides.items():
                write_set(out / f"{side}.json", runs)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_report(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [json.loads(Path(p).read_text())["runs"] for p in args.sets]
    status = 0
    for label, runs in zip(("parent", "change"), sets):
        bad = [r for r in runs if r["exit"] != 0 or not r["result"]
               or not r["result"]["correct"] or r["result"]["failed"]]
        if bad:
            print(f"{label}: {len(bad)} runs failed or were incorrect "
                  f"(e.g. {bad[0]['workload']} seed {bad[0]['seed']})")
            status = 1

    def by_seed(runs, workload):
        return {r["seed"]: r for r in runs
                if r["workload"] == workload and r["result"]
                and not r["trace"]}

    def alternating(parent, change, seeds):
        """Each pair ran back to back, the side going first alternating."""
        firsts = []
        for s in seeds:
            p, c = parent[s]["order"], change[s]["order"]
            if abs(p - c) != 1:
                return False
            firsts.append(p < c)
        return all(a != b for a, b in zip(firsts, firsts[1:]))

    print(f"{'workload':16} {'metric':18} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'c/p':>7} {'wins':>6}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        parent, change = by_seed(sets[0], w), by_seed(sets[1], w)
        seeds = sorted(set(parent) & set(change))
        if len(seeds) < MIN_PAIRS:
            print(f"{w}: only {len(seeds)} pairs (need {MIN_PAIRS})")
            status = 1
            continue
        if not args.unpaired and not alternating(parent, change, seeds):
            print(f"{w}: the pairs did not run back to back in alternating "
                  f"order (use `pairs`, or --unpaired for two sets)")
            status = 1
        for name, m in metrics.items():
            pv = [parent[s]["result"]["metrics"][name]["value"] for s in seeds]
            cv = [change[s]["result"]["metrics"][name]["value"] for s in seeds]
            lower = m["better"] == "lower"
            pq, cq = quartiles(pv), quartiles(cv)
            ratios = [c / p for p, c in zip(pv, cv)]
            rq = quartiles(ratios)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
            worse_by = (rq[1] - 1) if lower else (1 - rq[1])
            all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if (wins >= WIN_SHARE * len(seeds)
                    and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
                verdict = "better"
            elif worse_by > m["bound"]:
                verdict = "worse"
                status = 1
            elif rq[2] - rq[0] > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{w:16} {name:18} {fmt.format(pq[1], pq[0], pq[2]):34} "
                  f"{fmt.format(cq[1], cq[0], cq[2]):34} "
                  f"{rq[1]:7.4f} {wins:>3}/{len(seeds):<2}  {verdict}")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("checkout")
    p.add_argument("--seeds", default="1:10")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--out-dir", required=True)
    p = sub.add_parser("report")
    p.add_argument("sets", nargs=2, metavar="SET")
    p.add_argument("--unpaired", action="store_true",
                   help="compare two `collect` sets, not one `pairs` run")
    args = parser.parse_args()
    return {"collect": cmd_collect, "pairs": cmd_pairs,
            "report": cmd_report}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
