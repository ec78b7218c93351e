"""Fold bench/run.py outputs of a parent commit and a change into BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 16 --claim closed-forms:pass_s \\
        --parent runs/parent-*.txt --change runs/change-*.txt

Each input file is the standard output of one ``bench/run.py --trace 0``
run. Only its last two lines are read: the ``{"record": ...}`` line (for the
workload, seed and environment) and the result line (for ``correct``,
``failed`` / ``attempted`` and the metrics). A parent run and a change run of
the same workload and seed form a pair; every run must have its partner.

For each workload and each end-to-end metric of BENCHMARK.json the file
holds both sides' median and quartiles, every pair's values, the number of
pairs the change wins (ties count for neither side) and the change of the
median as a fraction of the parent's, signed so that a positive value is a
gain, beside the metric's bound. A ``--claim WORKLOAD:METRIC`` is met when
the change wins at least nine tenths of the pairs and its median is better
by more than the distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_run(path: str) -> dict:
    """The record and result lines of one bench/run.py output."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    try:
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        return {"path": path, "workload": record["workload"], "seed": record["seed"],
                "environment": record["environment"], "correct": result["correct"],
                "failed": result["failed"], "attempted": result["attempted"],
                "metrics": metrics}
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"{path}: not a bench/run.py output ({exc!r})") from None


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def pair_runs(parent: list[dict], change: list[dict]) -> dict[str, list[tuple[dict, dict]]]:
    """{workload: [(parent run, change run), ...]} matched on (workload, seed)."""
    sides = []
    for runs in (parent, change):
        keyed = {}
        for run in runs:
            key = (run["workload"], run["seed"])
            if key in keyed:
                raise SystemExit(f"{run['path']}: a second run of {key} on one side")
            keyed[key] = run
        sides.append(keyed)
    unpaired = sorted(set(sides[0]) ^ set(sides[1]))
    if unpaired:
        raise SystemExit(f"runs without a partner on the other side: {unpaired}")
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for key in sorted(sides[0]):
        pairs.setdefault(key[0], []).append((sides[0][key], sides[1][key]))
    return pairs


def compare(pairs: list[tuple[dict, dict]], metric: dict) -> dict:
    """One end-to-end metric of one workload over its pairs."""
    name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
    before = [p["metrics"][name] for p, _ in pairs]
    after = [c["metrics"][name] for _, c in pairs]
    parent, change = summary(before), summary(after)
    gain = sign * (parent["median"] - change["median"])
    return {"unit": metric["unit"], "bound": metric["bound"], "parent": parent,
            "change": change, "pairs": [[b, a] for b, a in zip(before, after)],
            "change_wins": sum(sign * (b - a) > 0.0 for b, a in zip(before, after)),
            "median_gain_fraction": gain / parent["median"] if parent["median"] else 0.0,
            "gain_exceeds_parent_iqr": gain > parent["q3"] - parent["q1"]}


def build(pr: int, parent: list[dict], change: list[dict], benchmark: dict,
          claims: list[str]) -> dict:
    pairs = pair_runs(parent, change)
    workloads = {}
    for workload, runs in pairs.items():
        workloads[workload] = {
            "seeds": [p["seed"] for p, _ in runs],
            "correct": {"parent": all(p["correct"] for p, _ in runs),
                        "change": all(c["correct"] for _, c in runs)},
            "failed_of_attempted": {
                "parent": [sum(p["failed"] for p, _ in runs), sum(p["attempted"] for p, _ in runs)],
                "change": [sum(c["failed"] for _, c in runs), sum(c["attempted"] for _, c in runs)]},
            "metrics": {m["name"]: compare(runs, m) for m in benchmark["end_to_end"]},
        }
    verdicts = []
    for claim in claims:
        workload, _, name = claim.partition(":")
        if workload not in workloads or name not in workloads[workload]["metrics"]:
            raise SystemExit(f"claim {claim!r} names no measured workload and metric")
        entry = workloads[workload]["metrics"][name]
        count = len(workloads[workload]["seeds"])
        verdicts.append({"workload": workload, "metric": name, "pairs": count,
                         "change_wins": entry["change_wins"],
                         "met": (entry["change_wins"] >= 0.9 * count
                                 and entry["gain_exceeds_parent_iqr"])})
    environment = dict(parent[0]["environment"])
    commits = {"parent": environment.pop("git_commit", "unknown"),
               "change": change[0]["environment"].get("git_commit", "unknown")}
    return {"pr": pr, "command": benchmark["command"], "environment": environment,
            "commits": commits, "claims": verdicts, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True, help="parent run outputs")
    parser.add_argument("--change", nargs="+", required=True, help="change run outputs")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--output", help="default: BENCH_<pr>.json in the repository root")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    folded = build(args.pr, [read_run(p) for p in args.parent],
                   [read_run(p) for p in args.change], benchmark, args.claim)
    output = args.output or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(output, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(folded, handle, indent=2)
        handle.write("\n")
    for verdict in folded["claims"]:
        print(f"{verdict['workload']} {verdict['metric']}: change wins "
              f"{verdict['change_wins']} of {verdict['pairs']} pairs, "
              f"claim {'met' if verdict['met'] else 'NOT met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
