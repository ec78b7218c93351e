"""ypfa benchmark: one workload, measured in process through ypfa.cli.main.

    python3 bench/run.py --workload {verify,closed-forms} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
src/ directory. After one untimed warm-up pass, passes over the workload's
job list repeat in a closed loop for --seconds. With --trace 0 the last
stdout line carries the end-to-end metrics (setup_s, pass_s, cpu_s,
peak_rss_mib); with --trace 1, untraced and traced passes alternate and it
carries the per-layer metrics of the traced passes. The line before it is a
record of the seed, input hashes, environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from workloads import WORKLOADS, run_job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 11
#: The CLI's default. With a 2-process pool on a 2-vCPU machine, wall time
#: follows how much of the second vCPU the host lends: over ten runs the
#: figures pass_s spread (IQR / median) was 0.40 while its cpu_s spread was
#: 0.09. The pool is still exercised by the figures reference run.
WORKERS = 1
SETUP_PROBE = "import time, ypfa.cli; ypfa.cli.build_parser(); print(time.monotonic())"


def setup_seconds() -> float:
    """Fresh interpreter until ``import ypfa.cli`` and ``build_parser()``
    are done. CLOCK_MONOTONIC is shared by all processes, so the child's
    reading is comparable with ours."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - start


def children_maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mib(children_before: int) -> float:
    """Largest peak RSS of this process, or of a child reaped since
    ``children_before`` was read if one set a new high (ru_maxrss is KiB
    and only ever grows, so set-up children are left out this way)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = children_maxrss()
    return max(own, children if children > children_before else 0) / 1024.0


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "ypfa_workers": WORKERS, "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark's checkout usually has no .git and must not look above it)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            return next(line.split()[0] for line in handle if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown"


class Runner:
    """Runs passes over one workload and keeps the job tally."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.group_walls: dict[str, list[float]] = {}

    def run_pass(self) -> tuple[float, float]:
        """Jobs in order, each after the previous one ends; (wall s, CPU s)."""
        wall = cpu = 0.0
        groups: dict[str, float] = {}
        for job in self.workload.jobs:
            job_wall, job_cpu, problems = run_job(job)
            wall += job_wall
            cpu += job_cpu
            if job.group:
                groups[job.group] = groups.get(job.group, 0.0) + job_wall
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {self.workload.name}/{job.name}: {'; '.join(problems[:3])}",
                      file=sys.stderr)
        for group, group_wall in groups.items():
            self.group_walls.setdefault(group, []).append(group_wall)
        return wall, cpu


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    walls, cpus = [], []
    children_before = children_maxrss()
    runner.group_walls.clear()  # forget the warm-up pass
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
    metrics = {"pass_s": (statistics.median(walls), "s"),
               "cpu_s": (statistics.median(cpus), "s"),
               "peak_rss_mib": (peak_rss_mib(children_before), "MiB")}
    return metrics, {"passes": len(walls), "pass_s_samples": walls, "cpu_s_samples": cpus,
                     "group_pass_s_samples": runner.group_walls}


def format_spans(spans: list[list]) -> str:
    """Spans of one pass as TSV, times in seconds from the pass's first span."""
    origin = spans[0][1] if spans else 0.0
    lines = ["index\tparent\tname\tstart_s\tend_s"]
    lines += [f"{index}\t{parent}\t{name}\t{begin - origin:.9f}\t{end - origin:.9f}"
              for index, (name, begin, end, parent) in enumerate(spans)]
    return "\n".join(lines) + "\n"


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced passes alternate, so drift hits both alike."""
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    spans_text = ""
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass()[0])
        tracer.install()
        try:
            traced.append(runner.run_pass()[0])
        finally:
            tracer.uninstall()
        pass_metrics, spans = tracer.take()
        layers.append(pass_metrics)
        if not spans_text:
            # kept as text: a list of span lists would slow the garbage
            # collector, and so the untraced passes, for the rest of the run
            spans_text = format_spans(spans)
        del spans
    metrics = {}
    deterministic = True
    for name, unit in tracing.metric_units().items():
        values = [m[name] for m in layers]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            metrics[name] = (values[0], unit)
            deterministic = deterministic and len(set(values)) == 1
    untraced, with_trace = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.traced_pass_s"] = (with_trace, "s")
    metrics["trace.overhead_s"] = (with_trace - untraced, "s")
    spans_path = os.path.join(OUT, f"spans-{runner.workload.name}.tsv")
    with open(spans_path, "w", encoding="utf-8") as handle:
        handle.write(spans_text)
    return metrics, {"passes": len(plain), "traced_passes": len(traced),
                     "counts_deterministic": deterministic,
                     "missing_targets": tracer.missing,
                     "spans_file": os.path.relpath(spans_path, ROOT)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ypfa", "cli.py")):
        print(f"error: no ypfa sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["YPFA_WORKERS"] = str(WORKERS)
    import ypfa.cli
    if not os.path.abspath(ypfa.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported ypfa from {ypfa.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        # setup_s is an end-to-end metric, so a traced run does not sample it
        setup = [] if args.trace else [setup_seconds() for _ in range(SETUP_SAMPLES)]
        workload = WORKLOADS[args.workload](args.seed, tmp)
        runner = Runner(workload)
        runner.run_pass()  # warm-up: imports, caches, page cache
        if args.trace:
            metrics, samples = measure_layers(runner, args.seconds)
        else:
            metrics, samples = measure_end_to_end(runner, args.seconds)
            metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
        caught = workload.corrupt()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    error_rate = runner.failed / runner.attempted
    correct = (runner.failed == 0 and bool(caught)
               and samples.get("counts_deterministic", True))
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload:8s} {name:42s} {shown} {unit}")
    for group, walls in samples.get("group_pass_s_samples", {}).items():
        print(f"{args.workload:8s} {group + ' pass_s (part of pass_s)':42s} "
              f"{statistics.median(walls):.6g} s")
    print(f"{args.workload:8s} {'error_rate':42s} {error_rate:.6g} ratio "
          f"({runner.failed} of {runner.attempted} jobs failed)")
    record = {
        "workload": args.workload, "seed": args.seed, "seed_applies": workload.seed_applies,
        "inputs_sha256": workload.inputs, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(), "warmup_passes": 1,
        "setup_s_samples": setup, **samples, "error_rate": error_rate,
        "self_check": {"corrupted_output_caught": bool(caught), "problems": caught[:3]},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
