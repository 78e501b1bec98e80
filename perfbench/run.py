#!/usr/bin/env python3
"""Benchmark of the ``thomae`` command line tool, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The program is the source tree next to this directory (``src/thomae``); it
needs no build step.  A workload is a fixed list of CLI jobs (workloads.py).
One client runs them as subprocesses, one after another, each job started
when the previous one has ended (a closed loop), and every report is checked
against its pinned output.

``--trace 0`` repeats the job list for at least ``--seconds`` and reports the
end-to-end metrics as medians over the passes, with tracing off.  Between
passes it times ``thomae --version``, the set-up every job pays.

``--trace 1`` first runs every job's library calls in a fresh probe process
with a span around each layer step (probe.py), then alternates untraced
passes with traced ones (tracecli.py) for at least ``--seconds``; the gap
between the two is the tracing overhead.  It reports the per-layer metrics
and writes every span to ``.perfbench/trace-WORKLOAD-seedN.json``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT_DIR = ROOT / ".perfbench"
PYTHON = sys.executable

SETUP_SAMPLES_PER_PASS = 4
JOB_TIMEOUT_S = 60

# CLI flags naming an input file -> its key in the report's "inputs" digests
INPUT_FLAGS = {"--curve": "curve", "--divisor": "divisor", "--family": "family"}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = (
    "curve.load_s", "curve.loads", "curve.self_s",
    "ffunctions.tables_s", "ffunctions.tables", "ffunctions.self_s",
    "divisors.search_s", "divisors.matrices", "divisors.matrices_per_s",
    "divisors.count_s", "divisors.counted",
    "divisors.expand_s", "divisors.emitted", "divisors.emitted_per_s",
    "divisors.brute_s", "divisors.brute_candidates", "divisors.brute_hit_ratio",
    "divisors.self_s",
    "operators.apply_s", "operators.applications",
    "operators.swap_probe_s", "operators.swap_probes", "operators.swap_hits",
    "operators.swap_hit_ratio", "operators.swap_apply_s", "operators.self_s",
    "denominators.h_s", "denominators.h_built", "denominators.h_pairs",
    "denominators.g_s", "denominators.g_built", "denominators.q_s", "denominators.q_built",
    "denominators.shift_s", "denominators.shifts",
    "denominators.eval_s", "denominators.evaluations", "denominators.self_s",
    "orbits.build_graph_s", "orbits.vertices", "orbits.edges", "orbits.edges_per_s",
    "orbits.components_s", "orbits.components",
    "orbits.count_family_s", "orbits.family_rows", "orbits.self_s",
    *(f"verify.{check}_s" for check in workloads.VERIFY_CHECKS),
    "verify.checks", "verify.findings", "verify.self_s",
    "cli.main_s", "cli.self_s", "cli.jobs", "cli.output_bytes", "cli.process_overhead_s",
    "trace.wall_s", "trace.overhead_s", "trace.spans",
)
# rate and ratio metrics: name -> (numerator, denominator)
DERIVED = {
    "divisors.matrices_per_s": ("divisors.matrices", "divisors.search_s"),
    "divisors.emitted_per_s": ("divisors.emitted", "divisors.expand_s"),
    "divisors.brute_hit_ratio": ("divisors.brute_valid", "divisors.brute_candidates"),
    "operators.swap_hit_ratio": ("operators.swap_hits", "operators.swap_probes"),
    "orbits.edges_per_s": ("orbits.edges", "orbits.build_graph_s"),
}


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class SetupError(RuntimeError):
    """The program cannot be run from this checkout; no result is printed."""


@dataclass
class Outcome:
    """One finished child process."""

    wall: float
    cpu: float
    rss_mib: float
    code: int
    stdout: Path
    stderr: str


def _sha16(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


class Bench:
    def __init__(self, workdir: Path):
        self.work = workdir
        # Children get the interpreter's defaults, as in a user's shell: cached
        # bytecode and buffered stdout, whatever PYTHON* settings the caller has.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)
        self.version = ""
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], stdout: Path) -> Outcome:
        """Run one child to completion; its CPU and peak RSS come from wait4."""
        err_path = self.work / "stderr"
        with open(stdout, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.daemon = True
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       proc.returncode, stdout, err_path.read_text(errors="replace"))

    def judge(self, name: str, outcome: Outcome, problems: list[str]) -> bool:
        """Count one attempted job; it fails on a non-zero exit, any stderr
        output, or any difference from its pinned output."""
        self.attempted += 1
        if outcome.code != 0:
            problems.insert(0, f"exit status {outcome.code}")
        if outcome.stderr:
            problems.insert(0, f"stderr: {outcome.stderr.strip()[:300]}")
        if problems:
            self.failed += 1
            print(f"FAILED {name}: {'; '.join(problems[:5])}", file=sys.stderr)
        return not problems

    def report_problems(self, job: workloads.Job, outcome: Outcome) -> list[str]:
        if outcome.code != 0:
            return []
        try:
            report = json.loads(outcome.stdout.read_text(encoding="utf-8"))
        except ValueError:
            return ["stdout is not a JSON report"]
        if not isinstance(report, dict):
            return ["stdout is not a JSON object"]
        inputs = {INPUT_FLAGS[flag]: _sha16(path)
                  for flag, path in zip(job.argv, job.argv[1:]) if flag in INPUT_FLAGS}
        meta = {"version": self.version, "inputs": inputs}
        problems = [f"{key}: got {report.get(key)!r}, want {want!r}"
                    for key, want in meta.items() if report.get(key) != want]
        try:
            return problems + job.check(report)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return problems + [f"report has an unexpected shape: {exc!r}"]

    def warm_up(self) -> None:
        """Check that the CLI imports from this checkout and let the interpreter
        write its bytecode caches before anything is timed."""
        if not (SRC / "thomae" / "cli.py").is_file():
            raise SetupError(f"no program source at {SRC / 'thomae'}")
        probe = self.spawn([PYTHON, "-c", "import thomae.cli; print(thomae.cli.__file__)"],
                           self.work / "where.out")
        where = probe.stdout.read_text().strip()
        if probe.code != 0 or Path(where).resolve() != (SRC / "thomae" / "cli.py").resolve():
            raise SetupError(f"thomae.cli does not import from {SRC}: {where or probe.stderr}")
        version = self.spawn([PYTHON, "-m", "thomae.cli", "--version"],
                             self.work / "version.out")
        self.version = version.stdout.read_text().strip()
        if version.code != 0 or not self.version or version.stderr:
            raise SetupError(f"thomae --version failed: {version.stderr.strip()}")

    def setup_sample(self) -> float:
        outcome = self.spawn([PYTHON, "-m", "thomae.cli", "--version"], self.work / "version.out")
        got = outcome.stdout.read_text().strip()
        self.judge("--version", outcome, [] if got == self.version else [f"version {got!r}"])
        return outcome.wall

    def cli_pass(self, jobs: list[workloads.Job], rec: spans.Recorder | None = None):
        """Run the job list once; returns (wall, summed child CPU, peak child RSS,
        summed stdout bytes, spans of traced children)."""
        outcomes, traced = [], []
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            out = self.work / f"job{i}.out"
            if rec is None:
                outcomes.append(self.spawn([PYTHON, "-m", "thomae.cli", *job.argv], out))
                continue
            span_file = self.work / f"job{i}.spans.json"
            with rec.span("cli.job") as s:
                argv = [PYTHON, str(HERE / "tracecli.py"), str(span_file), rec.run, s.id, "--",
                        *job.argv]
                outcomes.append(self.spawn(argv, out))
            traced.append(span_file)
        wall = time.perf_counter() - start
        for job, outcome in zip(jobs, outcomes):
            self.judge(job.name, outcome, self.report_problems(job, outcome))
        children = [s for path in traced if path.exists() for s in spans.load(str(path))]
        return (wall, sum(o.cpu for o in outcomes), max(o.rss_mib for o in outcomes),
                sum(o.stdout.stat().st_size for o in outcomes), children)

    def probe(self, job: workloads.Job, index: int, rec: spans.Recorder) -> list[spans.Span]:
        """The job's layer calls in a fresh process; checks its pinned work counters."""
        plan_path = self.work / f"plan{index}.json"
        plan_path.write_text(json.dumps(job.plan), encoding="utf-8")
        span_file = self.work / f"probe{index}.spans.json"
        with rec.span("probe.job") as s:
            outcome = self.spawn([PYTHON, str(HERE / "probe.py"), str(plan_path), str(span_file),
                                  rec.run, s.id], self.work / f"probe{index}.out")
        found = spans.load(str(span_file)) if outcome.code == 0 else []
        problems = [f"{key}: got {total(found, key)}, want {want}"
                    for key, want in job.expect.items() if found and total(found, key) != want]
        self.judge(f"probe {job.name}", outcome, problems)
        return found


def total(found: list[spans.Span], metric: str) -> float:
    """A metric summed over spans: ``layer.step_s`` is the time of the spans
    named ``layer.step``, ``layer.self_s`` their layer's self time, and any
    other ``layer.counter`` the sum of that work counter."""
    layer, _, key = metric.partition(".")
    if key == "self_s":
        own = spans.self_seconds(found)
        return sum(own[s.id] for s in found if s.layer == layer)
    if key.endswith("_s"):
        return sum(s.seconds for s in found if s.name == f"{layer}.{key[:-2]}")
    return sum(s.work.get(key, 0) for s in found if s.layer == layer)


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(bench: Bench, jobs: list[workloads.Job], seconds: float) -> dict:
    walls, cpus, peaks, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        setups += [bench.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        wall, cpu, peak, _, _ = bench.cli_pass(jobs)
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "peak_rss_mb": peaks}
    for name, values in samples.items():
        print(f"  {name:<13} {statistics.median(values):12.6f} {unit(name):<5} median of "
              f"{len(values)} (min {min(values):.6f}, max {max(values):.6f})")
    return {name: statistics.median(values) for name, values in samples.items()}


def traced(bench: Bench, jobs: list[workloads.Job], seconds: float, trace_path: Path) -> dict:
    rec = spans.Recorder(f"{os.getpid()}-{time.time_ns()}")
    deadline = time.perf_counter() + seconds
    found: list[spans.Span] = []
    untraced_walls, traced_walls, mains, selfs, out_bytes = [], [], [], [], []
    with rec.span("run"):
        probed = [s for i, job in enumerate(jobs) for s in bench.probe(job, i, rec)]
        found += probed
        while not traced_walls or time.perf_counter() < deadline:
            untraced_walls.append(bench.cli_pass(jobs)[0])
            wall, _, _, size, children = bench.cli_pass(jobs, rec)
            traced_walls.append(wall)
            out_bytes.append(size)
            own = spans.self_seconds(children)
            mains.append(sum(s.seconds for s in children if s.name == "cli.main"))
            selfs.append(sum(own[s.id] for s in children if s.name == "cli.main"))
            found += children
    found += rec.spans
    OUTPUT_DIR.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps([s.__dict__ for s in found]), encoding="utf-8")

    metrics = {name: total(probed, name) for name in PER_LAYER
               if name.split(".")[0] not in ("cli", "trace") and name not in DERIVED}
    for name, (num, den) in DERIVED.items():
        base = total(probed, den)
        metrics[name] = total(probed, num) / base if base else 0.0
    untraced = statistics.median(untraced_walls)
    main_s = statistics.median(mains)
    metrics.update({
        "cli.main_s": main_s,
        "cli.self_s": statistics.median(selfs),
        "cli.jobs": len(jobs),
        "cli.output_bytes": statistics.median(out_bytes),
        "cli.process_overhead_s": untraced - main_s,
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_s": statistics.median(traced_walls) - untraced,
        "trace.spans": len(found),
    })
    metrics = {name: metrics[name] for name in PER_LAYER}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:16.6f} {unit(name)}")
    print(f"  ({len(traced_walls)} traced and {len(untraced_walls)} untraced passes; "
          f"spans in {trace_path.relative_to(ROOT)})")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[Bench, dict]:
    workdir = OUTPUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workdir)
        bench.warm_up()
        paths, lams = workloads.write_inputs(workdir / "inputs", seed)
        jobs = workloads.WORKLOADS[name](paths, seed, lams)
        print(f"{name}: {len(jobs)} jobs, seed {seed}, {seconds:g} s, trace {trace}")
        if trace:
            metrics = traced(bench, jobs, seconds, OUTPUT_DIR / f"trace-{name}-seed{seed}.json")
        else:
            metrics = end_to_end(bench, jobs, seconds)
            print(f"  {'fail_ratio':<13} {bench.failed / bench.attempted:12.6f} fraction "
                  f"({bench.failed} failed of {bench.attempted} jobs)")
        return bench, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            bench, found = run_workload(name, args.seed, args.seconds, args.trace)
            attempted += bench.attempted
            failed += bench.failed
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({f"{prefix}{key}": {"value": value, "unit": unit(key)}
                            for key, value in found.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
