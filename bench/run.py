"""cutcheck benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload appmem|cuts|checks|all --seed N --seconds S --trace 0|1

Every job is one call of ``cutcheck.cli.main(argv)`` with ``--json``, made
in this process with stdout captured: one client, one job at a time (a
closed loop).  The seeded inputs and their references are generated once
per run.  A *pass* is a fresh import of ``cutcheck`` (so no cache survives
from one pass to the next) and the writing of the program and spec files
into a fresh directory (together the set-up), then every job of the workload
in order.

Times are *reference-speed seconds*.  A shared 2-vCPU host can run the same
Python code up to twice as slowly in phases that last from seconds to
minutes, so every timed interval is bracketed by a short calibration loop
(pure Python, nothing allocated survives, garbage collector off) and scaled
by ``CAL_REF_S / calibration time``.  The raw wall times are printed too.

``--trace 0`` makes a fixed number of passes, about ``--seconds`` worth on
the reference machine, and reports the end-to-end metrics.  Each job's time
is the median over the passes; the percentiles are taken over those per-job
medians.  An untimed pass re-runs the jobs marked ``text`` without
``--json`` and checks that the text agrees with the JSON.

``--trace 1`` alternates untraced and traced passes, reports per-layer
metrics from spans recorded around every cross-module call, writes the spans
and per-job rows under ``.bench_out/``, and repeats one traced pass in a
child process with another PYTHONHASHSEED to check that every count and
every output repeats exactly.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``correct`` is true when every job's output was
checked against its reference, every failed job is a known defect listed in
``workloads.py``, and (traced) the outputs repeated under the other hash
seed.  Failed jobs are counted, not fatal.  The exit code is non-zero, with
no result line, when the benchmark itself cannot run (for example, when the
program's sources are missing).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import reference as ref
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Reference-speed seconds one untraced pass takes; a run makes
# floor(--seconds / this) passes, at least one, so that the number of
# passes, and with it every count, does not depend on the machine's speed.
NOMINAL_PASS_S = {"appmem": 4.5, "cuts": 4.0, "checks": 9.5}
LAST_PASS_START_S = 140  # no pass starts later, whatever --seconds says


# ---------------------------------------------------------------------------
# Speed calibration
# ---------------------------------------------------------------------------

CAL_N = 2_000
CAL_REF_S = 0.0015  # about the 10th percentile of calibrations on a 2-vCPU x86 host, Python 3.11


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now.  Like the program, it
    builds small objects, tuples and dicts; nothing it allocates survives."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(CAL_N):
            key = "v%d" % (i & 63)
            table[key] = _Slot(key, (i, key))
            acc += len(table[key].value)
            if i & 15 == 0:
                table = {k: v for k, v in table.items()}
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Timer:
    """Wall time of a block and the speed factor measured around it."""

    def __enter__(self):
        self.cal0 = calibrate()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.t0
        self.speed = CAL_REF_S / ((self.cal0 + calibrate()) / 2)
        return False

    @property
    def seconds(self) -> float:
        return self.wall_s * self.speed


# ---------------------------------------------------------------------------
# Jobs and passes
# ---------------------------------------------------------------------------


@dataclass
class Result:
    rc: object  # exit code, None when the job raised
    stdout: str
    error: object  # None, or what the job raised
    wall_s: float
    seconds: float  # reference-speed seconds


def fresh_cli():
    """Import ``cutcheck.cli`` anew, dropping every module of an earlier import."""
    for name in [m for m in sys.modules if m == "cutcheck" or m.startswith("cutcheck.")]:
        del sys.modules[name]
    return importlib.import_module("cutcheck.cli")


def setup(built, workdir: Path):
    """Import the program and write its input files."""
    cli = fresh_cli()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for name, text in built.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return cli


def argv_of(job, files, workdir: Path, as_json: bool) -> list:
    argv = [str(workdir / a) if a in files else a for a in job.args]
    return argv + ["--json"] if as_json else argv


def run_job(main, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = rc = None
    with Timer() as timer:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            error = f"SystemExit({exc.code}): {err.getvalue().strip()}"
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
    return Result(rc, out.getvalue(), error, timer.wall_s, timer.seconds)


def judge(job, res: Result, as_json=True):
    """(class, note, normalised outcome or None) for one job's result."""
    if res.error is not None:
        return ref.FAILED, res.error, None
    try:
        parse = ref.outcome_from_json if as_json else ref.outcome_from_text
        outcome = parse(job.command, res.stdout)
    except ref.Unreadable as exc:
        return ref.FAILED, str(exc), None
    cls, note = ref.classify(job, res.rc, outcome)
    return cls, note, outcome


@dataclass
class Pass:
    setup: Timer
    jobs: list
    results: list  # one Result per job

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)


def timed_pass(built, workdir, tracer=None) -> Pass:
    gc.collect()  # free the previous pass's modules before this pass allocates
    with Timer() as timer:
        cli = setup(built, workdir)
    main = cli.main
    if tracer is not None:
        tracer.install(layers.trace_hooks(tracer))
        main = tracer.span("cli.main", main)
    results = []
    for job in built.jobs:
        if tracer is not None:
            tracer.begin_job(job.id)
        results.append(run_job(main, argv_of(job, built.files, workdir, True)))
    return Pass(timer, built.jobs, results)


def text_pass(built, workdir, first: Pass):
    """Re-run the jobs the generator marked ``text`` without --json; untimed.

    A text job fails when its own outcome fails the reference rules or when
    it disagrees with the JSON outcome of the same job in the first pass.
    """
    cli = setup(built, workdir)
    checked = []
    for job, res in zip(built.jobs, first.results):
        if not job.text:
            continue
        text_res = run_job(cli.main, argv_of(job, built.files, workdir, False))
        cls, note, outcome = judge(job, text_res, as_json=False)
        j_cls, _, j_outcome = judge(job, res)
        if cls != ref.FAILED:
            if j_outcome is None or text_res.rc != res.rc or outcome != j_outcome:
                cls, note = ref.FAILED, (f"text {outcome} exit {text_res.rc} disagrees with "
                                         f"--json {j_outcome} exit {res.rc}")
            elif j_cls != ref.DECIDED:
                cls = j_cls
        checked.append((job, cls, note))
    return checked


def untraced_passes(built, workdir, count):
    """``count`` passes, or fewer when LAST_PASS_START_S has gone by."""
    start = time.perf_counter()
    out = []
    for _ in range(count):
        if out and time.perf_counter() - start > LAST_PASS_START_S:
            break
        out.append(timed_pass(built, workdir))
    return out


def pass_count(workload, seconds) -> int:
    return max(1, int(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(workload, seed, seconds, built, workdir):
    passes = untraced_passes(built, workdir, pass_count(workload, seconds))
    texts = text_pass(built, workdir, passes[0])

    jobs = passes[0].jobs
    per_job = [statistics.median(p.results[i].seconds for p in passes) for i in range(len(jobs))]
    raw = [statistics.median(p.results[i].wall_s for p in passes) for i in range(len(jobs))]
    verdicts = [(job, *judge(job, res)[:2]) for p in passes for job, res in zip(p.jobs, p.results)]
    verdicts += texts
    attempted = len(verdicts)
    failed = [(j, note) for j, cls, note in verdicts if cls == ref.FAILED]
    decided = sum(1 for _, cls, _ in verdicts if cls == ref.DECIDED)
    p50, p90 = statistics.median(per_job), percentile(per_job, 90)
    metrics = {
        "job_s_p50": (p50, "s"),
        "job_s_p90": (p90, "s"),
        "jobs_per_s": (len(jobs) / sum(per_job), "1/s"),
        "decided_ratio": (decided / attempted, "ratio"),
        "setup_s": (statistics.median(p.setup.seconds for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n, P = len(jobs), len(passes)
    lines = [
        f"workload {workload}, seed {seed}: {n} jobs x {P} passes + {len(texts)} text checks "
        f"= {attempted} attempted; times in reference-speed seconds (raw wall time in brackets)",
        f"job_s_p50 = {p50:.6f} s  (median of {n} per-job medians over {P} passes) [{statistics.median(raw):.6f}]",
        f"job_s_p90 = {p90:.6f} s  (90th percentile of {n} per-job medians; "
        f"{sum(1 for t in per_job if t > p90)} lie above it) [{percentile(raw, 90):.6f}]",
        f"jobs_per_s = {n / sum(per_job):.4f} 1/s  ({n} jobs / sum of per-job medians) [{n / sum(raw):.4f}]",
        f"decided_ratio = {decided / attempted:.4f}  ({decided} of {attempted})",
        f"failed_ratio = {len(failed) / attempted:.4f}  ({len(failed)} of {attempted})",
        f"setup_s = {metrics['setup_s'][0]:.6f} s  (median of {P} set-ups) "
        f"[{statistics.median(p.setup.wall_s for p in passes):.6f}]",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return metrics, attempted, failed, lines, []


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def determinism_record(tracer: Tracer, p: Pass) -> dict:
    """Every count of a traced pass and a digest of every job's output
    without its timing fields."""
    calls = tracer.summary()[0]
    record = {f"calls:{k}": v for k, v in calls.items()}
    record.update({f"count:{k}": v for k, v in tracer.counts.items()})
    for job, res in zip(p.jobs, p.results):
        try:
            obj = json.loads(res.stdout)
            obj.pop("timing_ms", None)
            text = json.dumps(obj, sort_keys=True)
        except ValueError:
            text = res.stdout
        digest = hashlib.sha256(f"{res.rc}\n{res.error}\n{text}".encode()).hexdigest()[:16]
        record[f"output:job{job.id}"] = digest
    return record


def mismatches(a: dict, b: dict) -> set:
    return {k for k in set(a) | set(b) if a.get(k) != b.get(k)}


def child_record(workload, seed) -> dict:
    """The determinism record of one traced pass in a child process that
    runs under another PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--determinism-probe"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"determinism probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_traced(workload, seed, seconds, built, workdir):
    # untraced/traced pairs; with the child's traced pass and the tracing
    # overhead, one pair per four untraced passes keeps to about --seconds
    pairs = max(1, pass_count(workload, seconds) // 4)
    untraced, traced, tracers = [], [], []
    for _ in range(pairs):
        untraced.append(timed_pass(built, workdir))
        tracers.append(Tracer())
        traced.append(timed_pass(built, workdir, tracers[-1]))
    record = determinism_record(tracers[0], traced[0])
    bad = set()
    for t, p in zip(tracers[1:], traced[1:]):
        bad |= mismatches(record, determinism_record(t, p))
    bad |= mismatches(record, child_record(workload, seed))

    per_pass = [layers.layer_metrics(t) for t in tracers]
    metrics = per_pass[0]
    for name, (_, unit) in list(metrics.items()):
        if unit == "s":  # times: median over the traced passes
            metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
    absent = [n for n in layers.REQUIRED if n not in tracers[0].wrapped]
    absent += [f"{n} (return value unreadable)" for n in sorted(tracers[0].unreadable)]
    verdicts = [(job, *judge(job, res)[:2]) for job, res in zip(traced[0].jobs, traced[0].results)]
    failed = [(j, note) for j, cls, note in verdicts if cls == ref.FAILED]
    overhead = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.absent_functions"] = (len(absent), "count")
    metrics["determinism.mismatches"] = (len(bad), "count")
    metrics["failed_ratio"] = (len(failed) / len(verdicts), "ratio")

    rows = job_rows(tracers[0], traced[0], untraced)
    outdir = OUT / f"trace-{workload}-s{seed}"
    tracers[0].write(outdir / "spans")
    (outdir / "rows.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    lines = [f"workload {workload}, seed {seed}: {len(untraced)} untraced + {len(traced)} traced passes "
             f"of {len(traced[0].jobs)} jobs; spans and rows in {outdir.relative_to(ROOT)}"]
    lines += rows
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if absent:
        lines.append("absent (not found in the program): " + ", ".join(absent))
    if bad:
        lines.append("determinism mismatches: " + ", ".join(sorted(bad)))
    shares = sorted(((v, k) for k, v in tracers[0].summary()[3].items()), reverse=True)
    total = sum(v for v, _ in shares) or 1.0
    lines.append("self-time share: " + ", ".join(f"{k} {100 * v / total:.0f}%" for v, k in shares))
    output_mismatches = sorted(k for k in bad if k.startswith("output:"))
    return metrics, len(verdicts), failed, lines, output_mismatches


def job_rows(tracer: Tracer, traced: Pass, untraced: list) -> list:
    """Per job: command, size, nodes built and kept (with the closed-form kept
    count where there is one) and untraced reference-speed seconds."""
    rows = ["job\tkind\tsize\tnodes_built\tnodes_kept\tkept_ref\tseconds\ts_per_built_node\tcommand"]
    for job in traced.jobs:
        counts = tracer.job_counts.get(job.id, {})
        built = counts.get("engine.nodes_built", 0)
        kept = counts.get("pruning.nodes_kept", 0)
        secs = statistics.median(u.results[job.id].seconds for u in untraced)
        per_node = f"{secs / built:.3e}" if built else "-"
        kept_ref = job.reference.get("kept", "-")
        rows.append(f"{job.id}\t{job.kind}\t{job.size[0]}={job.size[1]}\t{built}\t{kept}\t{kept_ref}\t"
                    f"{secs:.6f}\t{per_node}\t{' '.join(job.args)}")
    return rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    built = workloads.generate(args.workload, args.seed, ROOT)
    try:
        if args.determinism_probe:
            tracer = Tracer()
            p = timed_pass(built, workdir, tracer)
            print(json.dumps(determinism_record(tracer, p)))
            return 0
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, lines, problems = run(args.workload, args.seed, args.seconds, built, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for job, note in failed:
        tag = f"known defect: {job.known_defect}" if job.known_defect else "UNEXPECTED"
        lines.append(f"failed job {job.id} ({job.kind}, {tag}): {note} :: {' '.join(job.args)}")
    print("\n".join(lines))
    result = {
        "correct": not problems and all(job.known_defect for job, _ in failed),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cutcheck").is_dir() or not (ROOT / "fixtures").is_dir():
        print(f"error: src/cutcheck or fixtures/ is missing under {ROOT}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
