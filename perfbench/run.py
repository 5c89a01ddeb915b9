"""Closed-loop benchmark of the supercat command line, driven in-process.

    python3 perfbench/run.py --workload sweep-float --seed 1 --seconds 25 --trace 0

One caller invokes ``supercat.cli.main(argv)`` for one item at a time, with
stdout and stderr captured in memory and output files in a scratch
directory, so every item covers the whole path cli -> supercatalysis ->
catalysis -> schmidt (and oracle under --verify).  Inputs come from the seed
and are generated before timing starts.  Every item's output is checked.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
host speed by the calibration kernel of calibrate.py; --trace 1 runs a fixed set of items
alternately plain and with the public functions named in spans.TRACED
wrapped in a span recorder, and prints the per-layer metrics.  The last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, kernel_seconds, rolling_median  # noqa: E402
from spans import NOTE, Tracer  # noqa: E402
from workloads import (WORKLOADS, CallResult, check_item, compare_reference,  # noqa: E402
                       invocations, make_pool)

MIN_ITEMS = 100          # so the p90 has at least ten samples beyond it
HARD_STOP_S = 120        # ends a run that cannot reach MIN_ITEMS in time
SETUP_SAMPLES = 21
# Times the import, then the calibration kernel in the same interpreter (its
# imports come after the timed one, so they cannot shorten it).
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import supercat, supercat.cli; t = time.perf_counter() - t; "
               "sys.path.insert(0, sys.argv[2]); import calibrate, statistics; "
               "print(t, statistics.median(calibrate.kernel_seconds() for _ in range(5)))")


def import_program():
    if not (SRC / "supercat" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'supercat'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import supercat.cli
    if Path(supercat.cli.__file__).resolve().parent != (SRC / "supercat").resolve():
        sys.exit(f"error: imported supercat from {supercat.cli.__file__}, not {SRC}")
    return supercat.cli


def measure_setup() -> tuple:
    """(scaled, raw) median time to import supercat and supercat.cli in a
    fresh interpreter, interpreter start excluded.  Each import is scaled to
    the reference speed by the kernel run in its own interpreter.  The first
    import, which may compile bytecode, is discarded."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-I", "-c", IMPORT_CODE, str(SRC), str(HERE)],
                             capture_output=True, text=True, timeout=60, check=True)
        t, kernel_s = map(float, out.stdout.split())
        raw.append(t)
        scaled.append(t * REFERENCE_S / kernel_s)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def reference_for(ref: dict, workload: str, item, seed: int):
    if item.bundled:
        return ref["bundled"][workload][item.key]
    if seed == ref["seed"]:
        return ref["seeded"][workload][item.key]
    return None


class Runner:
    """Runs one item's CLI invocations and checks the results."""

    def __init__(self, cli, workload: str, seed: int, out_dir: Path, reference):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.out_csv = out_dir / "sweep.csv"
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, argv) -> tuple:
        for f in self.out_dir.iterdir():
            f.unlink()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)  # looked up per call, so tracing applies
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails the item, not the benchmark
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        text = out.getvalue()
        csv = self.out_csv.read_bytes() if self.out_csv.exists() else b""
        written = len(text.encode()) + sum(f.stat().st_size for f in self.out_dir.iterdir())
        return elapsed, CallResult(code, text, csv), written

    def run(self, item) -> tuple:
        """(CLI seconds, bytes written, digest) for one item; failures are
        counted."""
        elapsed = written = 0
        results = []
        for argv in invocations(self.workload, item, str(self.out_csv)):
            dt, res, nbytes = self.call(argv)
            elapsed += dt
            written += nbytes
            results.append(res)
        problems, digest = check_item(self.workload, item, results)
        if not problems and self.reference is not None:
            ref = reference_for(self.reference, self.workload, item, self.seed)
            if ref is not None:
                problems = compare_reference(digest, ref)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{item.key}: {'; '.join(problems)}")
        return elapsed, written, digest


def pin_to_one_cpu() -> int:
    """Run on the highest-numbered CPU this process may use.  One CPU means
    no migrations, and CPU 0 usually takes the most interrupts and
    housekeeping, so timings spread less from run to run."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def latency_metrics(latencies: list) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "item_p90_ms": (1e3 * deciles[8], "ms"),
    }


def end_to_end(runner: Runner, pool: list, seconds: float, setup_s: float) -> tuple:
    """(metrics, raw metrics, number of items timed).

    Each item is followed by one run of the calibration kernel (not timed as
    part of the item).  An item's latency is scaled to the reference speed
    by the rolling median of the kernel times around it, so a drift in the
    host's speed cancels while a change in the program's work does not."""
    for item in pool[:2]:
        runner.run(item)  # warm-up (checked, not timed): lazy imports, first files
        kernel_seconds()
    latencies, kernel_times = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(latencies) >= MIN_ITEMS or elapsed >= HARD_STOP_S):
            break
        latencies.append(runner.run(pool[len(latencies) % len(pool)])[0])
        kernel_times.append(kernel_seconds())
    scaled = [t * REFERENCE_S / k for t, k in zip(latencies, rolling_median(kernel_times))]
    metrics = latency_metrics(scaled)
    metrics.update({
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    })
    raw = latency_metrics(latencies)
    raw["kernel_ms"] = (1e3 * statistics.median(kernel_times), "ms")
    return metrics, raw, len(latencies)


def per_layer(runner: Runner, pool: list, seconds: float, trace_file: Path) -> tuple:
    """Alternate plain and traced passes over a fixed item set; returns
    (metrics, problems).  Counts must repeat exactly across traced passes."""
    spec = WORKLOADS[runner.workload]
    items = pool[:spec.trace_items]
    runner.run(items[0])  # warm-up
    passes = []
    start = time.perf_counter()
    pass_s = 0.0
    # at least two traced passes; no pass is started that would overrun
    while len(passes) < 2 or time.perf_counter() - start + pass_s < seconds:
        pass_start = time.perf_counter()
        plain = sum(runner.run(item)[0] for item in items)
        tracer = Tracer()
        written = 0
        with tracer:
            for item in items:
                tracer.begin_item()
                written += runner.run(item)[1]
        metrics, traced = tracer.summarize(len(items), spec.sweep_points)
        metrics["cli.bytes_out"] = (written / len(items), "bytes")
        metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
        if not passes:
            tracer.write(trace_file)
        passes.append(metrics)
        pass_s = time.perf_counter() - pass_start

    problems = [f"traced pass {i}: {name} = {m[name][0]} != {passes[0][name][0]}"
                for i, m in enumerate(passes[1:], start=2)
                for name in m if name.endswith(".calls") and m[name] != passes[0][name]]
    merged = {name: (statistics.median(m[name][0] for m in passes), unit)
              for name, (_, unit) in passes[0].items()}
    return merged, problems


def git_sha() -> str:
    """HEAD of the checkout's own .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unavailable (packed ref)"


def source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "supercat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    cpu = pin_to_one_cpu()
    setup_s, raw_setup_s = measure_setup() if args.trace == 0 else (None, None)
    pool = make_pool(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(cli, args.workload, args.seed, out_dir, load_reference())
        if args.trace:
            trace_file = WORK / f"spans-{args.workload}.tsv"  # one per workload, overwritten
            metrics, trace_problems = per_layer(runner, pool, args.seconds, trace_file)
            runner.problems += trace_problems
        else:
            metrics, raw, timed = end_to_end(runner, pool, args.seconds, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "platform": platform.platform(),
        "pool_items": len(pool), "attempted": runner.attempted, "failed": runner.failed,
        "failed_base": "items attempted", "setup_s": setup_s,
        "setup_samples": SETUP_SAMPLES if setup_s is not None else 0,
        "loop": "closed, one caller, in-process", "argv_example": invocations(
            args.workload, pool[0], "<out>/sweep.csv"),
    }
    if not args.trace:
        provenance["timed_items"] = timed
        provenance["time_scale"] = (f"times scaled to the speed at which the calibration kernel "
                                    f"takes {1e3 * REFERENCE_S} ms")
        provenance["unscaled"] = {name: value for name, (value, _) in raw.items()}
        provenance["unscaled"]["setup_s"] = raw_setup_s
    else:
        provenance["trace_items"] = WORKLOADS[args.workload].trace_items
        provenance["spans_file"] = str(trace_file.relative_to(ROOT))
        provenance["note"] = NOTE
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in runner.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
