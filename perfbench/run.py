#!/usr/bin/env python3
"""Run one workload of the kacz benchmark and print its metrics.

    python3 perfbench/run.py --workload pursuit-volume --seed 1 --seconds 20 --trace 0

Drives the `kacz` CLI in-process through kacz.cli.main, on inputs generated
from --seed, checking every op's output. Every end-to-end time is scaled to
a reference machine speed, measured by a calibration loop run next to each
op (see calibration_seconds). A run lasts about --seconds of timed ops at
that speed, to the nearest whole pass, and at least 11 ops, so op_tail_s
exists. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics for --trace 1. The lines before it give every metric by name and
unit, the same times as measured, the op tail's percentile and sample
count, and the run's provenance. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
#: BLAS/OpenMP pools are pinned to one thread: the benchmark is one
#: single-threaded process, and 1 <= nproc on every machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fewest set-up probes per run; one runs before the first timed pass
#: and one after every pass, so they sample the whole run.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_OPS = 11
#: Nominal duration of one calibration_seconds() call, in seconds: about
#: its median on the 2-core Xeon VM on which the baseline was recorded.
#: Every gated time is scaled by CAL_REF_S over the calibrations next to it.
CAL_REF_S = 0.040

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("ok_ops_per_s", "1/s"), ("steps_per_s", "1/s"),
    ("op_p50_s", "s"), ("op_tail_s", "s"), ("peak_rss_mb", "MB"),
]


@dataclass
class OpResult:
    kind: str
    seconds: float
    steps: int
    bytes_out: int
    outcome: object
    #: `seconds` at the reference speed (see run_calibrated); None when
    #: the op ran without calibrations around it.
    ref_seconds: float | None = None

    @property
    def ok(self) -> bool:
        return self.outcome.ok


def run_op(op) -> OpResult:
    import kacz.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kacz.cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        code = f"exception {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    outcome = op.check(code, text)
    if not outcome.ok and err.getvalue().strip():
        outcome.problems.append("stderr: " + err.getvalue().strip().splitlines()[-1])
    return OpResult(op.kind, seconds, op.steps, len(text.encode()), outcome)


def calibration_seconds() -> float:
    """Time a fixed mix of interpreter and small-numpy work, the kind a
    pursuit step does (loop arithmetic, a 10x3 QR, a 15x10 mat-vec). The
    machine's speed shifts by tens of percent from second to second;
    dividing an op's time by the calibrations on either side of it takes
    most of that shift out. Nothing of kacz runs here."""
    import numpy as np

    a = np.arange(150.0).reshape(15, 10) / 150.0
    start = time.perf_counter()
    total = 0
    for i in range(320_000):
        total += i * i
    for k in range(800):
        q, _ = np.linalg.qr(a[k % 13:k % 13 + 3].T)
        total += int(np.argmax(a @ q[:, 0]))
    return time.perf_counter() - start


def run_calibrated(ops) -> list[OpResult]:
    """Run `ops` with a calibration before the first and after each one,
    and set each result's ref_seconds: its time scaled by CAL_REF_S over
    the mean of the two calibrations next to it."""
    results, before = [], calibration_seconds()
    for op in ops:
        result = run_op(op)
        after = calibration_seconds()
        result.ref_seconds = result.seconds * CAL_REF_S / ((before + after) / 2)
        results.append(result)
        before = after
    return results


def more_passes(pass_times: list[float], seconds: float) -> bool:
    """Whether another pass brings the timed total nearer to `seconds`:
    a run stops at the pass boundary nearest to it, so its length does not
    overshoot by up to a whole pass."""
    if not pass_times:
        return True
    return sum(pass_times) + statistics.mean(pass_times) / 2 < seconds


def measure(workload, seed: int, run_dir: str, seconds: float, min_ops: int, after_pass):
    """Whole passes until about `seconds` of timed ops at the reference
    speed (see more_passes) and at least `min_ops` ops are done, calling
    `after_pass` after each. Counting scaled time keeps the number of
    passes, and so which op is op_tail_s, from following the machine's
    speed. Input generation is not timed."""
    results, pass_times = [], []
    while more_passes(pass_times, seconds) or len(results) < min_ops:
        done = run_calibrated(workload.make_pass(seed, len(pass_times), run_dir))
        results += done
        pass_times.append(sum(r.ref_seconds for r in done))
        after_pass()
    return results, pass_times


def measure_traced(workload, seed: int, run_dir: str, seconds: float, tracer):
    """Each pass twice, untraced and then traced, until about `seconds` of
    untraced op time are done. Alternating the two lets the overhead ratio
    compare passes that met the same machine speed."""
    results, pass_times, plain_times = [], [], []
    while more_passes(plain_times, seconds):
        index = len(plain_times)
        plain = [run_op(op) for op in workload.make_pass(seed, index, run_dir)]
        plain_times.append(sum(r.seconds for r in plain))
        ops = workload.make_pass(seed, index, run_dir)
        tracer.install()
        try:
            done = [run_op(op) for op in ops]
        finally:
            tracer.uninstall()
        results += done
        pass_times.append(sum(r.seconds for r in done))
    return results, pass_times, plain_times


def probe_setup(workload_name: str) -> int:
    """Set-up in this fresh process: import kacz, then run the warm-up ops
    (which the measuring process runs before timing starts). A calibration
    follows, so the time can be scaled to the reference speed; it runs
    after, not before, so that numpy's import stays inside the set-up."""
    start = time.perf_counter()
    import kacz.cli  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter() - start
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK)
    try:
        warm = sum(run_op(op).seconds for op in WORKLOADS[workload_name].warmup(run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"setup_s": imported + warm, "cal_s": calibration_seconds()}))
    return 0


def setup_seconds(workload_name: str) -> tuple[float, float]:
    """Set-up time of one fresh process (see probe_setup), as measured and
    at the reference speed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload_name, "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["setup_s"], probe["setup_s"] * CAL_REF_S / probe["cal_s"]


def wall_seconds(pass_times: list[float]) -> float:
    """Timed wall time of the op list: the mean over the run's passes."""
    return sum(pass_times) / len(pass_times)


def end_to_end(results, passes: int, setup_probes: list[tuple[float, float]],
               scaled: bool = True):
    """End-to-end metrics of an untraced run of `passes` whole passes. With
    `scaled`, every time is at the reference speed (the gated figures);
    without, as measured. The throughputs divide one pass worth of work by
    wall_s."""
    times = sorted(r.ref_seconds if scaled else r.seconds for r in results)
    wall = sum(times) / passes
    steps = sum(r.steps for r in results) / passes
    metrics = {
        "setup_s": statistics.median(p[1] if scaled else p[0] for p in setup_probes),
        "wall_s": wall,
        "ok_ops_per_s": sum(r.ok for r in results) / passes / wall,
        "steps_per_s": steps / wall if steps else None,
        "op_p50_s": statistics.median(times),
        # Highest percentile with at least ten ops above it.
        "op_tail_s": times[-11] if len(times) >= MIN_OPS else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = {"percentile": 100.0 * (len(times) - 10) / len(times), "samples": len(times)}
    return {k: v for k, v in metrics.items() if v is not None}, tail


def provenance(args) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "nproc": os.cpu_count(), "cpu": cpu,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_rev() -> str:
    """HEAD of the checkout's .git, read without running git; 'unknown'
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "kacz")):
        print(f"perfbench: no kacz sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    if args.probe_setup:
        return probe_setup(args.workload)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK)
    try:
        for op in workload.warmup(run_dir):
            run_op(op)
        if args.trace == 0:
            probes = []

            def probe():
                probes.append(setup_seconds(args.workload))

            probe()
            results, pass_times = measure(workload, args.seed, run_dir, args.seconds, MIN_OPS,
                                          after_pass=probe)
            while len(probes) < SETUP_PROBES:
                probe()
            metrics, tail = end_to_end(results, len(pass_times), probes)
            measured = end_to_end(results, len(pass_times), probes, scaled=False)[0]
            extra = {"measured": measured, "setup_probes_s": probes,
                     "pass_times_s": pass_times}
            units = dict(END_TO_END)
        else:
            from spans import PER_LAYER, Tracer, layer_metrics

            tracer = Tracer()
            results, pass_times, plain_times = measure_traced(
                workload, args.seed, run_dir, args.seconds / 4, tracer)
            overhead = wall_seconds(pass_times) / wall_seconds(plain_times) - 1.0
            metrics, tail = layer_metrics(tracer, results, overhead), None
            extra = {"measured": {}, "pass_times_s": pass_times}
            units = dict(PER_LAYER)
            tracer.write(os.path.join(WORK, f"spans-{args.workload}.csv.gz"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in results if not r.ok]
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    record = {"provenance": provenance(args), "op_tail": tail, "result": result,
              "fail_frac": len(failed) / len(results),
              **extra,
              "ops": [{"kind": r.kind, "seconds": r.seconds, "ref_seconds": r.ref_seconds,
                       "ok": r.ok, "problems": r.outcome.problems} for r in results]}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for r in failed:
        print(f"FAILED {r.kind}: {'; '.join(r.outcome.problems)}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in record["measured"].items():
        print(f"{name} as measured, not scaled = {value:.6g} {units[name]}")
    print(f"fail_frac = {record['fail_frac']:.6g} ({len(failed)} of {len(results)} ops)")
    if tail:
        print(f"op_tail_s is p{tail['percentile']:.1f} of {tail['samples']} ops")
    print("provenance = " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
