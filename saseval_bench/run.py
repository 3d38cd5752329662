"""The SaSeVAL campaign benchmark.

Usage (from the checkout root)::

    python3 saseval_bench/run.py --workload registry --seed 1 \
        --seconds 20 --trace 0

Workloads are described in ``workloads.py``.  An untraced run
(``--trace 0``) sets the workload up, makes as many whole passes as fit
``--seconds`` at the workload's nominal pace on a 2-CPU host, and
reports the end-to-end metrics.  A traced
run (``--trace 1``) makes one untraced warm-up pass, one pass under the
:mod:`layers` tracer and one more untraced pass, and reports the
per-layer metrics of the traced pass.  Every outcome is checked against
``tests/data/golden_verdicts.json`` (and, for ``fleet-n256``, the
per-vehicle reference capture beside this file).

Untraced times are in reference-host units (see ``calibration.py``):
the benchmark pins itself to one CPU, times a fixed kernel on it while
the work runs, and scales each interval by how fast the kernel ran, so
a shared host that slows down for a while barely moves a metric.  The
table also shows the raw pass times and the kernel's median.

Output: a host stamp, a human-readable table, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``failed / attempted`` is the error rate.  Exit status 2 means the
checkout lacks the sources or golden data and nothing was measured.
"""

from __future__ import annotations

import time

import calibration

calibration.pin_to_one_cpu()
CALIBRATOR = calibration.Calibrator()
CALIBRATOR.start()
STARTED = time.perf_counter()

import argparse  # noqa: E402 - imports are part of the measured set-up
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

#: Set-up is timed in this process and in this many fresh processes more;
#: setup_s is the median.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``statistics`` inclusive method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def probe_setup(workload: str) -> float:
    """Set-up time of ``workload`` in a fresh interpreter."""
    probe = common.BENCH_DIR / "setup_probe.py"
    completed = subprocess.run(
        [sys.executable, str(probe), workload],
        cwd=common.ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float) -> tuple[dict, list, list]:
    """Untraced: as many passes as fit ``seconds`` at the nominal pace.

    Per-pass figures are reported as medians over passes, so a burst of
    host noise during one pass moves no metric; outcome gaps and
    submission latencies are pooled over the run.
    """
    count = max(1, round(seconds / workload.PASS_SECONDS))
    passes = [workload.run_pass(index, CALIBRATOR) for index in range(count)]
    gaps = [gap for p in passes for gap in p.gaps_ms]
    submits = [ms for p in passes for ms in p.submits_ms]
    wall = sum(p.wall_s for p in passes)
    metrics = {
        "variants_per_s": statistics.median(p.executed / p.wall_s for p in passes),
        "variant_p50_ms": percentile(gaps, 50),
        "variant_p90_ms": percentile(gaps, 90),
        "submit_p50_ms": percentile(submits, 50),
        "submit_p99_ms": statistics.median(
            percentile(p.submits_ms, 99) for p in passes
        ),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
    }
    info = [
        f"passes {len(passes)}, wall {wall:.3f} s "
        f"(raw {sum(p.raw_wall_s for p in passes):.3f} s), "
        f"{len(gaps)} outcome gaps, {len(submits)} submissions",
        f"calibration kernel median {CALIBRATOR.median_kernel_s() * 1e3:.4f} ms "
        f"(reference {calibration.REFERENCE_S * 1e3:.4f} ms), "
        f"{len(CALIBRATOR.starts)} samples",
    ]
    return metrics, passes, info


def trace(workload) -> tuple[dict, list, list]:
    """Traced: warm-up pass, traced pass, untraced reference pass."""
    import layers

    warmup = workload.run_pass(0)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(1)
    finally:
        tracer.uninstall()
    reference = workload.run_pass(2)
    metrics = tracer.metrics(
        journal_bytes=traced.journal_bytes,
        overhead_s=traced.wall_s - reference.wall_s,
    )
    info = [
        f"traced pass {traced.wall_s:.3f} s, untraced pass "
        f"{reference.wall_s:.3f} s",
        "",
        f"{'metric':34} {'value':>16} {'unit':6} {'share':>6}  should move",
    ]
    for name, unit, _better, moves in layers.PER_LAYER:
        value = metrics[name]
        share = (
            f"{100 * value / traced.wall_s:5.1f}%"
            if unit == "s" and name != "trace_overhead_s"
            else ""
        )
        info.append(f"{name:34} {value:16.6g} {unit:6} {share:>6}  {moves}")
    info.append("")
    info.extend(f"note: {note}" for note in layers.NOTES)
    return metrics, [warmup, traced, reference], info


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    finally:
        CALIBRATOR.stop()


def run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.bootstrap()
    except common.MissingSourceError as exc:
        print(f"saseval_bench: cannot run: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOADS)})"
        )
    common.WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=common.WORK_DIR))
    workload = None
    try:
        workload = workloads.create(args.workload, args.seed, work_dir)
        set_up = time.perf_counter()
        CALIBRATOR.stop()
        setups = [CALIBRATOR.scale(STARTED, set_up)]
        if args.trace:
            metrics, passes, info = trace(workload)
        else:
            setups += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
            metrics, passes, info = measure(workload, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            common.WORK_DIR.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("host " + json.dumps(common.host_stamp(), sort_keys=True))
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"setup samples {[round(s, 4) for s in setups]}; "
        f"error_rate {failed}/{attempted}"
    )
    for line in info:
        print(line)
    if args.trace:
        import layers

        units = {name: unit for name, unit, _b, _m in layers.PER_LAYER}
    else:
        units = common.END_TO_END_UNITS
        for name, unit in units.items():
            print(f"{name:16} {metrics[name]:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
