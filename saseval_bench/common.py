"""Paths, source bootstrap and the host stamp shared by the benchmark scripts.

The benchmark runs from a plain source checkout (no install step): it
puts the checkout's ``src/`` first on ``sys.path`` and refuses to run
when that tree or the golden verdicts are missing, so it can never
measure some other installed copy of ``repro``.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = ROOT / "tests" / "data" / "golden_verdicts.json"
FLEET_REFERENCE_PATH = BENCH_DIR / "fleet_n256_reference.json"
#: Scratch space for memo journals; inside the checkout, removed per run.
WORK_DIR = ROOT / ".bench_run"

END_TO_END_UNITS = {
    "setup_s": "s",
    "variants_per_s": "1/s",
    "variant_p50_ms": "ms",
    "variant_p90_ms": "ms",
    "submit_p50_ms": "ms",
    "submit_p99_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class MissingSourceError(RuntimeError):
    """The checkout lacks the program sources or the golden verdicts."""


def bootstrap() -> None:
    """Make the checkout's ``src/repro`` importable, or raise."""
    for required in (SRC / "repro" / "__init__.py", GOLDEN_PATH):
        if not required.is_file():
            raise MissingSourceError(f"missing {required.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git.

    Running ``git`` in a checkout that is not a repository would search
    parent directories; reading the files directly stays inside it.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def host_stamp() -> dict:
    """Host and build facts that explain cross-host differences."""
    from repro.service.memo import code_fingerprint
    from repro.sim.topology import numpy_enabled

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        # The benchmark pins itself to one CPU (see calibration.py).
        "benchmark_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_engine": numpy_enabled(),
        "git_commit": _git_commit(),
        "source_digest": code_fingerprint()[:16],
    }
