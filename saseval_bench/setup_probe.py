"""Time one workload's set-up in a fresh interpreter; print the seconds.

Usage: ``python3 saseval_bench/setup_probe.py <workload>``.  ``run.py``
calls this several times per run: imports only happen once per process,
so a fresh process is the only way to time them again.  The seconds are
in reference-host units (see ``calibration.py``).
"""

from __future__ import annotations

import time

import calibration

calibration.pin_to_one_cpu()
CALIBRATOR = calibration.Calibrator()
CALIBRATOR.start()
STARTED = time.perf_counter()

import shutil  # noqa: E402 - imports are part of the measured set-up
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402


def main() -> int:
    try:
        return probe()
    finally:
        CALIBRATOR.stop()


def probe() -> int:
    common.bootstrap()
    import workloads

    common.WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=common.WORK_DIR))
    try:
        workload = workloads.create(sys.argv[1], 0, work_dir)
        set_up = time.perf_counter()
        CALIBRATOR.stop()
        workload.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(repr(CALIBRATOR.scale(STARTED, set_up)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
