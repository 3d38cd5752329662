"""Re-capture the per-vehicle reference verdicts of ``fleet-n256``.

Usage: ``python3 saseval_bench/capture_reference.py``.  Runs the two
rescaled variants once and rewrites ``fleet_n256_reference.json``.  Only
re-capture from a tree whose verdicts are known good: the benchmark
counts every later divergence from this file as a failure.
"""

from __future__ import annotations

import json
import sys

import common


def main() -> int:
    common.bootstrap()
    from repro.engine.campaign import iter_campaign

    import workloads

    variants = [variant for _source, variant in workloads.fleet_variants()]
    reference = {
        outcome.variant_id: outcome.stats["per_vehicle_verdicts"]
        for outcome in iter_campaign(variants, backend="serial")
    }
    common.FLEET_REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(reference)} variants to {common.FLEET_REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
