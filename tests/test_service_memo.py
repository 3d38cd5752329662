"""The content-addressed memo store: keys, journal, crash tolerance.

The memoisation contract is the warm half of the service plane: a
variant's key is a pure function of its resolved config and the code
fingerprint, and the journal survives hard kills minus at most one torn
line.  These tests pin each of those properties in isolation; the
daemon-level crash-recovery drill lives in
``tests/test_service_daemon.py``.
"""

import dataclasses
import json

import pytest

from repro.engine.campaign import execute_variant, run_campaign
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec
from repro.errors import ValidationError
from repro.service import (
    JOURNAL_NAME,
    MEMO_SCHEMA,
    MemoStore,
    code_fingerprint,
    variant_key,
)


def _variants(count=3):
    return default_registry().variants(family="zone-geometry")[:count]


class TestVariantKey:
    def test_key_is_stable_and_hexdigest(self):
        variant = _variants(1)[0]
        key = variant_key(variant)
        assert key == variant_key(variant)
        assert len(key) == 64
        int(key, 16)  # sha256 hex

    def test_key_varies_by_variant(self):
        first, second, _ = _variants(3)
        assert variant_key(first) != variant_key(second)

    def test_key_varies_by_code_fingerprint(self):
        variant = _variants(1)[0]
        assert variant_key(variant, fingerprint="a" * 64) != variant_key(
            variant, fingerprint="b" * 64
        )

    def test_key_independent_of_submission_context(self):
        # The key must not depend on batch position or neighbours --
        # that is what makes memo filtering verdict-neutral.
        variants = _variants(3)
        alone = variant_key(variants[2])
        assert [variant_key(v) for v in variants][2] == alone

    def test_unknown_scenario_is_unkeyable(self):
        bogus = VariantSpec(
            variant_id="test/none/x", scenario="no-such-scenario",
            family="none",
        )
        with pytest.raises(ValidationError):
            variant_key(bogus)

    def test_fingerprint_is_cached_and_hex(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestMemoStore:
    def test_lookup_miss_then_hit(self):
        store = MemoStore()
        variant = _variants(1)[0]
        assert store.lookup(variant) is None
        outcome = execute_variant(variant)
        store.record(variant, outcome)
        hit = store.lookup(variant)
        assert hit is not None
        assert hit.from_cache
        assert dataclasses.replace(hit, from_cache=False) == outcome
        assert store.hits == 1 and store.misses == 1

    def test_errors_are_never_cached(self):
        store = MemoStore()
        variant = _variants(1)[0]
        outcome = execute_variant(variant)
        errored = dataclasses.replace(
            outcome, verdict="ERROR", stats={"error_type": "Boom"}
        )
        store.record(variant, errored)
        assert len(store) == 0

    def test_journal_reload_round_trip(self, tmp_path):
        variants = _variants(2)
        with MemoStore(tmp_path) as store:
            for variant in variants:
                store.record(variant, execute_variant(variant))
        reloaded = MemoStore(tmp_path)
        assert len(reloaded) == 2
        for variant in variants:
            hit = reloaded.lookup(variant)
            assert hit is not None and hit.from_cache

    def test_torn_final_line_is_dropped_not_fatal(self, tmp_path):
        variants = _variants(2)
        with MemoStore(tmp_path) as store:
            for variant in variants:
                store.record(variant, execute_variant(variant))
        journal = tmp_path / JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.memo/v1", "key": "tru')
        reloaded = MemoStore(tmp_path)
        assert len(reloaded) == 2
        assert reloaded.corrupt == 1

    def test_stale_fingerprints_are_dropped(self, tmp_path):
        variant = _variants(1)[0]
        with MemoStore(tmp_path) as store:
            store.record(variant, execute_variant(variant))
        journal = tmp_path / JOURNAL_NAME
        entry = json.loads(journal.read_text(encoding="utf-8"))
        entry["fingerprint"] = "0" * 64
        entry["key"] = "1" * 64
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        reloaded = MemoStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stale == 1

    def test_malformed_outcome_is_corrupt_not_served(self, tmp_path):
        # Right schema, key and fingerprint, but no outcome inside: it is
        # rejected at load, not on the lookup that would try to serve it.
        variant = _variants(1)[0]
        store = MemoStore(tmp_path)
        entry = {
            "schema": MEMO_SCHEMA,
            "key": store.key_for(variant),
            "variant_id": variant.variant_id,
            "fingerprint": code_fingerprint(),
            "outcome": {"verdict": "X"},
        }
        (tmp_path / JOURNAL_NAME).write_text(
            json.dumps(entry) + "\n", encoding="utf-8"
        )
        reloaded = MemoStore(tmp_path)
        assert reloaded.corrupt == 1
        assert len(reloaded) == 0
        assert reloaded.lookup(variant) is None

    def test_compact_rewrites_only_live_entries(self, tmp_path):
        variant = _variants(1)[0]
        with MemoStore(tmp_path) as store:
            store.record(variant, execute_variant(variant))
        journal = tmp_path / JOURNAL_NAME
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        reloaded = MemoStore(tmp_path)
        assert reloaded.compact() == 1
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["schema"] == MEMO_SCHEMA

    def test_replayed_put_does_not_grow_journal(self, tmp_path):
        variant = _variants(1)[0]
        outcome = execute_variant(variant)
        with MemoStore(tmp_path) as store:
            store.record(variant, outcome)
            store.record(variant, outcome)
        journal = tmp_path / JOURNAL_NAME
        assert len(journal.read_text(encoding="utf-8").splitlines()) == 1


class TestCampaignMemoIntegration:
    """The store plugged into ``run_campaign(memo=...)`` end to end."""

    def test_warm_campaign_serves_every_variant_from_cache(self, tmp_path):
        variants = _variants(4)
        store = MemoStore(tmp_path)
        cold = run_campaign(variants, backend="serial", memo=store)
        assert cold.memo_hits == 0
        assert cold.summary()["memo_hits"] == 0

        warm = run_campaign(variants, backend="serial", memo=store)
        assert warm.memo_hits == len(variants)
        for cold_outcome, warm_outcome in zip(cold.outcomes, warm.outcomes):
            assert warm_outcome.from_cache
            assert dataclasses.replace(
                warm_outcome, from_cache=False
            ) == cold_outcome

    def test_restart_resumes_from_journal(self, tmp_path):
        variants = _variants(4)
        with MemoStore(tmp_path) as store:
            run_campaign(variants[:2], backend="serial", memo=store)
        resumed = MemoStore(tmp_path)
        result = run_campaign(variants, backend="serial", memo=resumed)
        assert result.memo_hits == 2
        assert [o.variant_id for o in result.outcomes] == [
            v.variant_id for v in variants
        ]

    def test_memo_hit_marks_record_attrs(self, tmp_path):
        variant = _variants(1)[0]
        store = MemoStore(tmp_path)
        run_campaign([variant], backend="serial", memo=store)
        warm = run_campaign([variant], backend="serial", memo=store)
        record = warm.outcomes[0].to_record()
        assert dict(record.attrs)["cached"] == "true"
