"""Content-addressed variant memoisation (the daemon's warm path).

A variant's outcome is a pure function of two things: its **resolved
configuration** (the variant payload merged over its scenario spec's
factory, defaults and topology layers) and the **code** that executes
it.  :func:`variant_key` hashes both into one sha256 hex digest, along
with two fixed fields (a per-variant seed and a retired trace-mode
label) that keep every key byte-identical to earlier journals; the
:class:`MemoStore` maps that digest to the cached
:class:`~repro.engine.campaign.VariantOutcome`.

Consequences, by construction:

* resubmitting any previously-run variant -- from any client, in any
  order, inside any submission -- returns the cached outcome instantly;
* a daemon killed mid-campaign resumes from its journal: completed
  variants are served from cache, only the remainder re-executes;
* editing **any** ``repro`` source file changes
  :func:`code_fingerprint`, which changes every key, which invalidates
  the whole store -- stale entries can never leak across a code change
  (see CONTRIBUTING, "code-fingerprint invalidation").

Persistence is an append-only JSONL journal (one entry per executed
variant, flushed as written), so a hard kill loses at most the final,
partially-written line -- which the loader detects and skips.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Mapping

from repro.engine.campaign import VariantOutcome
from repro.engine.registry import ScenarioRegistry, default_registry
from repro.engine.spec import VariantSpec
from repro.errors import ReproError
from repro.faults import fault_point
from repro.runtime import derive_seed

#: Schema tag of every journal entry; part of the key derivation too, so
#: bumping it invalidates all previously-journalled outcomes.
MEMO_SCHEMA = "repro.memo/v1"

#: The journal file name inside a memo directory.
JOURNAL_NAME = "memo.jsonl"


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """One sha256 hex digest over every ``repro`` source file.

    The digest covers the sorted ``(relative path, content digest)``
    pairs of all ``*.py`` files under the installed ``repro`` package --
    any code change, anywhere in the package, yields a new fingerprint
    and therefore invalidates every memo entry.  Cached per process (the
    tree does not change under a running daemon; restart to pick up new
    code).
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def variant_key(
    variant: VariantSpec,
    *,
    registry: ScenarioRegistry | None = None,
    fingerprint: str | None = None,
) -> str:
    """The content address of one variant's outcome.

    ``sha256(resolved variant config + code fingerprint)``: the resolved
    config is the variant payload plus the owning spec's
    factory/defaults/topology layers (so two registries binding the same
    variant id to different scenarios can never collide), and the
    fingerprint is :func:`code_fingerprint` unless pinned by the caller.

    Raises:
        ValidationError: when the variant's scenario is not registered
            (an unkeyable variant cannot be memoised).
    """
    registry = registry or default_registry()
    spec = registry.get(variant.scenario)
    payload = {
        "schema": MEMO_SCHEMA,
        "variant": variant.to_payload(),
        "scenario": {
            "factory": spec.factory,
            "use_case": spec.use_case,
            "defaults": spec.defaults,
            "topology": spec.topology,
        },
        # Fixed fields: no execution reads the seed or the retired
        # trace-mode label, but both stay in the payload so every key
        # keeps its bytes (PINNED_KEYS in tests/test_campaign_parity.py).
        "seed": derive_seed(1, variant.variant_id),
        "trace_mode": "counts",
        "code": fingerprint if fingerprint is not None else code_fingerprint(),
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class MemoStore:
    """A thread-safe, journal-backed outcome cache keyed by content.

    Args:
        path: Directory holding the append-only journal
            (:data:`JOURNAL_NAME`); created on first write.  ``None``
            keeps the store purely in memory (tests, ad-hoc runs).
        registry: Registry the key derivation resolves scenario specs
            against (default: the stock registry).

    The store implements the campaign runner's duck-typed memo protocol
    (:meth:`lookup` / :meth:`record`), so it plugs straight into
    :func:`repro.engine.campaign.iter_campaign`'s ``memo=`` parameter.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        registry: ScenarioRegistry | None = None,
    ) -> None:
        self._dir = Path(path) if path is not None else None
        self._registry = registry or default_registry()
        self._fingerprint = code_fingerprint()
        #: key -> the outcome a hit returns (``from_cache=True``),
        #: decoded once at load or put, never per lookup.
        self._entries: dict[str, VariantOutcome] = {}
        self._lock = threading.RLock()
        self._file: Any = None
        self._torn = False
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.corrupt = 0
        if self._dir is not None:
            self._load()

    # -- persistence -------------------------------------------------------

    @property
    def journal_path(self) -> Path | None:
        """The journal file path (``None`` for an in-memory store)."""
        if self._dir is None:
            return None
        return self._dir / JOURNAL_NAME

    def _load(self) -> None:
        path = self.journal_path
        assert path is not None
        if not path.exists():
            return
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # A hard kill can truncate the final append; anything
                # unparseable is dropped rather than poisoning the cache.
                self.corrupt += 1
                continue
            if (
                not isinstance(entry, Mapping)
                or entry.get("schema") != MEMO_SCHEMA
                or "key" not in entry
                or "outcome" not in entry
            ):
                self.corrupt += 1
                continue
            if entry.get("fingerprint") != self._fingerprint:
                # The code changed since this outcome was journalled: the
                # key derivation would no longer produce this key, so the
                # entry can never be looked up -- drop it as stale.
                self.stale += 1
                continue
            try:
                outcome = VariantOutcome.from_payload(
                    {**entry["outcome"], "from_cache": True}
                )
            except (KeyError, TypeError, ValueError):
                # Right schema and fingerprint, but not an outcome: it
                # could never be served, so it is dropped like a torn line.
                self.corrupt += 1
                continue
            self._entries[entry["key"]] = outcome

    def _journal_entry(
        self, key: str, variant_id: str, outcome: VariantOutcome
    ) -> dict[str, Any]:
        payload = outcome.to_payload()
        payload["from_cache"] = False  # journalled as executed
        return {
            "schema": MEMO_SCHEMA,
            "key": key,
            "variant_id": variant_id,
            "fingerprint": self._fingerprint,
            "outcome": payload,
        }

    def _append(self, entry: Mapping[str, Any]) -> None:
        if self._dir is None:
            return
        if self._file is None:
            self._dir.mkdir(parents=True, exist_ok=True)
            assert self.journal_path is not None
            self._file = open(  # noqa: SIM115 - held open for appends
                self.journal_path, "a", encoding="utf-8"
            )
        line = json.dumps(entry, default=repr)
        if self._torn:
            # Recover the line boundary after a torn tail: starting on a
            # fresh line confines the damage to the one torn entry.
            self._file.write("\n")
            self._torn = False
        if fault_point("journal-append") is not None:
            # Injected torn write: persist half a line with no newline,
            # exactly what a hard kill mid-append leaves behind.  The
            # in-memory entry stays valid; only the journalled copy is
            # torn, and the loader's corrupt-line handling skips it.
            self._file.write(line[: max(1, len(line) // 2)])
            self._file.flush()
            self._torn = True
            return
        self._file.write(line + "\n")
        self._file.flush()

    def close(self) -> None:
        """Release the journal handle (idempotent; store stays usable
        for lookups, reopens on the next write)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "MemoStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the key/value surface ---------------------------------------------

    def key_for(self, variant: VariantSpec) -> str:
        """This store's content address for one variant."""
        return variant_key(
            variant, registry=self._registry, fingerprint=self._fingerprint
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, key: str, variant_id: str, outcome: VariantOutcome) -> None:
        """Journal + cache one executed outcome under ``key``.

        The journal stores the outcome as executed (``from_cache``
        reset); the cache keeps the copy every later :meth:`lookup`
        returns, marked ``from_cache``.  Re-putting an existing key is a
        no-op -- the journal never grows from replays.
        """
        if not outcome.from_cache:
            outcome = dataclasses.replace(outcome, from_cache=True)
        with self._lock:
            if key in self._entries:
                return
            # Journal first: an append that raises leaves nothing cached.
            self._append(self._journal_entry(key, variant_id, outcome))
            self._entries[key] = outcome

    # -- the campaign runner's memo protocol -------------------------------

    def lookup(self, variant: VariantSpec) -> VariantOutcome | None:
        """The cached outcome of ``variant``, marked ``from_cache``.

        Returns ``None`` -- and counts a miss -- for unseen variants and
        for variants whose scenario the registry does not know (they
        cannot be keyed; execution will surface the real error).
        """
        try:
            key = self.key_for(variant)
        except (ReproError, KeyError):
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                self.misses += 1
            else:
                self.hits += 1
        return hit

    def record(self, variant: VariantSpec, outcome: VariantOutcome) -> None:
        """Cache one freshly-executed outcome (errors are never cached:
        a crash may be environmental, and serving it forever would make
        one bad run permanent)."""
        if outcome.is_error:
            return
        try:
            key = self.key_for(variant)
        except (ReproError, KeyError):
            return
        self.put(key, variant.variant_id, outcome)

    # -- reporting ---------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Plain-data store health for ``repro status`` and benches."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stale": self.stale,
                "corrupt": self.corrupt,
                "path": str(self.journal_path) if self._dir else None,
                "fingerprint": self._fingerprint[:12],
            }

    def compact(self) -> int:
        """Rewrite the journal with only live entries; return the count.

        A long-lived daemon accumulates stale lines across code changes;
        compaction drops them.  No-op (returning the live count) for an
        in-memory store.
        """
        with self._lock:
            if self._dir is None:
                return len(self._entries)
            self.close()
            assert self.journal_path is not None
            self._dir.mkdir(parents=True, exist_ok=True)
            tmp = self.journal_path.with_suffix(".jsonl.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for key, outcome in self._entries.items():
                    entry = self._journal_entry(key, outcome.variant_id, outcome)
                    handle.write(json.dumps(entry, default=repr) + "\n")
            tmp.replace(self.journal_path)
            self.stale = 0
            self.corrupt = 0
            return len(self._entries)


__all__ = [
    "JOURNAL_NAME",
    "MEMO_SCHEMA",
    "MemoStore",
    "code_fingerprint",
    "variant_key",
]
