"""Content-addressed artifact store shared across campaigns.

The service's answer to the paper's "grids of near-identical solves"
traffic: every task artifact is published under the *content* fingerprint
of the task that produced it (:func:`repro.service.fingerprint.
task_fingerprints` — kind + params with dependency refs resolved to the
dependencies' own content addresses).  Two campaigns whose specs differ
only in, say, a second mass still share the gauge configuration, the
gauge fixing and the smeared sources; two identical specs share
everything including the propagators.  Executors being pure functions of
(params, dependency artifacts), a CAS hit is bitwise-identical to a
fresh solve.

Layout (all under one ``cas/`` directory)::

    <fp>.<name>.lq   the artifact containers, hardlinked from/to
                     campaign artifact stores (one payload on disk,
                     many campaign directories referencing it)
    <fp>.json        the commit marker: written atomically *last*,
                     listing the artifact names — an entry without its
                     marker does not exist, so a crash mid-publish can
                     never serve a torn result

Concurrency: publishes race benignly (identical content, last atomic
rename wins); lookups verify checksums before trusting an entry and
drop corrupted entries instead of serving them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.io.container import ArtifactStore, link_or_copy, verify_artifacts

__all__ = ["ArtifactCAS"]


class ArtifactCAS:
    """Cross-campaign artifact cache keyed by task content fingerprint."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.drops = 0  # corrupted entries evicted on lookup

    # -- internal paths -----------------------------------------------------
    def _marker(self, fp: str) -> Path:
        return self.root / f"{fp}.json"

    def _blob(self, fp: str, name: str) -> Path:
        return self.root / f"{fp}.{name}.lq"

    def has(self, fp: str) -> bool:
        """True when a committed entry exists (marker present)."""
        return self._marker(fp).exists()

    # -- publish ------------------------------------------------------------
    def put(self, fp: str, store: ArtifactStore, artifacts: dict[str, str]) -> None:
        """Publish one task's artifacts under its content fingerprint.

        ``artifacts`` is the executor's ``{name: "task_id:name"}`` map;
        the files are hardlinked out of the campaign's store (no copy on
        one filesystem).  Idempotent: re-publishing identical content is
        a no-op race.
        """
        if self.has(fp):
            return
        for name, ref in artifacts.items():
            link_or_copy(store.path(ref), self._blob(fp, name))
        # Commit marker last: readers only believe entries whose marker
        # landed, and os.replace makes the landing atomic.
        marker = self._marker(fp)
        tmp = marker.with_name(f".{marker.name}.tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps({"names": sorted(artifacts)}, sort_keys=True),
            encoding="utf-8",
        )
        os.replace(tmp, marker)
        self.puts += 1

    # -- lookup -------------------------------------------------------------
    def materialize(
        self, fp: str, store: ArtifactStore, task_id: str
    ) -> dict[str, str] | None:
        """Link a cached entry into a campaign's store as ``task_id``'s output.

        Returns the ``{name: ref}`` artifact map the task would have
        produced, or ``None`` on a miss.  The materialized files are
        checksum-verified; a corrupted entry is evicted (the task simply
        re-runs) rather than served.
        """
        marker = self._marker(fp)
        try:
            names = json.loads(marker.read_text(encoding="utf-8"))["names"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return None
        artifacts: dict[str, str] = {}
        try:
            for name in names:
                ref = f"{task_id}:{name}"
                link_or_copy(self._blob(fp, name), store.path(ref))
                artifacts[name] = ref
        except OSError:
            self.drop(fp)
            self.misses += 1
            return None
        if not verify_artifacts(store, artifacts):
            self.drop(fp)
            self.misses += 1
            return None
        self.hits += 1
        return artifacts

    def drop(self, fp: str) -> None:
        """Evict an entry (marker first, so no reader trusts the blobs)."""
        self._marker(fp).unlink(missing_ok=True)
        for blob in self.root.glob(f"{fp}.*.lq"):
            blob.unlink(missing_ok=True)
        self.drops += 1

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "drops": self.drops,
            "entries": sum(1 for _ in self.root.glob("*.json")),
        }
