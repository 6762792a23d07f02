"""Merge trace shards back into one ordered span stream.

The reading side of the one-writer-per-file discipline: every shard is
appended by exactly one ``(process, thread)`` writer, so the failure
modes are bounded and all handled here:

* **torn final line** — a worker killed mid-write leaves a partial JSON
  line at the end of its own shard (and only there); it is skipped;
* **empty shard** — a worker that opened its file and died before its
  first span contributes nothing;
* **out-of-order timestamps across shards** — each shard is internally
  ordered, but concurrent writers interleave arbitrarily; the merge
  sorts the union by wall-clock start (stable, so equal timestamps keep
  shard order).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

__all__ = ["iter_records", "iter_shard", "load_spans", "shard_paths"]

#: Keys every well-formed span record carries.
REQUIRED_KEYS = ("name", "t0", "dur")


def shard_paths(trace_dir: str | Path, prefix: str = "trace") -> list[Path]:
    """The shard files of a trace directory, in name order."""
    return sorted(Path(trace_dir).glob(f"{prefix}-*.jsonl"))


def iter_records(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the JSON objects of one JSONL file, in file order.

    The one line reader behind trace shards and the write-ahead ledger:
    blank lines and torn (non-JSON) lines are
    skipped — a one-writer file can only be damaged at its tail, so
    skipping loses at most the record that was being written at death.
    """
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail of a killed writer's file
        if isinstance(rec, dict):
            yield rec


def iter_shard(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the well-formed span records of one shard (records missing
    a required key are skipped)."""
    for rec in iter_records(path):
        if all(k in rec for k in REQUIRED_KEYS):
            yield rec


def load_spans(trace_dir: str | Path, prefix: str = "trace") -> list[dict[str, Any]]:
    """All spans of a trace directory, merged and ordered by start time."""
    spans: list[dict[str, Any]] = []
    for path in shard_paths(trace_dir, prefix=prefix):
        spans.extend(iter_shard(path))
    spans.sort(key=lambda r: float(r.get("t0", 0.0)))
    return spans
