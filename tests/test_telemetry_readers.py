"""Hardening of the JSONL readers.

Every event file has one writer, so damage is bounded: a killed writer
can tear *its own final line* and nothing else.  These tests pin the
reader behavior for every such case — torn tail, empty file, and (for
the trace reader's per-thread shards) cross-shard timestamp
interleaving — for both the campaign ledger reader and the trace
reader.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.readers import iter_shard, load_spans
from repro.runtime.ledger import TaskLedger
from repro.runtime.telemetry import load_events, summarize


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTelemetryReader:
    def test_torn_final_line_is_skipped(self, tmp_path):
        good = json.dumps({"ev": "start", "t": 1.0, "worker": 0, "task": "a"})
        (tmp_path / "ledger.jsonl").write_text(
            good + '\n{"ev": "done", "t": 2.0, "tas', encoding="utf-8"
        )
        events = load_events(tmp_path)
        assert [e["ev"] for e in events] == ["start"]

    def test_empty_or_missing_ledger_contributes_nothing(self, tmp_path):
        assert load_events(tmp_path) == []
        (tmp_path / "ledger.jsonl").write_text("", encoding="utf-8")
        assert load_events(tmp_path) == []
        assert summarize(tmp_path).tasks_done == 0

    def test_summary_survives_torn_ledger_tail(self, tmp_path):
        # the driver's records, on a fixed clock (a ``t`` field wins over
        # the ledger's own timestamp); a worker's fact precedes its done
        with TaskLedger(tmp_path / "ledger.jsonl") as ledger:
            ledger.record("campaign_start", t=0.0, workers=1)
            ledger.record("start", t=1.0, task="a", worker=0, attempt=1)
            ledger.record("checkpoint_saved", t=1.5, task="a", n=1)
            ledger.record("done", t=2.0, task="a", artifacts={})
            ledger.record("campaign_finish", t=4.0)
        # A driver killed mid-append leaves a torn line; the summary must
        # still account every complete record before it.
        with (tmp_path / "ledger.jsonl").open("a", encoding="utf-8") as f:
            f.write('{"ev": "campaign_sta')
        s = summarize(tmp_path)
        assert s.tasks_done == 1
        assert s.checkpoints == 1
        assert s.makespan == pytest.approx(4.0)
        assert 0.0 < s.idle_fraction < 1.0


class TestTraceReader:
    def test_torn_final_line_and_required_keys(self, tmp_path):
        shard = tmp_path / "trace-p1-t1.jsonl"
        shard.write_text(
            json.dumps({"name": "a", "t0": 1.0, "dur": 0.5}) + "\n"
            + json.dumps({"not_a_span": True}) + "\n"
            + '{"name": "torn", "t0": 2.0, "du',
            encoding="utf-8",
        )
        assert [s["name"] for s in iter_shard(shard)] == ["a"]

    def test_empty_and_blank_line_shards(self, tmp_path):
        (tmp_path / "trace-p1-t1.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "trace-p2-t2.jsonl").write_text("\n\n", encoding="utf-8")
        assert load_spans(tmp_path) == []

    def test_cross_shard_merge_is_time_ordered(self, tmp_path):
        _write_lines(
            tmp_path / "trace-p1-t1.jsonl",
            [
                json.dumps({"name": "a", "t0": 2.0, "dur": 0.1}),
                json.dumps({"name": "b", "t0": 4.0, "dur": 0.1}),
            ],
        )
        _write_lines(
            tmp_path / "trace-p2-t7.jsonl",
            [
                json.dumps({"name": "c", "t0": 1.0, "dur": 0.1}),
                json.dumps({"name": "d", "t0": 3.0, "dur": 0.1}),
            ],
        )
        assert [s["name"] for s in load_spans(tmp_path)] == ["c", "a", "d", "b"]

    def test_non_trace_files_ignored(self, tmp_path):
        (tmp_path / "ledger.jsonl").write_text(
            json.dumps({"ev": "campaign_start", "t": 0.0}) + "\n", encoding="utf-8"
        )
        _write_lines(
            tmp_path / "trace-p1-t1.jsonl",
            [json.dumps({"name": "a", "t0": 1.0, "dur": 0.1})],
        )
        assert [s["name"] for s in load_spans(tmp_path)] == ["a"]


class TestLedgerConcurrency:
    """Satellite of the campaign service: one process, many campaigns."""

    def test_record_is_thread_safe(self, tmp_path):
        import threading

        from repro.runtime.ledger import TaskLedger, replay_ledger

        ledger = TaskLedger(tmp_path / "ledger.jsonl")
        n_threads, n_each = 8, 50

        def hammer(k):
            for i in range(n_each):
                ledger.record("done", task=f"t{k}-{i}", artifacts={})

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ledger.close()
        # no torn or interleaved lines: every record parses and counts
        st = replay_ledger(tmp_path / "ledger.jsonl")
        assert st.events == n_threads * n_each
        assert len(st.done_tasks()) == n_threads * n_each

    def test_namespaced_ledgers_never_share_a_file(self, tmp_path):
        from repro.runtime.ledger import open_campaign_ledger, replay_ledger

        a = open_campaign_ledger(tmp_path, "camp-a", fingerprint="fpA")
        b = open_campaign_ledger(tmp_path, "camp-b", fingerprint="fpB")
        a.record("done", task="x", artifacts={})
        b.record("done", task="y", artifacts={})
        a.close()
        b.close()
        assert a.path != b.path
        assert replay_ledger(a.path).done_tasks() == {"x"}
        assert replay_ledger(b.path).done_tasks() == {"y"}

    def test_id_collision_guard(self, tmp_path):
        from repro.runtime.ledger import (
            LedgerCollisionError,
            open_campaign_ledger,
        )

        first = open_campaign_ledger(tmp_path, "camp", fingerprint="fpA")
        first.close()
        # same id + same fingerprint: a resume, allowed
        again = open_campaign_ledger(tmp_path, "camp", fingerprint="fpA")
        again.close()
        # same id + different graph: refused before any write
        with pytest.raises(LedgerCollisionError, match="camp"):
            open_campaign_ledger(tmp_path, "camp", fingerprint="fpB")
        # and the guard is a ValueError, like every resume-refusal
        assert issubclass(LedgerCollisionError, ValueError)

    def test_replay_filters_interleaved_campaigns(self, tmp_path):
        from repro.runtime.ledger import TaskLedger, replay_ledger

        # Two writers pointed at ONE file (a hand-merged archive, or the
        # pre-namespacing bug this guards against): the campaign tag lets
        # the reader pull each campaign's facts back apart.
        shard = tmp_path / "merged.jsonl"
        a = TaskLedger(shard, campaign="camp-a")
        b = TaskLedger(shard, campaign="camp-b")
        a.record("campaign_start", fingerprint="fpA")
        b.record("campaign_start", fingerprint="fpB")
        a.record("done", task="shared_name", artifacts={"out": "shared_name:out"})
        b.record("fail", task="shared_name", attempt=1, reason="boom")
        a.record("campaign_finish")
        a.close()
        b.close()

        sa = replay_ledger(shard, campaign="camp-a")
        sb = replay_ledger(shard, campaign="camp-b")
        assert sa.campaign["fingerprint"] == "fpA"
        assert sb.campaign["fingerprint"] == "fpB"
        # the same task id resolves differently per campaign
        assert sa.done_tasks() == {"shared_name"}
        assert sb.done_tasks() == set()
        assert sa.finished and not sb.finished
        # an unfiltered replay sees every record (last-writer-wins soup)
        assert replay_ledger(shard).events == 5

    def test_untagged_records_always_count(self, tmp_path):
        from repro.runtime.ledger import TaskLedger, replay_ledger

        # A pre-service ledger has no campaign tags; filtering by any
        # campaign id must still replay it in full (backward compat).
        shard = tmp_path / "old.jsonl"
        legacy = TaskLedger(shard)
        legacy.record("campaign_start", fingerprint="fpOld")
        legacy.record("done", task="x", artifacts={})
        legacy.close()
        st = replay_ledger(shard, campaign="whatever")
        assert st.done_tasks() == {"x"}
        assert st.campaign["fingerprint"] == "fpOld"
