"""Canonical spec fingerprints: the cache keys must be spelling-blind.

Two clients describing the same campaign — different dict orderings,
defaults spelled out or omitted, ``1`` vs ``1.0``, tuples vs lists —
must land on the same fingerprint, or the content-addressed cache
fragments and the service re-solves work it already has.  The seeded
Fig. 2 spec's fingerprint and its task fingerprints are pinned: any
change to canonicalization or builder defaults that silently re-keys
campaigns or cached artifacts in every deployment must fail a test
first.
"""

from __future__ import annotations

import pytest

from repro.runtime.builder import build_from_spec
from repro.service.fingerprint import (
    SpecError,
    canonical_spec,
    normalize_spec,
    spec_fingerprint,
    task_fingerprints,
)

# The seeded Fig. 2 campaign (build_ga_campaign defaults). The spec
# fingerprint keys campaign entries and names new campaign directories: a
# restarted service re-registers a finished campaign under the current
# one, but a change still starts an unfinished campaign in a new
# directory — re-pin it only with a deliberate change of the canonical spec.
FIG2_FINGERPRINT = "97a5c2f3a2aa680b659cf759"
# Its task fingerprints key the artifact CAS: a change re-solves every
# cached propagator, so they move only with an EXECUTOR_REVISION bump.
FIG2_TASK_FINGERPRINTS = {
    "assemble": "bd531bcdc8818169e2e8f698b0ed1476",
    "corr_m0": "7d45fd8f2b96302c0f07bfc46515fc14",
    "corr_m0m1": "130ceb06f75e00b6b6897a44c69791a5",
    "corr_m1": "43977bf9f4226cd60338dda02a67e926",
    "gauge": "cccd4b5524c78cfe8891875a5f06a185",
    "gaugefix": "b5a26e04a8d3c20e17de481115fa6c91",
    "prop_m0": "7c978df0b536a79b8c5f0a4b4bbd24ac",
    "prop_m1": "29aeb5a05ffddfffcfdb01137869c522",
    "seq_m0": "7b909c04cfda58dfd6fb8fff02bc29cf",
    "seq_m1": "a038d35df4f3c5cce0539650ca89ec96",
    "smear": "fe031d17cefac35a75d778b11fb631ff",
}


class TestSpecCanonicalization:
    def test_fig2_fingerprint_pinned(self):
        assert spec_fingerprint({"builder": "ga", "kwargs": {}}) == FIG2_FINGERPRINT

    def test_fig2_task_fingerprints_pinned(self):
        graph, _, _ = normalize_spec({"builder": "ga", "kwargs": {}})
        assert task_fingerprints(graph) == FIG2_TASK_FINGERPRINTS

    def test_an_empty_shifts_key_of_an_old_spec_is_dropped(self):
        """Specs and ledgers written while the builder had a shifted-family
        task spell ``"shifts": []``; they build the same graph under the
        same spec fingerprint as one without the key."""
        old_graph, _, old_fp = normalize_spec({"builder": "ga", "kwargs": {"shifts": []}})
        graph, _, fp = normalize_spec({"builder": "ga", "kwargs": {}})
        assert old_fp == fp == FIG2_FINGERPRINT
        assert old_graph.fingerprint() == graph.fingerprint()

    def test_defaults_spelled_out_hash_identically(self):
        explicit = {
            "builder": "ga",
            "kwargs": {"masses": [0.35, 0.5], "seed": 7, "tol": 1e-7},
        }
        assert spec_fingerprint(explicit) == FIG2_FINGERPRINT

    def test_dict_ordering_is_irrelevant(self):
        a = {"builder": "ga", "kwargs": {"seed": 9, "masses": [0.5], "tol": 1e-5}}
        b = {"kwargs": {"tol": 1e-5, "seed": 9, "masses": [0.5]}, "builder": "ga"}
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_int_vs_float_spelling_normalized(self):
        a = {"builder": "ga", "kwargs": {"masses": [1], "scale": 1}}
        b = {"builder": "ga", "kwargs": {"masses": [1.0], "scale": 1.0}}
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_tuple_vs_list_spelling_normalized(self):
        a = {"builder": "sleep", "kwargs": {"n_long": 2}}
        graph_a, canon_a, fp_a = normalize_spec(a)
        assert fp_a == spec_fingerprint(dict(a, kwargs=dict(a["kwargs"])))

    def test_canonical_spec_round_trips_to_same_fingerprint(self):
        spec = {"builder": "ga", "kwargs": {"masses": [0.8], "seed": 3}}
        canon = canonical_spec(spec)
        assert spec_fingerprint(canon) == spec_fingerprint(spec)

    def test_different_physics_different_fingerprint(self):
        base = {"builder": "ga", "kwargs": {}}
        other = {"builder": "ga", "kwargs": {"seed": 8}}
        assert spec_fingerprint(base) != spec_fingerprint(other)

    def test_normalize_returns_buildable_graph(self):
        graph, canon, fp = normalize_spec({"builder": "ga", "kwargs": {}})
        rebuilt, _ = build_from_spec(canon)
        assert rebuilt.fingerprint() == graph.fingerprint()


class TestSpecValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            None,
            42,
            "ga",
            [],
            {"builder": "nope"},
            {"builder": "ga", "kwargs": {"bogus_knob": 1}},
            {"builder": "ga", "kwargs": []},
            {"builder": "ga", "kwargs": {}, "extra": 1},
            {"builder": "ga", "kwargs": {"poly_degree": 4}},  # not a builder knob
            {"builder": "ga", "kwargs": {"n_eigen": 8}},  # deflation was removed
            {"builder": "ga", "kwargs": {"shifts": [0.1]}},  # the shifted family was removed
        ],
    )
    def test_invalid_specs_raise_spec_error(self, bad):
        with pytest.raises(SpecError):
            normalize_spec(bad)

    def test_spec_error_is_a_value_error(self):
        # The HTTP layer maps ValueError-family failures to 400s.
        assert issubclass(SpecError, ValueError)


class TestTaskFingerprints:
    def test_task_ids_do_not_enter_the_hash(self):
        # Same content, different campaign: per-task fps line up even
        # though the graphs are distinct objects.
        g1, _, _ = normalize_spec({"builder": "ga", "kwargs": {"masses": [0.9]}})
        g2, _, _ = normalize_spec({"builder": "ga", "kwargs": {"masses": [0.9]}})
        assert task_fingerprints(g1) == task_fingerprints(g2)

    def test_shared_prefix_shared_fingerprints(self):
        # Two specs differing only in mass share the gauge/fix/smear cone.
        g1, _, _ = normalize_spec({"builder": "ga", "kwargs": {"masses": [0.9]}})
        g2, _, _ = normalize_spec({"builder": "ga", "kwargs": {"masses": [1.1]}})
        f1, f2 = task_fingerprints(g1), task_fingerprints(g2)
        for shared in ("gauge", "gaugefix", "smear"):
            assert f1[shared] == f2[shared]
        assert f1["prop_m0"] != f2["prop_m0"]

    def test_upstream_change_propagates_downstream(self):
        # A different seed changes the gauge task, and therefore every
        # consumer, even though the consumers' own params are unchanged.
        g1, _, _ = normalize_spec({"builder": "ga", "kwargs": {"seed": 7}})
        g2, _, _ = normalize_spec({"builder": "ga", "kwargs": {"seed": 8}})
        f1, f2 = task_fingerprints(g1), task_fingerprints(g2)
        assert f1["gauge"] != f2["gauge"]
        assert f1["prop_m0"] != f2["prop_m0"]
        assert f1["assemble"] != f2["assemble"]

    def test_every_task_fingerprinted(self):
        g, _, _ = normalize_spec({"builder": "ga", "kwargs": {}})
        fps = task_fingerprints(g)
        assert set(fps) == set(g.tasks)
        assert all(len(v) == 32 for v in fps.values())

    def test_executor_revision_misses_a_store_keyed_before_it(self, tmp_path):
        """A propagator solved by the full-operator executor must not be
        served to the red-black one under the same key, nor links fixed by
        the dense relaxation to the packed one: the kinds whose arithmetic
        changed, and everything downstream of them, get new keys; the
        upstream cone keeps the keys an older store holds."""
        import hashlib
        import json

        from repro.io.container import FieldFile
        from repro.runtime.exec_tasks import ArtifactStore
        from repro.service.cache import ArtifactCAS
        from repro.service.fingerprint import EXECUTOR_REVISION, _resolve_refs

        assert set(EXECUTOR_REVISION) == {"gauge_fix", "propagator", "seq_solve"}
        g, _, _ = normalize_spec({"builder": "ga", "kwargs": {"include_seq": True}})
        old: dict[str, str] = {}  # the keys of the version before any revision
        for tid in g.topo_order():
            blob = json.dumps(
                {"kind": g[tid].kind, "params": _resolve_refs(g[tid].params, old)},
                sort_keys=True,
            ).encode()
            old[tid] = hashlib.sha256(blob).hexdigest()[:32]
        new = task_fingerprints(g)
        moved = {tid for tid in g.tasks if new[tid] != old[tid]}
        assert "gauge" not in moved and {"gaugefix", "smear"} <= moved
        assert {t for t in g.tasks if g[t].kind in EXECUTOR_REVISION} <= moved
        assert "assemble" in moved and any(g[t].kind == "contraction" for t in moved)
        assert all(g[t].kind != "make_gauge" for t in moved)

        store = ArtifactStore(tmp_path / "artifacts")
        ff = FieldFile({"source": [0, 0, 0, 0]})
        store.save("prop_m0", "prop", ff)
        cas = ArtifactCAS(tmp_path / "cas")
        cas.put(old["prop_m0"], store, {"prop": "prop_m0:prop"})
        fresh = ArtifactStore(tmp_path / "fresh")
        assert cas.materialize(new["prop_m0"], fresh, "prop_m0") is None
        assert cas.materialize(old["prop_m0"], fresh, "prop_m0") == {"prop": "prop_m0:prop"}

        store.save("gaugefix", "links", FieldFile({"source": [0, 0, 0, 0]}))
        cas.put(old["gaugefix"], store, {"links": "gaugefix:links"})
        assert cas.materialize(new["gaugefix"], fresh, "gaugefix") is None
        assert cas.materialize(old["gaugefix"], fresh, "gaugefix") == {"links": "gaugefix:links"}
