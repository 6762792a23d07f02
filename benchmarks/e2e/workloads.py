"""The four end-to-end workloads, as run inside a workload subprocess.

Each workload is ``setup()`` once, then any number of bit-identical
``unit()`` calls (the first is the untimed warm-up), ``check()`` on the
warm-up's output (later units must be bit-equal to it), and
``teardown()``.  ``layers()`` turns one traced unit into per-layer
numbers from the counters the program already publishes.

Units are cut from the issue's 5-10 s to about 3-4 s (looser
tolerances, heavier campaign masses, fewer submissions): the driver's
time cap leaves ~37 s per invocation for set-up, the warm-up unit and
26 s of timed units and calibration slices, also in the hours when this
host runs a third slower.  Shapes, code paths and layer mix are the
issue's.  See README.md.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TENANTS = ("astra", "boltzmann", "curie")

# Input parameters shared by the harness (which generates the inputs) and
# the workloads (which only receive them).
GA = dict(dims=(4, 4, 4, 8), scale=0.3, mass=0.3, tol=1e-4)
PROP = dict(dims=(8, 8, 8, 16), scale=0.3, mass=0.3, tol=1e-3, ranks=2, n_rhs=12)
CAMPAIGN = dict(dims=[4, 4, 4, 8], masses=[0.35, 0.5], tol=1e-4, workers=2)
SERVICE = dict(dims=[4, 4, 4, 8], unique=3, duplicates=3, tol=1e-5, workers=2, connections=2,
               order_seed=20180817)


@dataclass
class UnitOut:
    """What one unit produced.

    ``payload`` must be bit-equal on every unit of a workload, in every
    process; ``attempted``/``failed`` count the unit's operations
    (units, columns, tasks, submissions)."""

    payload: object  # bytes or a contiguous ndarray
    attempted: int = 1
    failed: int = 0
    info: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, inputs: Path, work: Path):
        self.inputs = Path(inputs)
        self.work = Path(work)
        self._n = 0

    def _fresh_dir(self) -> Path:
        self._n += 1
        d = self.work / f"unit-{self._n}"
        d.mkdir(parents=True)
        return d

    def setup(self) -> None: ...

    def unit(self) -> UnitOut:
        raise NotImplementedError

    def check(self, out: UnitOut, reference: Path | None) -> list[str]:
        """Problems found in the warm-up unit's output (empty = correct)."""
        raise NotImplementedError

    def finish(self, out: UnitOut) -> None:
        """Post-process a unit's output outside the timed region."""

    def check_traced(self, out: UnitOut) -> list[str]:
        """Extra, slower correctness checks made in the traced pass only."""
        return []

    def layers(self, out: UnitOut, rec) -> dict[str, float]:
        """Per-layer numbers of one traced unit; ``rec`` is its Recorder."""
        return {}

    def discard(self, out: UnitOut) -> None:
        d = out.info.get("dir")
        if d is not None:
            shutil.rmtree(d, ignore_errors=True)

    def teardown(self) -> None: ...


def _span_metrics(spans: dict) -> dict[str, float]:
    """The in-process layer numbers every shimmed workload shares."""

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    return {
        "dirac.hopping_calls": get("dirac.hopping", "calls"),
        "dirac.hopping_s": get("dirac.hopping", "s"),
        "dirac.apply_self_s": get("dirac.apply", "self_s"),
        "dirac.gamma5_s": get("dirac.apply_dagger", "self_s"),
        "solvers.linalg_s": get("solvers.solve", "self_s"),
        "contractions.pion_s": get("contractions.pion", "s"),
        "contractions.proton_s": get("contractions.proton", "s"),
        "contractions.fh_s": get("contractions.fh", "s"),
    }


def _solver_counts(results) -> dict[str, float]:
    """Exact counts from the SolveResults the solver shim kept."""
    solves = [r for name, r in results if name == "solvers.solve"]
    return {
        "solvers.solve_calls": len(solves),
        "solvers.iterations": sum(int(r.iterations) for r in solves),
        "solvers.matvecs": sum(int(r.matvecs) for r in solves),
    }


# ---------------------------------------------------------------------------
class GADirect(Workload):
    """24 one-at-a-time unpreconditioned solves + contractions, one process."""

    name = "ga_direct"

    def setup(self) -> None:
        from repro.core.pipeline import GAPipeline
        from repro.lattice.gauge import GaugeField
        from repro.lattice.geometry import Geometry

        self.gauge = GaugeField(Geometry(*GA["dims"]), np.load(self.inputs / "links.npy"))
        self.pipeline = GAPipeline(fermion="wilson", mass=GA["mass"], tol=GA["tol"])

    def unit(self) -> UnitOut:
        m = self.pipeline.measure(self.gauge)
        corr = {k: np.asarray(getattr(m, k)) for k in ("pion", "proton", "c_fh", "g_eff")}
        payload = b"".join(np.ascontiguousarray(corr[k]).tobytes() for k in sorted(corr))
        return UnitOut(payload, info={"corr": corr, "iterations": m.solver_iterations})

    def check(self, out, reference):
        corr = out.info["corr"]
        bad = [f"{k} not finite" for k, v in corr.items() if not np.all(np.isfinite(v))]
        if reference is not None:
            with np.load(reference) as ref:
                for k, v in corr.items():
                    atol = 1e-9 * float(np.max(np.abs(ref[k])))
                    if not np.allclose(v, ref[k], rtol=1e-6, atol=atol):
                        bad.append(f"{k} differs from {reference.name} beyond rtol 1e-6")
        return bad

    def layers(self, out, rec):
        spans = rec.summary()
        m = {**_span_metrics(spans), **_solver_counts(rec.results)}
        m["core.measure_other_s"] = out.info["unit_s"] - spans.get("top", {}).get("s", 0.0)
        return m


# ---------------------------------------------------------------------------
class Prop12DistR2(Workload):
    """12-RHS CGNE on 8^3x16 over 2 spawned ranks with real halo exchange."""

    name = "prop12_dist_r2"

    def setup(self) -> None:
        from repro.comm.distributed import DecompRuntime
        from repro.lattice.gauge import GaugeField
        from repro.lattice.geometry import Geometry

        self.gauge = GaugeField(Geometry(*PROP["dims"]), np.load(self.inputs / "links.npy"))
        self.b = np.load(self.inputs / "sources.npy")
        t0 = time.perf_counter()
        self.rt = DecompRuntime(
            self.gauge,
            PROP["mass"],
            ranks=PROP["ranks"],
            transport="processes",
            policy="blocking",
            engine="interpreted",
            max_rhs=PROP["n_rhs"],
        )
        self._stats = self.rt.halo_stats()  # returns once every rank is up
        self.spawn_s = time.perf_counter() - t0

    def unit(self) -> UnitOut:
        res = self.rt.solve_cgne(self.b, tol=PROP["tol"])
        bad = int(np.count_nonzero(~np.asarray(res.converged)))
        return UnitOut(
            np.ascontiguousarray(res.x),
            attempted=PROP["n_rhs"],
            failed=bad,
            info={"iterations": res.iterations, "matvecs": res.matvecs},
        )

    def finish(self, out) -> None:
        now = self.rt.halo_stats()
        out.info["halo"] = [
            {k: a[k] - b[k] for k in a if k != "engine"} for a, b in zip(now, self._stats)
        ]
        self._stats = now

    def check(self, out, reference):
        from repro.dirac.wilson import WilsonOperator

        x = out.payload
        if not np.all(np.isfinite(x)):
            return ["solution not finite"]
        r = self.b - WilsonOperator(self.gauge, mass=PROP["mass"]).apply(x)
        axes = tuple(range(1, r.ndim))
        rel = np.sqrt(np.sum(np.abs(r) ** 2, axis=axes) / np.sum(np.abs(self.b) ** 2, axis=axes))
        return [
            f"column {i}: true residual {v:.2e} > {10 * PROP['tol']:.0e}"
            for i, v in enumerate(rel)
            if not v <= 10 * PROP["tol"]
        ]

    def layers(self, out, rec):
        from repro.comm.distributed import DecompRuntime

        d = out.info["halo"]
        # the plain baseline: the same solve on one rank, no exchange
        with DecompRuntime(self.gauge, PROP["mass"], ranks=1, transport="threads",
                           max_rhs=PROP["n_rhs"]) as rt1:
            t0 = time.perf_counter()
            rt1.solve_cgne(self.b, tol=PROP["tol"])
            serial = time.perf_counter() - t0
        return {
            "solvers.solve_calls": 1,
            "solvers.iterations": out.info["iterations"],
            "solvers.matvecs": out.info["matvecs"],
            "comm.halo_rounds": d[0]["rounds"],
            "comm.halo_messages": sum(r["messages"] for r in d),
            "comm.halo_bytes": sum(r["bytes_sent"] for r in d),
            "comm.halo_wait_s": sum(r["wait_seconds"] for r in d) / len(d),
            "comm.interior_s": sum(r["interior_seconds"] for r in d) / len(d),
            "comm.spawn_s": self.spawn_s,
            "comm.serial_r1_s": serial,
            "comm.scaling_eff_r2": serial / (PROP["ranks"] * out.info["unit_s"]),
        }

    def teardown(self) -> None:
        self.rt.close()


# ---------------------------------------------------------------------------
class CampaignW2(Workload):
    """The Fig. 2 chain through the fault-tolerant runtime, 2 spawned workers."""

    name = "campaign_w2"

    def setup(self) -> None:
        from repro.runtime import build_from_spec

        spec = json.loads((self.inputs / "spec.json").read_text())
        self.graph, self.spec = build_from_spec(spec)

    def unit(self) -> UnitOut:
        from repro.runtime import CampaignConfig, CampaignRuntime, TaskStatus

        d = self._fresh_dir()
        cfg = CampaignConfig(workers=CAMPAIGN["workers"], pool="process", policy="metaq")
        rt = CampaignRuntime(d, cfg, self.spec)
        res = rt.run(self.graph)
        path = rt.store.path("assemble:correlators")
        payload = path.read_bytes() if path.exists() else b""
        not_done = sum(1 for s in res.status.values() if s != TaskStatus.DONE)
        return UnitOut(
            payload,
            attempted=len(res.status),
            failed=not_done,
            info={"dir": d, "res": res, "path": path},
        )

    def check(self, out, reference):
        from repro.io.container import FieldFile

        res = out.info["res"]
        bad = []
        if not res.all_done:
            bad.append("campaign did not complete every task")
        if res.retries or res.worker_deaths or res.timeouts:
            bad.append(f"{res.retries} retries, {res.worker_deaths} worker deaths, "
                       f"{res.timeouts} timeouts")
        try:
            ff = FieldFile.load(out.info["path"])
            bad += [f"{n} not finite" for n in ff.names() if not np.all(np.isfinite(ff[n]))]
        except (OSError, ValueError) as exc:
            bad.append(f"assembled container does not decode: {exc}")
        return bad

    def layers(self, out, rec):
        from repro.runtime import summarize
        from repro.runtime.telemetry import load_events

        d, res = out.info["dir"], out.info["res"]
        tele = summarize(d)
        kinds = {tid: t.kind for tid, t in self.graph.tasks.items()}
        m = {f"runtime.task_busy_s.{k}": 0.0 for k in set(kinds.values())}
        for sp in tele.spans:
            m[f"runtime.task_busy_s.{kinds[sp['task']]}"] += sp["end"] - sp["start"]
        solves = [e for e in load_events(d) if e.get("ev") == "solve_done"]
        ledger = (d / "ledger.jsonl").read_bytes()
        artifacts = list((d / "artifacts").glob("*.lq"))
        m.update({
            "solvers.solve_calls": len(solves),
            "solvers.iterations": sum(e["iterations"] for e in solves),
            "solvers.matvecs": sum(e["matvecs"] for e in solves),
            "runtime.makespan_s": res.makespan,
            "runtime.worker_idle_frac": tele.idle_fraction,
            "runtime.spawn_s": out.info["unit_s"] - res.makespan,
            "runtime.retries": res.retries,
            "runtime.worker_deaths": res.worker_deaths,
            "runtime.ledger_records": ledger.count(b"\n"),
            "runtime.ledger_bytes": len(ledger),
            "io.artifacts": len(artifacts),
            "io.container_bytes": sum(p.stat().st_size for p in artifacts),
            "io.checkpoints": tele.checkpoints,
        })
        return m


# ---------------------------------------------------------------------------
class ServiceDup3(Workload):
    """Many tiny campaigns, 3x duplicated, over real loopback HTTP."""

    name = "service_dup3"

    def setup(self) -> None:
        import repro.service  # noqa: F401  (import cost belongs to set-up)

        self.jobs = json.loads((self.inputs / "jobs.json").read_text())

    async def _drive(self, port: int) -> list[dict]:
        """Closed loop: each connection submits its next spec only after
        the previous result is ready."""
        from repro.service import ServiceClient

        client = ServiceClient(port=port)
        queue = iter(enumerate(self.jobs))
        rows: list[dict] = []

        async def connection() -> None:
            for k, job in queue:
                t0 = time.perf_counter()
                sub = await client.submit(job["spec"], tenant=job["tenant"])
                while True:
                    res = await client.result(sub["id"], timeout=5.0)
                    if res.get("ready"):
                        break
                rows.append({"k": k, "key": job["key"], "latency_s": time.perf_counter() - t0,
                             "cid": sub["id"], "res": res})

        await asyncio.gather(*(connection() for _ in range(SERVICE["connections"])))
        return sorted(rows, key=lambda r: r["k"])

    def unit(self) -> UnitOut:
        from repro.service import ServerThread, ServiceConfig

        d = self._fresh_dir()
        t0 = time.perf_counter()
        with ServerThread(d, ServiceConfig(workers=SERVICE["workers"])) as srv:
            start_s = time.perf_counter() - t0
            rows = asyncio.run(self._drive(srv.port))
            stats = srv.service.stats()
        return UnitOut(b"", info={"dir": d, "rows": rows, "stats": stats, "start_s": start_s})

    def finish(self, out: UnitOut) -> None:
        """Outside the timed region: read what was served, count failures."""
        first: dict[int, bytes] = {}
        failed = 0
        for row in out.info["rows"]:
            path = row["res"].get("artifact_files", {}).get("assemble:correlators")
            served = Path(path).read_bytes() if path and Path(path).exists() else None
            ok = row["res"].get("state") == "done" and served is not None
            if ok and first.setdefault(row["key"], served) != served:
                ok = False  # a duplicate must return the same bytes
            failed += not ok
        stats = out.info["stats"]
        counters = json.dumps([stats["cas"]["hits"], stats["dedup_attached"]]).encode()
        out.payload = b"".join(first[k] for k in sorted(first)) + counters
        out.attempted, out.failed = len(self.jobs), failed

    def check(self, out, reference):
        from repro.io.container import FieldFile

        bad = [f"submission {r['k']} ended {r['res'].get('state')!r}"
               for r in out.info["rows"] if r["res"].get("state") != "done"]
        if out.failed and not bad:
            bad.append("a duplicate submission returned different correlator bytes")
        if out.info["stats"].get("error"):
            bad.append(f"service error: {out.info['stats']['error']}")
        for row in out.info["rows"][:1]:
            ff = FieldFile.load(row["res"]["artifact_files"]["assemble:correlators"])
            bad += [f"{n} not finite" for n in ff.names() if not np.all(np.isfinite(ff[n]))]
        return bad

    def check_traced(self, out: UnitOut) -> list[str]:
        """Traced pass: one sampled spec equals a direct CampaignRuntime run."""
        from repro.runtime import CampaignConfig, CampaignRuntime, build_from_spec

        row = out.info["rows"][len(self.jobs) // 2]
        served = Path(row["res"]["artifact_files"]["assemble:correlators"]).read_bytes()
        graph, canonical = build_from_spec(self.jobs[row["k"]]["spec"])
        rt = CampaignRuntime(self._fresh_dir(), CampaignConfig(workers=1, pool="thread"), canonical)
        res = rt.run(graph)
        direct = rt.store.path("assemble:correlators").read_bytes() if res.all_done else b""
        shutil.rmtree(rt.workdir, ignore_errors=True)
        return [] if direct == served else ["served correlators differ from a direct run"]

    def layers(self, out, rec):
        rows, stats = out.info["rows"], out.info["stats"]
        seen: set[int] = set()
        hit, miss = [], []
        for r in rows:  # the first submission of a spec solves, the rest hit
            (hit if r["key"] in seen else miss).append(r["latency_s"])
            seen.add(r["key"])
        entries = {r["cid"]: r["res"] for r in rows}
        requested = sum(r["res"]["n_tasks"] for r in rows)
        solved = sum(e["n_tasks"] - e["cache_hits"] - e["tasks_reused"] for e in entries.values())
        busy = [t["busy_seconds"] for t in stats["tenants"].values()]
        m = {**_span_metrics(rec.summary()), **_solver_counts(rec.results)}
        m.update({
            "service.submissions": stats["submissions"],
            "service.dedup_attached": stats["dedup_attached"],
            "service.cas_hits": stats["cas"]["hits"],
            "service.cas_puts": stats["cas"]["puts"],
            "service.task_cache_hit_rate": 1.0 - solved / requested,
            "service.hit_latency_p50_s": float(np.median(hit)),
            "service.miss_latency_p50_s": float(np.median(miss)),
            "service.miss_latency_max_s": max(miss),
            "service.start_s": out.info["start_s"],
            "service.tenant_busy_jain": sum(busy) ** 2 / (len(busy) * sum(b * b for b in busy)),
            "io.artifacts": sum(1 for _ in out.info["dir"].rglob("*.lq")),
        })
        return m


WORKLOADS = {w.name: w for w in (GADirect, Prop12DistR2, CampaignW2, ServiceDup3)}
