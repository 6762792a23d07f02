"""METAQ and mpi_jm: backfilling, blocks, co-scheduling, startup."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSim, NaiveBundler, Task, WorkloadSpec, make_propagator_workload
from repro.machines.mpi import MPI_IMPLEMENTATIONS
from repro.jobmgr import METAQ, MpiJm, MpiJmConfig, startup_time
from repro.machines import get_machine


def _sierra_sim(n_nodes=32, rng=0, jitter=0.03):
    m = get_machine("sierra")
    return ClusterSim(n_nodes, m.gpus_per_node, m.cpu_slots_per_node, rng=rng, perf_jitter=jitter)


def _workload(n=60, rng=0, sigma=0.18):
    sierra = get_machine("sierra")
    spec = WorkloadSpec(n_propagators=n, cg_iterations=1500, duration_sigma=sigma)
    return make_propagator_workload(sierra, spec, rng=rng)


class TestMETAQ:
    def test_completes_everything(self):
        sim = _sierra_sim()
        mq = METAQ(sim)
        mq.run(_workload(40))
        assert len(sim.completed) == 40
        assert mq.stats.tasks_launched == 40
        assert mq.stats.mpirun_invocations == 40

    def test_recovers_naive_idle_time(self):
        """Section V: naive bundling idles 20-25%; METAQ recovers it."""
        tasks = _workload(80, rng=3)
        sim_naive = _sierra_sim(rng=5)
        t_naive = NaiveBundler(sim_naive).run(tasks)
        sim_mq = _sierra_sim(rng=5)
        t_mq = METAQ(sim_mq).run(tasks)
        speedup = t_naive / t_mq
        assert speedup > 1.10
        assert sim_mq.gpu_utilization() > sim_naive.gpu_utilization() + 0.05

    def test_naive_idle_in_paper_band(self):
        """The naive baseline itself idles ~20-35% of GPU time."""
        tasks = _workload(80, rng=4)
        sim = _sierra_sim(rng=6)
        NaiveBundler(sim).run(tasks)
        idle = 1.0 - sim.gpu_utilization()
        assert 0.10 < idle < 0.40

    def test_section_v_band_at_allocation_scale(self):
        """160 jittered solves on 64 nodes: naive bundling idles 15-35 %,
        METAQ idles < 12 % and finishes 1.15-1.45x sooner."""
        sierra = get_machine("sierra")
        spec = WorkloadSpec(n_propagators=160, cg_iterations=1500, duration_sigma=0.25)
        tasks = make_propagator_workload(sierra, spec, rng=21)
        sim_naive = ClusterSim(64, sierra.gpus_per_node, sierra.cpu_slots_per_node, rng=22)
        t_naive = NaiveBundler(sim_naive).run(tasks)
        sim_mq = ClusterSim(64, sierra.gpus_per_node, sierra.cpu_slots_per_node, rng=22)
        t_mq = METAQ(sim_mq).run(tasks)
        assert 0.15 < 1.0 - sim_naive.gpu_utilization() < 0.35
        assert 1.0 - sim_mq.gpu_utilization() < 0.12
        assert 1.15 < t_naive / t_mq < 1.45

    def test_fragmentation_penalized_with_mixed_sizes(self):
        """Differently-sized jobs churn the free list; METAQ lands some
        multi-node jobs on scattered nodes and pays for it."""
        rng = np.random.default_rng(7)
        tasks = []
        for i in range(60):
            n_nodes = int(rng.choice([1, 2, 4]))
            tasks.append(
                Task(
                    name=f"j{i}",
                    n_nodes=n_nodes,
                    gpus_per_node=4,
                    cpus_per_node=2,
                    work=float(rng.uniform(50, 300)),
                    flops=1e12,
                )
            )
        sim = _sierra_sim(n_nodes=16, rng=8)
        mq = METAQ(sim)
        mq.run(tasks)
        assert mq.stats.fragmented_launches > 0
        assert mq.stats.worst_contiguity < 1.0

    def test_impossible_task_raises(self):
        sim = _sierra_sim(n_nodes=2)
        with pytest.raises(RuntimeError):
            METAQ(sim).run(_workload(2))  # 4-node jobs on 2 nodes

    def test_topology_penalty_mode(self):
        """With a fat tree attached, scattered placements pay the
        leaf-oversubscription cost rather than the heuristic one."""
        from repro.machines.topology import TOPOLOGIES

        rng = np.random.default_rng(40)
        tasks = []
        for i in range(40):
            n_nodes = int(rng.choice([1, 2, 4]))
            tasks.append(
                Task(name=f"j{i}", n_nodes=n_nodes, gpus_per_node=4,
                     cpus_per_node=2, work=float(rng.uniform(50, 200)), flops=1e12)
            )
        sim = _sierra_sim(n_nodes=16, rng=41)
        mq = METAQ(sim, topology=TOPOLOGIES["sierra"], comm_sensitivity=0.5)
        mq.run(tasks)
        penalties = [t.placement_penalty for t in sim.completed if t.n_nodes > 1]
        assert all(p >= 1.0 for p in penalties)
        # 16 nodes fit under one 18-node leaf: no spine crossings here.
        assert max(penalties) == pytest.approx(1.0)
        sim2 = _sierra_sim(n_nodes=64, rng=41)
        mq2 = METAQ(sim2, topology=TOPOLOGIES["sierra"], comm_sensitivity=0.5)
        mq2.run(tasks)
        penalties2 = [t.placement_penalty for t in sim2.completed if t.n_nodes > 1]
        # with several leaves in play some jobs straddle the spine
        assert max(penalties2) > 1.0


class TestMpiJmConfig:
    def test_block_must_divide_lump(self):
        with pytest.raises(ValueError):
            MpiJmConfig(lump_size=10, block_size=4)

    def test_spectrum_rejected(self):
        """SpectrumMPI lacks DPM: mpi_jm refuses to run on it."""
        with pytest.raises(ValueError):
            MpiJmConfig(mpi=MPI_IMPLEMENTATIONS["spectrum"])

    def test_mvapich2_accepted(self):
        cfg = MpiJmConfig(mpi=MPI_IMPLEMENTATIONS["mvapich2"])
        assert cfg.mpi.dpm_supported


class TestMpiJm:
    def test_runs_workload_in_blocks(self):
        sim = _sierra_sim()
        jm = MpiJm(sim, MpiJmConfig(lump_size=16, block_size=4), include_startup=False)
        jm.run(_workload(40))
        assert len(sim.completed) == 40
        assert jm.stats.blocks == 8
        assert jm.stats.lumps == 2

    def test_no_fragmentation_ever(self):
        """Blocks confine every job to one close-together node group —
        the design fix over METAQ's scattered first-fit."""
        sim = _sierra_sim()
        jm = MpiJm(sim, MpiJmConfig(lump_size=16, block_size=4), include_startup=False)
        jm.run(_workload(40))
        for t in sim.completed:
            assert max(t.nodes) // 4 == min(t.nodes) // 4  # one block
            assert t.placement_penalty == 1.0

    def test_oversized_job_rejected(self):
        sim = _sierra_sim()
        jm = MpiJm(sim, MpiJmConfig(lump_size=16, block_size=4), include_startup=False)
        big = Task(name="big", n_nodes=8, gpus_per_node=4, cpus_per_node=2, work=10.0)
        with pytest.raises(ValueError):
            jm.run([big])

    def test_cpu_overlay_on_gpu_busy_nodes(self):
        """CPU tasks run on nodes whose GPUs are occupied — co-scheduling."""
        sim = _sierra_sim(n_nodes=4)
        jm = MpiJm(sim, MpiJmConfig(lump_size=4, block_size=4), include_startup=False)
        gpu = Task(name="g", n_nodes=4, gpus_per_node=4, cpus_per_node=2, work=100.0)
        cpu = Task(name="c", n_nodes=1, gpus_per_node=0, cpus_per_node=8, work=10.0)
        jm.run([gpu], cpu_tasks=[cpu])
        done = {t.name: t for t in sim.completed}
        # The CPU task ran while the GPU task was still running.
        assert done["c"].start_time < done["g"].end_time
        assert jm.stats.cpu_tasks == 1

    def test_released_tasks_scheduled(self):
        sim = _sierra_sim(n_nodes=4)
        jm = MpiJm(sim, MpiJmConfig(lump_size=4, block_size=4), include_startup=False)
        gpu = Task(name="g", n_nodes=4, gpus_per_node=4, cpus_per_node=2, work=50.0)
        follow = Task(name="f", n_nodes=1, gpus_per_node=0, cpus_per_node=4, work=5.0)
        jm.run([gpu], on_gpu_complete=lambda t: [follow] if t.name == "g" else [])
        names = {t.name for t in sim.completed}
        assert names == {"g", "f"}

    def test_lump_failures_ignored_but_work_finishes(self):
        sim = _sierra_sim(n_nodes=32, rng=9)
        jm = MpiJm(
            sim,
            MpiJmConfig(lump_size=8, block_size=4),
            include_startup=False,
            lump_failure_prob=0.5,
        )
        jm.run(_workload(12, rng=10))
        assert jm.stats.lumps_failed >= 1
        assert len(sim.completed) == 12

    def test_startup_included_in_makespan(self):
        sim = _sierra_sim(n_nodes=16)
        jm = MpiJm(sim, MpiJmConfig(lump_size=16, block_size=4), include_startup=True)
        makespan = jm.run(_workload(8, rng=11))
        assert makespan > jm.stats.startup_seconds > 0


class TestAborts:
    """The MPI_Abort-takes-the-lump-down behaviour of Section V."""

    def _run(self, lump_size, abort_spec, n_tasks=12, n_nodes=16):
        sim = _sierra_sim(n_nodes=n_nodes, rng=30)
        jm = MpiJm(
            sim,
            MpiJmConfig(lump_size=lump_size, block_size=4),
            include_startup=False,
        )
        tasks = _workload(n_tasks, rng=31)
        makespan = jm.run(tasks, abort_spec=abort_spec)
        return sim, jm, makespan

    def test_abort_kills_lumpmates_but_work_completes(self):
        sim, jm, _ = self._run(8, {"prop-00002": 0.5})
        assert jm.stats.aborts_observed == 1
        assert jm.stats.tasks_killed_by_abort >= 2  # victim + lumpmate
        assert len(sim.completed) == 12  # everything requeued and finished

    def test_abort_costs_time(self):
        _, _, clean = self._run(8, {})
        _, _, dirty = self._run(8, {"prop-00002": 0.5})
        assert dirty > clean

    def test_small_lumps_limit_blast_radius(self):
        """The paper's mitigation: small lumps on flaky systems."""
        _, jm_small, _ = self._run(4, {"prop-00002": 0.5})
        _, jm_big, _ = self._run(16, {"prop-00002": 0.5})
        assert jm_small.stats.tasks_killed_by_abort <= jm_big.stats.tasks_killed_by_abort

    def test_big_lumps_take_collateral_damage(self):
        """Three aborts in 32-node lumps kill more jobs than aborted."""
        sierra = get_machine("sierra")
        tasks = make_propagator_workload(
            sierra, WorkloadSpec(n_propagators=24, cg_iterations=1500), rng=63
        )
        aborts = {"prop-00003": 0.6, "prop-00011": 0.4, "prop-00017": 0.5}
        jm = MpiJm(ClusterSim(32, 4, 40, rng=64), MpiJmConfig(lump_size=32, block_size=4),
                   include_startup=False)
        jm.run(tasks, abort_spec=dict(aborts))
        assert jm.stats.tasks_killed_by_abort > len(aborts)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            self._run(8, {"prop-00000": 1.5})

    def test_kill_requires_running(self):
        sim = _sierra_sim(n_nodes=4, rng=32)
        t = Task(name="x", n_nodes=1, gpus_per_node=1, cpus_per_node=1, work=1.0)
        with pytest.raises(RuntimeError):
            sim.kill_task(t)


class TestStartupModel:
    def test_sierra_4224_nodes_three_to_five_minutes(self):
        """The paper's claim: 4224 nodes running in 3-5 minutes."""
        t = startup_time(4224, lump_size=128)
        assert 180.0 <= t <= 300.0

    def test_scales_mildly_with_nodes(self):
        """Partitioned startup avoids the non-linear large-job cost:
        10x the nodes is far less than 10x the startup."""
        t_small = startup_time(422, lump_size=128)
        t_large = startup_time(4224, lump_size=128)
        assert t_large < 3.0 * t_small

    def test_validation(self):
        with pytest.raises(ValueError):
            startup_time(0)
