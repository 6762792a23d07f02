"""One scheduling decision on two clocks.

The runtime's policies (``repro.runtime.policies``) decide what starts
both on real workers (``select``) and on the simulator's virtual clock
(``repro.cluster.Dispatch``); these tests hold the two to the same
answer, plus the modeled managers' edge cases.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSim, Dispatch, Task, first_fit
from repro.cluster.trace import render_gantt
from repro.jobmgr import MpiJm, MpiJmConfig
from repro.runtime.policies import POLICIES
from repro.runtime.tasks import CampaignTask


def _task(name: str, cpu_only: bool = False, work: float = 100.0) -> Task:
    """A one-slot task: every node below has exactly one CPU slot."""
    return Task(
        name=name, n_nodes=1, gpus_per_node=0 if cpu_only else 1, cpus_per_node=1, work=work
    )


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(sorted(POLICIES)),
    cpu_only=st.lists(st.booleans(), max_size=30),
    k=st.integers(1, 8),
    n_running=st.integers(0, 3),
)
def test_first_pump_starts_what_select_dispatches(policy, cpu_only, k, n_running):
    ready = [CampaignTask(f"t{i}", "sleep", cpu_only=c) for i, c in enumerate(cpu_only)]
    expected = POLICIES[policy].select(ready, list(range(k)), n_running)

    sim = ClusterSim(n_running + k, gpus_per_node=1, cpus_per_node=1, rng=0)
    dispatch = Dispatch(sim, POLICIES[policy], partial(first_fit, sim))
    for i in range(n_running):
        dispatch.submit(_task(f"busy{i}"))
    dispatch.pump()  # the running tasks hold the first n_running nodes
    assert len(dispatch.running) == n_running
    for t in ready:
        dispatch.submit(_task(t.task_id, t.cpu_only))
    dispatch.pump()
    started = list(dispatch.running)[n_running:]
    assert [(t.nodes[0] - n_running, t.name) for t in started] == expected


def test_a_killed_job_never_calls_mpi_abort():
    """B's abort point (90 s) falls after A's abort (50 s) killed it: the
    retries run clean, as the abort is consumed."""
    sim = ClusterSim(4, 4, 40, rng=0, perf_jitter=0.0)
    jm = MpiJm(
        sim,
        MpiJmConfig(lump_size=4, block_size=4, spawn_overhead_s=0.0),
        include_startup=False,
    )
    makespan = jm.run([_task("A"), _task("B")], abort_spec={"A": 0.5, "B": 0.9})
    assert makespan == 150.0
    assert jm.stats.aborts_observed == 1
    assert jm.stats.tasks_killed_by_abort == 2


def test_gantt_paints_only_the_bins_a_task_overlaps():
    sim = ClusterSim(2, 1, 1, rng=0, perf_jitter=0.0)
    sim.start_task(_task("half", work=5.0), [0])
    sim.start_task(_task("all", work=10.0), [1])
    sim.run()
    rows = render_gantt(sim, width=10).splitlines()
    assert rows[0].endswith("|#####.....|")
    assert rows[1].endswith("|##########|")
