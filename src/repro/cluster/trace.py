"""ASCII Gantt rendering of a simulated campaign.

Turns the completed-task record of a :class:`ClusterSim` into the
utilization timeline a scheduler developer stares at: one row per node,
time binned into columns, idle gaps visible at a glance.  Used by the
job-manager example and handy when debugging new scheduling policies.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simulator import ClusterSim

__all__ = ["utilization_timeline", "render_gantt"]


def utilization_timeline(sim: ClusterSim, n_bins: int = 60) -> np.ndarray:
    """Fraction of GPUs busy per time bin over the makespan."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if not sim.completed or sim.now <= 0:
        return np.zeros(n_bins)
    total_gpus = sum(n.gpus_total for n in sim.nodes)
    edges = np.linspace(0.0, sim.now, n_bins + 1)
    busy = np.zeros(n_bins)
    for task in sim.completed:
        gpus = task.gpus_per_node * task.n_nodes
        if gpus == 0:
            continue
        lo = np.searchsorted(edges, task.start_time, side="right") - 1
        hi = np.searchsorted(edges, task.end_time, side="left")
        for b in range(max(lo, 0), min(hi, n_bins)):
            overlap = min(task.end_time, edges[b + 1]) - max(task.start_time, edges[b])
            if overlap > 0:
                busy[b] += gpus * overlap
    widths = np.diff(edges)
    return busy / (total_gpus * widths)


def render_gantt(sim: ClusterSim, width: int = 60, max_nodes: int = 24) -> str:
    """Per-node occupancy chart: ``#`` busy, ``.`` idle.

    Shows at most ``max_nodes`` rows (the first nodes), one column per
    time bin, plus a footer with the aggregate utilization sparkline.
    """
    if not sim.completed or sim.now <= 0:
        return "(no completed work to render)"
    n_nodes = min(len(sim.nodes), max_nodes)
    edges = np.linspace(0.0, sim.now, width + 1)
    grid = np.zeros((n_nodes, width), dtype=bool)
    for task in sim.completed:
        if task.gpus_per_node == 0:
            continue
        lo = np.searchsorted(edges, task.start_time, side="right") - 1
        hi = np.searchsorted(edges, task.end_time, side="left")
        for node in task.nodes:
            if node < n_nodes:
                grid[node, max(lo, 0) : min(hi, width)] = True
    lines = []
    for node in range(n_nodes):
        row = "".join("#" if cell else "." for cell in grid[node])
        lines.append(f"node {node:3d} |{row}|")
    util = utilization_timeline(sim, n_bins=width)
    blocks = " _.:-=+*#%@"
    spark = "".join(blocks[min(int(u * (len(blocks) - 1)), len(blocks) - 1)] for u in util)
    lines.append(f"GPU util |{spark}|  (t = 0 .. {sim.now:.0f}s)")
    return "\n".join(lines)
