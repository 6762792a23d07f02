"""Executed campaign runtime (Section V, for real this time).

Where :mod:`repro.cluster` and :mod:`repro.jobmgr` *model* the paper's
job-management layer with a discrete-event simulator, this package
*executes* it: heterogeneous lattice tasks (gauge fixing, smearing,
checkpointed propagator solves, Feynman-Hellmann sequential solves,
contractions) run as a dependency DAG on a pool of real worker
processes, scheduled by naive-bundling / METAQ-backfill / mpi_jm-style
policies, surviving worker death, task timeouts and poison tasks, and
resuming whole campaigns from a write-ahead ledger.

Layout::

    tasks.py       CampaignTask + validated TaskGraph
    builder.py     the gA workflow as a graph (and test graphs)
    policies.py    naive / metaq / mpijm scheduling policies
    worker.py      process & thread worker pools
    exec_tasks.py  the physics executors (workers import them at boot,
                   the driver never)
    checkpoint.py  per-task solver checkpoint files
    faults.py      deterministic scripted fault injection
    ledger.py      fsynced write-ahead ledger (the campaign's one log) + replay
    telemetry.py   ledger -> utilization summaries
    core.py        the pure scheduling state machine (retry, backoff,
                   quarantine, worker loss)
    loop.py        the one driver loop over N campaigns and one pool,
                   and the config validation both drivers share
    campaign.py    the loop's one-campaign configuration (repro.service
                   is its many-campaign one)
    report.py      reports + executed-vs-modeled cross-validation
    cli.py         the ``repro-campaign`` entry point

The package exports what its callers import; everything else is
imported from its module.
"""

from repro.runtime.builder import build_from_spec, build_ga_campaign, build_sleep_campaign
from repro.runtime.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignResult,
    CampaignRuntime,
    LedgerMismatchError,
    WorkerStormError,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.ledger import TaskLedger, replay_ledger
from repro.runtime.tasks import CampaignTask, TaskGraph, TaskStatus
from repro.runtime.telemetry import summarize

__all__ = [
    "CampaignTask",
    "TaskGraph",
    "TaskStatus",
    "build_ga_campaign",
    "build_sleep_campaign",
    "build_from_spec",
    "CampaignConfig",
    "CampaignError",
    "CampaignResult",
    "CampaignRuntime",
    "LedgerMismatchError",
    "WorkerStormError",
    "FaultPlan",
    "FaultSpec",
    "TaskLedger",
    "replay_ledger",
    "summarize",
]
