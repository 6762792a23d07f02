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
    exec_tasks.py  the physics executors (run inside workers)
    checkpoint.py  per-task solver checkpoint files
    faults.py      deterministic scripted fault injection
    ledger.py      fsynced write-ahead ledger + replay
    telemetry.py   JSONL event streams + utilization summaries
    core.py        the pure scheduling state machine (retry, backoff,
                   quarantine, worker loss) shared with repro.service
    campaign.py    its single-campaign shell: pool, ledger, the driver loop
    report.py      reports + executed-vs-modeled cross-validation
    cli.py         the ``repro-campaign`` entry point
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
from repro.runtime.faults import FaultPlan, FaultSpec, WorkerKilled
from repro.runtime.ledger import (
    LedgerCollisionError,
    LedgerState,
    TaskLedger,
    open_campaign_ledger,
    replay_ledger,
)
from repro.runtime.policies import POLICIES, make_policy
from repro.runtime.tasks import CampaignTask, TaskGraph, TaskStatus
from repro.runtime.telemetry import TelemetrySummary, TelemetryWriter, summarize

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
    "WorkerKilled",
    "TaskLedger",
    "LedgerState",
    "LedgerCollisionError",
    "open_campaign_ledger",
    "replay_ledger",
    "POLICIES",
    "make_policy",
    "TelemetryWriter",
    "TelemetrySummary",
    "summarize",
]
