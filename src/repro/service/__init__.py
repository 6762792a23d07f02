"""Campaign-as-a-service: the multi-tenant async campaign server.

Where :class:`repro.runtime.CampaignRuntime` runs *one* campaign per
call, this package serves *many* through the same driver loop
(:class:`repro.runtime.loop.DriverLoop`): a long-running asyncio
HTTP/JSON API accepts campaign specs from multiple tenants, multiplexes
their task DAGs over one shared worker pool with per-tenant quotas,
fair-share weighting and priority aging (the mpi_jm lump/block policy
generalized from tasks-within-a-campaign to campaigns-within-a-service),
admits the queue in bounded windows the way ``filipjs/Simulator`` slices
huge job streams into blocks, and caches every result content-addressed
by the canonical fingerprint of its spec — so the millions-of-users
traffic shape (grids of near-identical solves) hits the propagator store
instead of re-solving.

Layout::

    fingerprint.py  canonical spec + per-task content fingerprints
    cache.py        content-addressed artifact store (task-level CAS)
    scheduler.py    tenant fair share, priority aging, admission windows
    driver.py       CampaignService: the loop's many-campaign configuration
    server.py       asyncio HTTP server (REST + chunked /events)
    client.py       asyncio client (the end-to-end benchmark's service_dup3)
    cli.py          the ``repro-serve`` entry point

The package exports what its callers import; everything else is
imported from its module.
"""

from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.driver import CampaignService, CampaignState, ServiceConfig
from repro.service.fingerprint import SpecError
from repro.service.scheduler import TenantConfig
from repro.service.server import ServerThread

__all__ = [
    "CampaignService",
    "CampaignState",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHTTPError",
    "SpecError",
    "TenantConfig",
]
