"""Simulation-as-a-service: HTTP/JSON front end over the sweep engine.

The package splits along the request path:

* :mod:`repro.service.spec` — request validation, canonicalization and
  content keys (what deduplicates against what);
* :mod:`repro.service.scheduler` — weighted max-min slot sharing, token
  buckets and bounded queues (who runs next, who gets a 429);
* :mod:`repro.service.jobs` — job lifecycle, follower coalescing and
  progress pub/sub;
* :mod:`repro.service.http` — minimal asyncio HTTP/1.1 + NDJSON
  streaming (stdlib only);
* :mod:`repro.service.server` — the :class:`Service` itself: intake,
  fair item dispatch onto the worker pool, graceful shutdown and
  restart;
* :mod:`repro.service.client` — the blocking client the CLI, tests and
  load benchmark share.

See ``docs/architecture.md`` ("Service layer") for the API schema and
the byte-identity contract with direct :class:`ExperimentRunner` use.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobStore
from repro.service.scheduler import (
    FairScheduler,
    QueueFull,
    RateLimited,
    TokenBucket,
    parse_tenants,
)
from repro.service.server import BackgroundService, Service, ServiceSettings
from repro.service.spec import JobSpec, SpecError

__all__ = [
    "BackgroundService",
    "FairScheduler",
    "Job",
    "JobSpec",
    "JobStore",
    "QueueFull",
    "RateLimited",
    "Service",
    "ServiceClient",
    "ServiceError",
    "ServiceSettings",
    "SpecError",
    "TokenBucket",
    "parse_tenants",
]
