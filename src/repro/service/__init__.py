"""Anonymization-as-a-service on top of the repro library.

The service layer turns the one-shot publishing API into a long-lived
register-once/publish-many system:

* :mod:`repro.service.registry` — the dataset registry (with in-memory
  personal-group indexes) and the job store, persisted write-through over
  a :mod:`repro.store` connector;
* :mod:`repro.service.engine` — :class:`AnonymizationService`, the facade
  executing publish/audit jobs.  A request's ``backend`` names any
  registered :mod:`repro.pipeline` strategy (``sps``, ``uniform``,
  ``dp-laplace``, ``dp-gaussian``, ``generalize+sps``, and any strategy
  registered later), and every job runs under one lifecycle;
* :mod:`repro.service.cli` — ``python -m repro.service`` / ``repro-service``.

The HTTP front end is :mod:`repro.serve` (``repro-serve``, or
``repro-service serve``).
"""

from repro.service.engine import AnonymizationService, backend_defaults
from repro.service.models import AuditSummary, JobRecord, JobSpec, JobTimings
from repro.service.registry import (
    DatasetEntry,
    DatasetRegistry,
    JobStore,
    NotFoundError,
    ServiceError,
)

__all__ = [
    "AnonymizationService",
    "AuditSummary",
    "DatasetEntry",
    "DatasetRegistry",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "JobTimings",
    "NotFoundError",
    "ServiceError",
    "backend_defaults",
]
