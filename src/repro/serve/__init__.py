"""repro.serve — the anonymization service's HTTP front end.

Wraps the service's routing table
(:class:`~repro.serve.router.ServiceRouter`) in an asyncio front end with
three scale controls:

- :class:`~repro.serve.queue.BoundedDispatcher` — a fixed worker pool fed
  by a bounded queue; overload answers ``429`` + ``Retry-After`` instead
  of stacking threads.
- :class:`~repro.serve.cache.ResponseCache` — an in-memory request-level
  cache for audits, keyed on the dataset's generation and resolved
  parameters, invalidated on re-register and delta appends.
- ``repro.obs`` instruments (``repro_serve_request_seconds``,
  ``repro_serve_queue_depth``, ``repro_serve_cache_hits_total``) exported
  by the ``/metrics`` endpoint it serves.

Run it with ``repro-serve`` (or ``repro-service serve``) or embed
:class:`ServingFrontend` directly;
``repro-bench run --suite serve`` measures it under concurrent load.
"""

from repro.serve.cache import CachedResponse, ResponseCache
from repro.serve.frontend import ServingFrontend
from repro.serve.queue import BoundedDispatcher, QueueFullError
from repro.serve.router import RouteResult, ServiceRouter

__all__ = [
    "BoundedDispatcher",
    "CachedResponse",
    "QueueFullError",
    "ResponseCache",
    "RouteResult",
    "ServiceRouter",
    "ServingFrontend",
]
