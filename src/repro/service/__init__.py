"""The query service layer: compile-once, execute-many, N workers.

The paper isolates the join graph so that one compiled SQL block can
let the RDBMS do the heavy lifting; this package adds the serving
economics on top — a compiled-plan LRU (:class:`CompiledQueryCache`),
a thread-safe shared-cache SQLite connection pool
(:class:`BackendPool`), the one serving class :class:`ShardedService`
(one shard or many, with batch/concurrent execution), and the asyncio
multi-tenant
:class:`FrontDoor` (per-tenant quotas, weighted-fair admission, and
batches drained whenever an execution slot frees, with identical
canonical plans coalesced into one execution).  See
``docs/performance.md`` and ``docs/serving.md``.
"""

from repro.service.cache import (
    CacheKey,
    CacheStats,
    CompiledQueryCache,
    TierStats,
)
from repro.service.frontdoor import FrontDoor
from repro.service.pool import BackendPool
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.service.scatter import ShardedService
from repro.service.tenancy import TenantSpec, TokenBucket, WeightedFairQueue
from repro.service.views import MaterializedView, ViewManager

__all__ = [
    "BackendPool",
    "CacheKey",
    "CacheStats",
    "CircuitBreaker",
    "CompiledQueryCache",
    "Deadline",
    "FrontDoor",
    "MaterializedView",
    "RetryPolicy",
    "ShardedService",
    "TenantSpec",
    "TierStats",
    "TokenBucket",
    "ViewManager",
    "WeightedFairQueue",
]
