"""Fault injection for the serving stack.

:mod:`repro.faults.injector` delivers deterministic, seedable backend
misbehavior (busy errors, slow-query stalls, connection death,
retirement races) at hooks threaded through :mod:`repro.sql.backend`
and :mod:`repro.service.pool`.  The fault storm
(:func:`repro.workloads.soak.run_soak`, ``repro serve-bench``) holds
the service to its contract under that misbehavior: every query
returns a correct answer or a clean typed error — never wrong, never
stale — and every injected fault is accounted for as retried,
degraded, or surfaced.

See ``docs/robustness.md`` for the failure model and reproduction
workflow.
"""

from repro.faults.injector import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    InjectedOperationalError,
    active,
    injection,
    install,
    is_injected,
    on_execute,
    on_lease,
    suppressed,
    uninstall,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "InjectedOperationalError",
    "active",
    "injection",
    "install",
    "is_injected",
    "on_execute",
    "on_lease",
    "suppressed",
    "uninstall",
]
