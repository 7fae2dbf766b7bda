"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failing subsystem.

Every class carries a stable, machine-readable ``code`` attribute
(dotted, ``repro.<subsystem>[.<condition>]``) for log pipelines and
API clients that must branch on failure kind without string-matching
messages.  Codes are part of the public API surface: they never change
for an existing class.  :class:`SanitizerError` refines its class code
per *instance* with the sanitizer's diagnostic code (``JGI…``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    code = "repro.error"


class XMLParseError(ReproError):
    """Raised when XML text is not well-formed.

    Carries the (1-based) ``line`` and ``column`` of the offending input
    position when known.
    """

    code = "repro.xml.parse"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class XQuerySyntaxError(ReproError):
    """Raised when an XQuery expression cannot be parsed."""

    code = "repro.xquery.syntax"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class XQueryTypeError(ReproError):
    """Raised when an XQuery expression is outside the supported fragment
    or violates the static typing rules of the workhorse dialect."""

    code = "repro.xquery.type"


class CompileError(ReproError):
    """Raised when loop-lifting compilation fails."""

    code = "repro.compile"


class RewriteError(ReproError):
    """Raised when join graph isolation encounters an inconsistent plan."""

    code = "repro.rewrite"


class SanitizerError(RewriteError):
    """Raised by the plan sanitizer (:mod:`repro.analysis.rulecheck`)
    when a rewrite-rule application breaks a plan invariant or changes
    plan semantics.

    Carries the stable diagnostic ``code`` (``JGI…``), the offending
    ``rule`` name, and the full :class:`repro.analysis.Diagnostic`
    list.
    """

    code = "repro.rewrite.sanitizer"

    def __init__(self, message: str, code: str, rule: str, diagnostics=()):
        super().__init__(message)
        self.code = code
        self.rule = rule
        self.diagnostics = list(diagnostics)


class AnalysisError(ReproError):
    """Raised by the static-analysis subsystem on internal
    inconsistencies — e.g. a containment witness that fails its
    independent re-verification (:mod:`repro.analysis.containment`)."""

    code = "repro.analysis"


class CodegenError(ReproError):
    """Raised when an isolated plan cannot be rendered as a single
    SELECT-DISTINCT-FROM-WHERE-ORDER BY block."""

    code = "repro.codegen"


class PlanError(ReproError):
    """Raised by the relational optimizer / physical engine."""

    code = "repro.plan"


class DocumentError(ReproError):
    """Raised when a referenced document URI is unknown to the store."""

    code = "repro.store.document"


class ServiceError(ReproError):
    """Base class for serving-layer failures (:mod:`repro.service`).

    Every subclass is a *clean, typed* outcome: the query was not
    answered, but the service state is intact and no partial or stale
    result escaped.  See ``docs/robustness.md`` for the failure model.
    """

    code = "repro.service"


class DeadlineExceeded(ServiceError):
    """The per-query deadline elapsed before a result was produced.

    Carries the ``budget`` (seconds granted) and ``elapsed`` (seconds
    actually spent) when known.  Raised by the deadline guard after the
    in-flight SQLite statement has been cancelled via the progress
    handler, so the backend connection is immediately reusable.
    """

    code = "repro.service.deadline"

    def __init__(
        self,
        message: str = "query deadline exceeded",
        budget: float | None = None,
        elapsed: float | None = None,
    ):
        if budget is not None:
            message = f"{message} (budget {budget:.3f}s"
            if elapsed is not None:
                message += f", elapsed {elapsed:.3f}s"
            message += ")"
        super().__init__(message)
        self.budget = budget
        self.elapsed = elapsed


class ServiceOverloaded(ServiceError):
    """Admission control fast-fail: the service already holds its
    configured maximum of in-flight/queued queries.  The caller should
    back off and resubmit; nothing was executed."""

    code = "repro.service.overloaded"


class QuotaExceeded(ServiceError):
    """Multi-tenant admission fast-fail: the tenant's token-bucket
    quota is exhausted for the current window (:mod:`repro.service.
    tenancy`).  Unlike :class:`ServiceOverloaded` — which signals that
    the *service* is saturated — this is a per-tenant verdict: other
    tenants are still being served.  Carries the ``tenant`` name and
    the ``retry_after_s`` hint (seconds until the bucket can grant one
    token again) when known."""

    code = "repro.service.quota"

    def __init__(
        self,
        message: str = "tenant quota exceeded",
        tenant: str | None = None,
        retry_after_s: float | None = None,
    ):
        if tenant is not None:
            message = f"{message} (tenant {tenant!r}"
            if retry_after_s is not None:
                message += f", retry after {retry_after_s:.3f}s"
            message += ")"
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class BackendUnavailable(ServiceError):
    """The backend kept failing after bounded retries and the degraded
    (fresh uncached compile+execute) path could not answer either.
    The ``__cause__`` chain carries the final backend error."""

    code = "repro.service.backend_unavailable"


class PoolRetiredError(ServiceError):
    """A lease was requested on a retired :class:`BackendPool`
    snapshot.  Transient by construction: the owning service reacts by
    building a fresh pool for the current store version and retrying."""

    code = "repro.service.pool_retired"

