"""Stable diagnostic codes (``JGI001``…) and the report machinery.

Every defect the static-analysis subsystem can detect has one stable,
documented code so that tests, CI logs and bug reports can refer to it
unambiguously (see ``docs/analysis.md`` for the full catalog).  Codes
are grouped by decade:

====== =====================================================
JGI0xx structural plan defects (DAG shape, operator contracts)
JGI01x property-inference defects (icols / const / key / set)
JGI02x data-level defects (properties violated on real tables)
JGI03x rewrite-rule defects (found by the per-step sanitizer)
JGI04x generated-SQL defects (join-graph block linter)
JGI05x pipeline-level defects (codegen / engine disagreement)
JGI06x containment-analyzer cross-checks (pattern oracle)
====== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: code -> (slug, one-line description)
CODES: dict[str, tuple[str, str]] = {
    # -- structural (mapped from dagutils.structural_violations kinds) --
    "JGI001": ("plan-cycle", "the plan graph contains a cycle"),
    "JGI002": ("operator-arity", "operator has the wrong number of inputs"),
    "JGI003": ("join-overlap", "join/cross operand schemas overlap"),
    "JGI004": ("missing-column", "operator references a column its input lacks"),
    "JGI005": ("project-malformed", "projection duplicates or drops every output"),
    "JGI006": ("generated-collision", "generated @/#/% column malformed or colliding"),
    "JGI007": ("littable-arity", "literal table row arity mismatch"),
    "JGI008": ("serialize-contract", "Serialize item/pos columns missing from input"),
    "JGI009": ("shared-mutation", "shared node mutated into a conflicting schema"),
    "JGI010": ("inner-serialize", "Serialize operator below the plan root"),
    # -- property inference --------------------------------------------
    "JGI011": ("props-missing", "node absent from the supplied PlanProperties"),
    "JGI012": ("icols-mismatch", "inferred icols disagree with re-derivation"),
    "JGI013": ("icols-out-of-schema", "icols claims a column outside the schema"),
    "JGI014": ("const-mismatch", "inferred constants disagree with re-derivation"),
    "JGI015": ("key-out-of-schema", "candidate key contains a non-schema column"),
    "JGI016": ("set-mismatch", "inferred set property disagrees with re-derivation"),
    "JGI017": ("infer-failed", "property inference raised an exception"),
    # -- data-level ----------------------------------------------------
    "JGI020": ("data-schema-mismatch", "evaluated table schema differs from plan schema"),
    "JGI021": ("const-violated", "claimed constant column is not constant in the data"),
    "JGI022": ("key-violated", "claimed candidate key has duplicate values"),
    "JGI023": ("distinct-violated", "Distinct output contains duplicate rows"),
    # -- rewrite sanitizer ---------------------------------------------
    "JGI030": ("rule-invalid-plan", "rewrite rule produced a structurally invalid plan"),
    "JGI031": ("rule-semantics-changed", "rewrite rule changed the query result"),
    "JGI032": ("state-drift", "engine's maintained parents/properties differ from a fresh derivation"),
    "JGI033": ("miss-mutated-plan", "a rule that did not fire mutated the plan"),
    # -- SQL lint ------------------------------------------------------
    "JGI040": ("sql-unbound-alias", "SQL references an alias the FROM clause never binds"),
    "JGI041": ("sql-unknown-column", "SQL references a column the doc table lacks"),
    "JGI042": ("sql-duplicate-alias", "FROM clause binds the same alias twice"),
    "JGI043": ("sql-unused-alias", "FROM clause binds an alias nothing references"),
    "JGI044": ("sql-distinct-order-mismatch", "ORDER BY term missing from the DISTINCT select list"),
    "JGI045": ("sql-select-alias-clash", "SELECT list exposes the same output alias twice"),
    "JGI046": ("sql-item-alias-missing", "declared item alias absent from the select list"),
    "JGI047": ("sql-malformed", "generated SQL does not parse as a single join-graph block"),
    # -- pipeline ------------------------------------------------------
    "JGI050": ("engines-disagree", "execution engines return different results"),
    "JGI051": ("codegen-failed", "isolated plan could not be rendered as one SQL block"),
    "JGI052": ("compile-failed", "compilation or isolation raised an error"),
    "JGI053": ("not-join-graph", "isolated plan did not reach join-graph shape"),
    # -- containment-analyzer cross-checks -----------------------------
    "JGI060": ("rule-pattern-mismatch", "rewrite step result disagrees with the containment analyzer's pattern evaluation"),
    "JGI061": ("plan-pattern-mismatch", "initial plan result disagrees with the containment analyzer's pattern evaluation"),
}

#: dagutils.PlanViolation.kind -> diagnostic code
VIOLATION_CODES: dict[str, str] = {
    "cycle": "JGI001",
    "arity": "JGI002",
    "join-overlap": "JGI003",
    "missing-column": "JGI004",
    "project-duplicate": "JGI005",
    "project-empty": "JGI005",
    "generated-collision": "JGI006",
    "rank-empty": "JGI006",
    "littable-arity": "JGI007",
    "serialize-contract": "JGI008",
    "shared-mutation": "JGI009",
    "inner-serialize": "JGI010",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the analysis subsystem."""

    code: str
    message: str
    severity: str = "error"  # "error" | "warning"
    where: str = ""  # operator label, rule name, or SQL snippet

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def slug(self) -> str:
        return CODES[self.code][0]

    def render(self) -> str:
        location = f" [{self.where}]" if self.where else ""
        return f"{self.code} {self.slug}{location}: {self.message}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def errors(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The error-severity subset of ``diagnostics``."""
    return [d for d in diagnostics if d.severity == "error"]


@dataclass
class DiagnosticReport:
    """Diagnostics grouped per analyzed query, renderable as text."""

    entries: list[tuple[str, list[Diagnostic]]] = field(default_factory=list)

    def add(self, name: str, diagnostics: list[Diagnostic]) -> None:
        self.entries.append((name, diagnostics))

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for _, ds in self.entries for d in ds]

    @property
    def error_count(self) -> int:
        return len(errors(self.diagnostics))

    @property
    def warning_count(self) -> int:
        return len(self.diagnostics) - len(errors(self.diagnostics))

    def render(self) -> str:
        lines: list[str] = []
        for name, diagnostics in self.entries:
            status = "ok" if not diagnostics else (
                f"{len(errors(diagnostics))} error(s), "
                f"{len(diagnostics) - len(errors(diagnostics))} warning(s)"
            )
            lines.append(f"{name}: {status}")
            for diagnostic in diagnostics:
                lines.append(f"  {diagnostic.render()}")
        lines.append(
            f"-- {len(self.entries)} quer{'y' if len(self.entries) == 1 else 'ies'} "
            f"checked, {self.error_count} error(s), "
            f"{self.warning_count} warning(s)"
        )
        return "\n".join(lines)
