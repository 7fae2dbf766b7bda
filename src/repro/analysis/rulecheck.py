"""Per-step rewrite sanitizer for the isolation engine.

The 19 peephole rules of paper Fig. 5 are only as trustworthy as their
property premises; one unsound application silently miscompiles every
downstream query.  :class:`PlanSanitizer` hooks into
:class:`repro.rewrite.engine.IsolationEngine` and, after **every**
individual rule application,

* runs the deep invariant checker (:func:`repro.analysis.check_plan`)
  on the rewritten plan,
* compares the engine's *maintained* plan state — the parents map and
  the Tables 2–5 properties it repairs on the dirty cone of each
  rewrite — with a derivation from scratch (``JGI032``), and checks
  that the rules that did not fire left the plan alone (``JGI033``),
* optionally re-interprets the plan on the (small) fixture documents
  and compares the item sequence against the pre-isolation reference —
  per-step differential testing, and
* when the query falls into the containment analyzer's tree-pattern
  fragment (see :mod:`repro.analysis.containment`), additionally
  compares the interpreted sequence against the *independent* naive
  pattern evaluation of the canonical pattern — a second oracle that
  shares no code with the loop-lifting compiler, so a rule bug and a
  matching interpreter bug cannot mask each other (``JGI060``/
  ``JGI061``).

On failure it raises :class:`repro.errors.SanitizerError` carrying the
diagnostic code, the *name of the offending rule*, and a unified diff
of the plan before/after the application.
"""

from __future__ import annotations

import difflib
from typing import TYPE_CHECKING, NoReturn

from repro.algebra.dagutils import (
    all_nodes,
    clone_plan,
    parents_map,
    plan_to_text,
)
from repro.algebra.ops import DocScan, LitTable, Operator
from repro.algebra.properties import PlanProperties, infer_properties
from repro.analysis.diagnostics import Diagnostic, errors
from repro.analysis.invariants import check_plan, prune_dead_refs
from repro.errors import SanitizerError
from repro.obs import record_diagnostics

if TYPE_CHECKING:
    from repro.infoset.encoding import DocTable
    from repro.rewrite.rules import RewriteContext
    from repro.xquery.core import CoreExpr


class PlanSanitizer:
    """Validates every individual rewrite step of an isolation run.

    Parameters
    ----------
    interpret:
        Also check *semantic* equivalence by running the reference
        interpreter after each step and comparing the item sequence
        with the pre-isolation reference.  Rank/pos values are only
        order-isomorphic across rules (9)–(13), so the comparison is on
        the serialized item sequence, which is exactly the observable
        result.
    data:
        Verify const/key property claims against interpreted tables at
        every step (implies evaluating the plan; dominated by
        ``interpret`` cost-wise).
    max_base_rows:
        Interpretation budget: skip the semantic check when the plan's
        base tables (doc store + literals) exceed this many rows.
    """

    def __init__(
        self,
        *,
        interpret: bool = False,
        data: bool = False,
        max_base_rows: int = 600,
    ):
        self.interpret = interpret
        self.data = data
        self.max_base_rows = max_base_rows
        self.steps_checked = 0
        self._reference: list | None = None
        self._pattern_expected: list | None = None
        self._snapshot_text: str | None = None

    # -- arming -----------------------------------------------------------

    def set_core(self, core: CoreExpr, table: DocTable) -> None:
        """Arm the containment-analyzer cross-check for the next
        isolation run.

        When ``core`` falls into the tree-pattern fragment, the naive
        pattern evaluator pre-computes the expected item sequence over
        ``table`` — every interpreted plan (initial and per-step) is
        then also compared against this second, compiler-independent
        oracle.  Outside the fragment (or when the pattern is found
        statically unsatisfiable *and* the engines might disagree on
        emptiness shape) the check quietly disarms.
        """
        self._pattern_expected = None
        from repro.analysis.containment import (
            canonicalize,
            evaluate_pattern,
            extract_pattern,
        )

        pattern = extract_pattern(core)
        if pattern is None:
            return
        canonical = canonicalize(pattern)
        self._pattern_expected = evaluate_pattern(canonical, table)

    # -- engine hooks -----------------------------------------------------

    def check_initial(self, root: Operator) -> None:
        """Validate the compiler's output before any rule runs, and
        capture the reference item sequence for the semantic check."""
        self._reference = None
        self._fail_on_errors("<initial plan>", check_plan(root, data=self.data), None)
        if self.interpret and self._within_budget(root):
            from repro.algebra.interpreter import run_plan

            self._reference = run_plan(root)
            if (
                self._pattern_expected is not None
                and self._reference != self._pattern_expected
            ):
                self._fail(
                    "JGI061",
                    "<initial plan>",
                    f"initial plan disagrees with the pattern oracle: "
                    f"pattern expects {self._pattern_expected[:20]!r}, "
                    f"plan yields {self._reference[:20]!r}",
                )

    def snapshot(self, root: Operator) -> Operator:
        """A structure-preserving copy of ``root`` taken before a rule
        application, used for the failure plan-diff."""
        self._snapshot_text = None
        return clone_plan(root)

    def after_miss(self, rule: str, before: Operator, root: Operator) -> None:
        """``rule`` was offered every candidate node of this step and
        fired on none: the plan must still read like the snapshot —
        rules (20)/(21) edit projections in place, which is only sound
        (and only reported to the maintained state) when they fire."""
        if self._snapshot_text is None:
            self._snapshot_text = plan_to_text(before)
        if plan_to_text(root) != self._snapshot_text:
            self._fail(
                "JGI033",
                rule,
                f"rule ({rule}) did not fire but mutated the plan",
                _plan_diff(before, root),
            )

    def after_step(self, rule: str, before: Operator, ctx: RewriteContext) -> None:
        """Validate the plan — and the engine's maintained state of it
        — right after one application of ``rule``.

        Intermediate plans may carry icols-dead dangling projection
        entries (``allow_dead_refs``; the engine's final
        ``validate_plan`` is strict) — the semantic check interprets a
        pruned copy, since the reference interpreter is strict."""
        after = ctx.root
        self.steps_checked += 1
        fresh_parents = parents_map(after)
        fresh = infer_properties(after, fresh_parents)
        diagnostics = check_plan(
            after, fresh, data=self.data, allow_dead_refs=True
        )
        self._fail_on_errors(rule, diagnostics, before, after)
        drift = maintained_state_drift(ctx, fresh_parents, fresh)
        if drift:
            self._fail(
                "JGI032",
                rule,
                f"after rule ({rule}): " + "; ".join(drift[:5]),
                _plan_diff(before, after),
            )
        if (
            self.interpret
            and self._reference is not None
            and self._within_budget(after)
        ):
            from repro.algebra.interpreter import run_plan

            result = run_plan(prune_dead_refs(after))
            if (
                self._pattern_expected is not None
                and result != self._pattern_expected
            ):
                self._fail(
                    "JGI060",
                    rule,
                    f"rule ({rule}) disagrees with the pattern oracle: "
                    f"pattern expects {self._pattern_expected[:20]!r}, "
                    f"got {result[:20]!r}",
                    _plan_diff(before, after),
                )
            if result != self._reference:
                self._fail(
                    "JGI031",
                    rule,
                    f"rule ({rule}) changed the result: expected "
                    f"{self._reference[:20]!r}, got {result[:20]!r}",
                    _plan_diff(before, after),
                )

    # -- internals --------------------------------------------------------

    def _fail(self, code: str, rule: str, message: str, diff: str = "") -> NoReturn:
        """Record one finding against ``rule`` and raise it."""
        where = rule if rule.startswith("<") else f"rule {rule}"
        diagnostic = Diagnostic(code=code, message=message, where=where)
        record_diagnostics([diagnostic])
        rendered = diagnostic.render()
        raise SanitizerError(
            f"{rendered}\n{diff}" if diff else rendered,
            code=code,
            rule=rule,
            diagnostics=[diagnostic],
        )

    def _fail_on_errors(
        self,
        rule: str,
        diagnostics: list[Diagnostic],
        before: Operator | None,
        after: Operator | None = None,
    ) -> None:
        broken = errors(diagnostics)
        if not broken:
            return
        details = "\n".join(d.render() for d in broken)
        # a cyclic plan cannot be rendered (the printer would recurse
        # forever), so the diff is omitted for JGI001
        diffable = (
            before is not None
            and after is not None
            and all(d.code != "JGI001" for d in broken)
        )
        diff = f"\n{_plan_diff(before, after)}" if diffable else ""
        record_diagnostics(broken)
        raise SanitizerError(
            f"JGI030 rule ({rule}) produced an invalid plan:\n{details}{diff}",
            code="JGI030",
            rule=rule,
            diagnostics=broken,
        )

    def _within_budget(self, root: Operator) -> bool:
        rows = 0
        seen_stores: set[int] = set()
        for node in all_nodes(root):
            if isinstance(node, DocScan) and id(node.store) not in seen_stores:
                seen_stores.add(id(node.store))
                rows += len(node.store.table)
            elif isinstance(node, LitTable):
                rows += len(node.rows)
        return rows <= self.max_base_rows


def maintained_state_drift(
    ctx: RewriteContext,
    fresh_parents: dict[Operator, list[Operator]],
    fresh: PlanProperties,
) -> list[str]:
    """Where the engine's maintained parents map and properties differ
    from ``parents_map(ctx.root)`` / ``infer_properties(ctx.root)``
    (passed in) — empty when the incremental repair is exact.  Parents
    compare as multisets (one entry per child slot); operators that
    left the plan must have left the map."""
    out: list[str] = []
    for node, expected in fresh_parents.items():
        have = ctx.parents.get(node)
        if have is None:
            out.append(f"{node.label()}: missing from the parents map")
        elif sorted(map(id, have)) != sorted(map(id, expected)):
            out.append(
                f"{node.label()}: parents {[p.label() for p in have]}, "
                f"plan has {[p.label() for p in expected]}"
            )
    stale = len(ctx.parents) - len(fresh_parents)
    if stale > 0 and not out:
        out.append(f"{stale} operator(s) outside the plan kept in the parents map")
    for name, maintained, expected in (
        ("schema", ctx.props._cols, fresh._cols),
        ("icols", ctx.props._icols, fresh._icols),
        ("const", ctx.props._const, fresh._const),
        ("key", ctx.props._keys, fresh._keys),
        ("set", ctx.props._set, fresh._set),
    ):
        for node, value in expected.items():
            if node not in maintained:
                out.append(f"{node.label()}: no maintained {name}")
            elif maintained[node] != value:
                out.append(
                    f"{node.label()}: maintained {name} {maintained[node]!r}, "
                    f"fresh derivation {value!r}"
                )
    return out


def _plan_diff(before: Operator, after: Operator) -> str:
    """Unified diff of the textual plan renderings."""
    diff = difflib.unified_diff(
        plan_to_text(before).splitlines(),
        plan_to_text(after).splitlines(),
        fromfile="plan before rule",
        tofile="plan after rule",
        lineterm="",
    )
    return "\n".join(diff)
