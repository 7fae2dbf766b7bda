"""Goal-directed driver for the join graph isolation rewrites.

The paper prescribes an order on the three subgoals: house-cleaning
whenever necessary, goal ρ (a single rank operator in the plan tail)
before goal δ (tail duplicate elimination) and join push-down/removal.
The driver mirrors this with three phases, each run to fixpoint:

1. house-cleaning only (rules 1–8, 14, 15);
2. + the rank rules (9–13);
3. + δ introduction (16) and join push-down/removal (17–19).

Termination is guaranteed by the rules themselves (each either removes
an operator, restricts its arguments, or moves a join strictly
downward / a rank strictly upward); a hard step budget guards against
implementation slips.

The driver is a worklist rewriter over one maintained plan state
(:class:`~repro.rewrite.rules.RewriteContext`): the parents map and the
Tables 2–5 properties are derived once per run and repaired after each
rule application on the dirty cone of the rewritten node only.  Rule
*selection* is a plain priority scan — first rule in phase order, first
matching node in post-order — because fresh column names, hence plan
and SQL text, depend on the application order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import TYPE_CHECKING, Callable, Sequence

from repro.algebra.dagutils import all_nodes, parents_map, validate_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.rulecheck import PlanSanitizer
from repro.algebra.ops import Operator, Serialize
from repro.algebra.properties import infer_properties
from repro.errors import RewriteError
from repro.obs import get_metrics, get_tracer
from repro.obs.tracer import Tracer
from repro.rewrite import rules as R
from repro.rewrite.rules import RewriteContext

Rule = Callable[[Operator, RewriteContext], Operator | None]

#: house-cleaning: simplify or remove operators
HOUSE_CLEANING: tuple[tuple[str, Rule], ...] = (
    ("7b", R.rule_7b_drop_dangling_pairs),
    ("2b", R.rule_2b_identity_project),
    ("2", R.rule_2_merge_projects),
    ("4", R.rule_4_attach_unreferenced),
    ("5", R.rule_5_rank_unreferenced),
    ("6", R.rule_6_rowid_unreferenced),
    ("7", R.rule_7_project_restrict),
    ("8", R.rule_8_rank_drop_const_order),
    ("1", R.rule_1_cross_literal),
    ("3", R.rule_3_const_join_to_cross),
    ("3b", R.rule_3b_drop_const_conjuncts),
    ("14", R.rule_14_distinct_redundant),
    ("15", R.rule_15_distinct_drop_const),
)

#: goal ρ: establish a single rank operator in the plan tail
RANK_GOAL: tuple[tuple[str, Rule], ...] = (
    ("13", R.rule_13_rank_splice),
    ("9", R.rule_9_rank_single_to_project),
    ("10", R.rule_10_rank_pullup_unary),
    ("11", R.rule_11_rank_pullup_project),
    ("12", R.rule_12_rank_pullup_join),
)

#: goal δ + join push-down and removal
JOIN_GOAL: tuple[tuple[str, Rule], ...] = (
    ("16", R.rule_16_introduce_tail_distinct),
    ("19", R.rule_19_collapse_key_selfjoin),
    ("20", R.rule_20_provenance_selfjoin),
    ("21", R.rule_21_rowid_join_translation),
    ("17", R.rule_17_push_join_through_unary),
    ("18", R.rule_18_push_join_through_join),
)

ALL_RULES: dict[str, Rule] = {
    name: fn for name, fn in (*HOUSE_CLEANING, *RANK_GOAL, *JOIN_GOAL)
}


#: display order of the driver's three phases
PHASE_NAMES = ("house-cleaning", "rank", "join")


@dataclass
class IsolationStats:
    """How the isolation run went: per-rule application counts, DAG
    size shrink, and per-phase timing."""

    applications: Counter = field(default_factory=Counter)
    #: nodes each rule was offered, and the nanoseconds it spent on
    #: them (premise checks of failed attempts included)
    rule_attempts: Counter = field(default_factory=Counter)
    rule_ns: Counter = field(default_factory=Counter)
    steps: int = 0
    #: always 0: the fingerprint-revisit exit it counted never fired
    #: and is gone; ``max_steps`` is the one guard
    cycles_broken: int = 0
    #: operator count of the compiled plan before / after isolation
    nodes_before: int = 0
    nodes_after: int = 0
    #: wall-clock nanoseconds spent in each driver phase
    phase_ns: dict[str, int] = field(default_factory=dict)
    #: rule applications per driver phase
    phase_applications: Counter = field(default_factory=Counter)

    def total(self, *rule_names: str) -> int:
        if not rule_names:
            return sum(self.applications.values())
        return sum(self.applications[n] for n in rule_names)

    @property
    def nodes_removed(self) -> int:
        """How many operators isolation eliminated (the size-shrink
        that turns the stacked plan into a join graph)."""
        return self.nodes_before - self.nodes_after

    @property
    def total_ns(self) -> int:
        return sum(self.phase_ns.values())


class IsolationEngine:
    """Applies the Fig. 5 rule set to a compiled plan.

    Parameters
    ----------
    disabled:
        Rule names (e.g. ``{"16", "17"}``) to leave out — used by the
        ablation benchmarks.
    max_steps:
        Hard budget on rule applications (defensive; typical queries
        need well under a thousand).
    sanitizer:
        A :class:`repro.analysis.PlanSanitizer` validating the plan
        after *every* individual rule application (and the compiler
        output before the first); raises
        :class:`repro.errors.SanitizerError` naming the offending rule.
    """

    def __init__(
        self,
        disabled: set[str] | None = None,
        max_steps: int = 50_000,
        sanitizer: "PlanSanitizer | None" = None,
    ):
        self.disabled = disabled or set()
        self.max_steps = max_steps
        self.sanitizer = sanitizer

    def isolate(self, root: Serialize) -> tuple[Serialize, IsolationStats]:
        """Rewrite ``root`` into join-graph shape.  The input DAG is
        mutated; the returned root is the place to continue from (rules
        never replace the ``Serialize`` root, so it is ``root``)."""
        stats = IsolationStats()
        tracer = get_tracer()
        if self.sanitizer is not None:
            self.sanitizer.check_initial(root)
        parents = parents_map(root)
        ctx = RewriteContext(
            root=root, props=infer_properties(root, parents), parents=parents
        )
        stats.nodes_before = len(parents)
        # Phase 3 searches the join-goal rules *before* the δ-removing
        # house-cleaning rules (14)/(15): the key-join collapses (19)/(20)
        # rely on candidate keys that the intermediate δs still certify;
        # removing those δs first would strand the joins.
        tidy = tuple(
            (n, f) for n, f in HOUSE_CLEANING if n not in ("14", "15")
        )
        sweep = tuple((n, f) for n, f in HOUSE_CLEANING if n in ("14", "15"))
        phases: list[Sequence[tuple[str, Rule]]] = [
            HOUSE_CLEANING,
            (*HOUSE_CLEANING, *RANK_GOAL),
            (*tidy, *RANK_GOAL, *JOIN_GOAL, *sweep),
        ]
        with tracer.span("isolate", nodes_before=stats.nodes_before) as span:
            for phase_name, phase in zip(PHASE_NAMES, phases):
                active = [(n, f) for n, f in phase if n not in self.disabled]
                steps_before = stats.steps
                start = perf_counter_ns()
                with tracer.span(
                    f"isolate.phase:{phase_name}", rules=len(active)
                ) as phase_span:
                    self._run_phase(ctx, active, stats, tracer)
                    stats.phase_applications[phase_name] = (
                        stats.steps - steps_before
                    )
                    phase_span.set(
                        applications=stats.phase_applications[phase_name]
                    )
                stats.phase_ns[phase_name] = perf_counter_ns() - start
            validate_plan(root)
            stats.nodes_after = len(ctx.parents)
            span.set(nodes_after=stats.nodes_after, steps=stats.steps)
        self._flush_metrics(stats)
        return root, stats

    def _flush_metrics(self, stats: IsolationStats) -> None:
        """Fold one run's stats into the process-global registry (one
        flush per run; the rule-search loop itself stays metrics-free)."""
        metrics = get_metrics()
        metrics.count("rewrite.runs")
        metrics.count("rewrite.steps", stats.steps)
        for rule, fires in stats.applications.items():
            metrics.count(f"rewrite.rule_fired.{rule}", fires)
        for rule, attempts in stats.rule_attempts.items():
            metrics.count(f"rewrite.rule_attempts.{rule}", attempts)
        for rule, elapsed in stats.rule_ns.items():
            metrics.count(f"rewrite.rule_ns.{rule}", elapsed)
        for phase, elapsed in stats.phase_ns.items():
            metrics.observe(f"rewrite.phase_ns.{phase}", elapsed)
        metrics.observe("rewrite.isolate_ns", stats.total_ns)
        metrics.gauge("rewrite.nodes_before", stats.nodes_before)
        metrics.gauge("rewrite.nodes_after", stats.nodes_after)
        metrics.gauge("rewrite.nodes_removed", stats.nodes_removed)

    def _run_phase(
        self,
        ctx: RewriteContext,
        phase_rules: Sequence[tuple[str, Rule]],
        stats: IsolationStats,
        tracer: Tracer,
    ) -> None:
        """Apply the phase's rules to fixpoint."""
        # every rule opens with an isinstance test: offer it only the
        # operators of the classes it declares (an undeclared rule is
        # offered every operator)
        scans = [
            (name, rule, getattr(rule, "operator_classes", (Operator,)))
            for name, rule in phase_rules
        ]
        while self._apply_one(ctx, scans, stats, tracer):
            if stats.steps > self.max_steps:
                raise RewriteError(
                    f"isolation exceeded {self.max_steps} rule applications"
                )

    def _apply_one(
        self,
        ctx: RewriteContext,
        scans: Sequence[tuple[str, Rule, tuple[type[Operator], ...]]],
        stats: IsolationStats,
        tracer: Tracer,
    ) -> bool:
        """Find the first applicable (rule, node) pair — rules in phase
        priority order, nodes in post-order — and apply it."""
        sanitizer = self.sanitizer
        # rules may mutate the DAG in place during the *attempt* (not
        # only via the returned replacement), so the sanitizer snapshot
        # has to be taken before any rule runs.
        before = sanitizer.snapshot(ctx.root) if sanitizer is not None else None
        nodes = all_nodes(ctx.root)
        nodes.pop()  # post-order ends in the root, which no rule rewrites
        offered: dict[tuple[type[Operator], ...], list[Operator]] = {}
        for name, rule, classes in scans:
            scan = offered.get(classes)
            if scan is None:
                scan = offered[classes] = [
                    node for node in nodes if isinstance(node, classes)
                ]
            # rule 16 introduces the tail δ: scan top-down so it lands
            # at the topmost eligible join; everything else bottom-up.
            attempts = 0
            hit = False
            start = perf_counter_ns()
            for node in reversed(scan) if name == "16" else scan:
                attempts += 1
                replacement = rule(node, ctx)
                if replacement is not None and replacement is not node:
                    hit = True
                    break
            stats.rule_ns[name] += perf_counter_ns() - start
            stats.rule_attempts[name] += attempts
            if not hit:
                if sanitizer is not None:
                    sanitizer.after_miss(name, before, ctx.root)
                continue
            stats.applications[name] += 1
            stats.steps += 1
            if tracer.enabled:
                tracer.event(
                    f"rule({name})",
                    rule=name,
                    node=type(node).__name__,
                    step=stats.steps,
                )
            ctx.replace(node, replacement)
            if sanitizer is not None:
                sanitizer.after_step(name, before, ctx)
            return True
        return False


def isolate(
    root: Serialize,
    disabled: set[str] | None = None,
    sanitizer: "PlanSanitizer | None" = None,
) -> tuple[Serialize, IsolationStats]:
    """Convenience wrapper: run join graph isolation on a compiled plan."""
    return IsolationEngine(disabled=disabled, sanitizer=sanitizer).isolate(root)
