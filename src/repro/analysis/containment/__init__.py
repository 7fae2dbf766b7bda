"""Static containment & equivalence analysis for the workhorse fragment.

The subsystem decides, *statically*, whether one query's result always
contains (or equals) another's, for the XP\\ :sup:`{/, //, [], *}`
fragment of normalized Core — single document source, downward axes,
conjunctive predicates, literal value comparisons.  Everything outside
that fragment conservatively yields ``OUTSIDE_FRAGMENT``.

Layers (bottom-up):

:mod:`~repro.analysis.containment.pattern`
    Core → tree-pattern extraction; the ``TreePattern``/``PNode`` model.
:mod:`~repro.analysis.containment.hom`
    Homomorphism search + independent witness re-verification.
:mod:`~repro.analysis.containment.canonical`
    Minimized canonical patterns and stable cache keys.
:mod:`~repro.analysis.containment.decision`
    The public ``contains`` / ``equivalent`` verdicts with witnesses.
:mod:`~repro.analysis.containment.evaluate`
    A naive reference evaluator of patterns over the encoding table
    (the sanitizer's semantic oracle).

See ``docs/containment.md`` for the full story and the wiring into the
compiled-query cache, the rewrite sanitizer, and the scatter planner.
"""

from repro.analysis.containment.canonical import (
    canonical_key,
    canonicalize,
    pattern_key,
)
from repro.analysis.containment.decision import (
    CONTAINS,
    EQUIVALENT,
    NOT_SHOWN,
    OUTSIDE_FRAGMENT,
    ContainmentResult,
    EquivalenceResult,
    contains,
    contains_patterns,
    equivalent,
)
from repro.analysis.containment.evaluate import (
    evaluate_pattern,
    filter_pattern,
)
from repro.analysis.containment.hom import find_homomorphism, verify_witness
from repro.analysis.containment.pattern import (
    PNode,
    TreePattern,
    extract_pattern,
    pattern_nodes,
)

__all__ = [
    "CONTAINS",
    "EQUIVALENT",
    "NOT_SHOWN",
    "OUTSIDE_FRAGMENT",
    "ContainmentResult",
    "EquivalenceResult",
    "PNode",
    "TreePattern",
    "canonical_key",
    "canonicalize",
    "contains",
    "contains_patterns",
    "equivalent",
    "evaluate_pattern",
    "extract_pattern",
    "filter_pattern",
    "find_homomorphism",
    "pattern_key",
    "pattern_nodes",
    "verify_witness",
]
