"""Prediction from learned theories and rule lists, evaluation metrics,
and the conflict check on forward-chained rules.

A theory predicts the claim of the most specific applicable argument in
the exception tree of its anchor.  That is the claim that survives
defeat: an applicable exception defeats its parent when it claims a rival
target value and is itself undefeated (so an exception to an exception
reinstates its grandparent), i.e. the grounded extension of the tree's
acyclic attack graph, which the test oracle `grounded_extension` (in
tests/oracles.py) computes.  A defeated claim has an undefeated defeater
whose premise strictly extends its own, so the most specific applicable
claim is never defeated.

Theories and rule lists share one evaluation, the first applicable rule
(`Theory.rule_list`): an exception's premise properly extends its
parent's, so a node applies only where its ancestors do.  Listing the
roots that claim the target in anchor order, each followed by its tree's
target claims most specific first, puts the first applicable rule in the
anchor's block, and there it is the most specific applicable claim.

`detect_self_attack` chains rules forward (a rule's conclusions feeding
another's premise) into composite arguments and reports those whose
conclusion conflicts with their own chained literals or with each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .case_model import Literal, value_key
from .errors import InputError
from .hero import Rule, RuleList
from .pruned_search import Theory

ABSTAIN = None
MAX_CHAIN = 3  # rules per composite argument


def predict_theory(theory: Theory, instance: Mapping[str, Any], target: str) -> Any:
    """Target value of the most specific applicable claim under the anchor.

    The most general applicable argument claiming the target (ties:
    heavier source case, then lexicographic premise) anchors; among the
    applicable target claims of its exception tree the largest premise
    wins, with the same tie-breaks.  This is the first match over
    `Theory.rule_list` (see the module docstring).  No applicable
    argument means abstention (None).
    """
    return theory.rule_list(target).first_match(instance)


def predict_rule_list(rule_list: RuleList, instance: Mapping[str, Any], target: str | None = None) -> Any:
    """Value assigned by the first applicable rule, or abstention (None)."""
    return rule_list.first_match(instance, target)


@dataclass(frozen=True)
class EvalReport:
    """Accuracy, support-weighted F1 and per-class diagnostics."""

    accuracy: float
    weighted_f1: float
    per_class: dict[Any, dict[str, float]]
    abstention_rate: float = 0.0

    def to_json(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "weighted_f1": self.weighted_f1,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items(), key=lambda kv: value_key(kv[0]))},
            "abstention_rate": self.abstention_rate,
        }


def evaluate(predictions: Sequence[tuple[Any, Any]]) -> EvalReport:
    """Score (predicted, actual) pairs; abstentions (None) count as wrong."""
    if not predictions:
        raise InputError("cannot evaluate zero predictions")
    n = len(predictions)
    correct = sum(1 for p, a in predictions if p == a and p is not ABSTAIN)
    abstained = sum(1 for p, _ in predictions if p is ABSTAIN)
    classes = sorted(
        {a for _, a in predictions} | {p for p, _ in predictions if p is not ABSTAIN},
        key=value_key,
    )
    per_class: dict[Any, dict[str, float]] = {}
    weighted_f1 = 0.0
    for c in classes:
        tp = sum(1 for p, a in predictions if p == c and a == c)
        fp = sum(1 for p, a in predictions if p == c and a != c)
        fn = sum(1 for p, a in predictions if p != c and a == c)
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": support,
        }
        weighted_f1 += (support / n) * f1
    return EvalReport(
        accuracy=correct / n,
        weighted_f1=weighted_f1,
        per_class=per_class,
        abstention_rate=abstained / n,
    )


@dataclass(frozen=True)
class ChainArgument:
    """One rule or a forward chain of rules acting as a single argument.

    ``conclusion`` is the final rule's conclusion; ``intermediates`` are
    the conclusions of the earlier links; ``premise`` collects the premise
    literals not discharged by an earlier conclusion.
    """

    links: tuple[int, ...]  # indices into the source rules
    premise: frozenset
    intermediates: frozenset
    conclusion: frozenset

    def attacks(self, other: "ChainArgument") -> bool:
        """Does this conclusion conflict with one of the other's literals?"""
        return _literal_conflict(self.conclusion, other.conclusion | other.intermediates)

    @property
    def is_composite(self) -> bool:
        return len(self.links) > 1


def _literal_conflict(a: Iterable[Literal], b: Iterable[Literal]) -> bool:
    values: dict[str, set] = {}
    for lit in b:
        values.setdefault(lit.attribute, set()).add(lit.value)
    return any(
        lit.attribute in values and any(v != lit.value for v in values[lit.attribute])
        for lit in a
    )


def _as_rules(source: Theory | RuleList | Sequence[Rule]) -> list[tuple[frozenset, frozenset]]:
    if isinstance(source, Theory):
        return [(a.premise, a.conclusion) for a in source.arguments]
    if isinstance(source, RuleList):
        return [(r.premise, r.conclusion) for r in source.rules]
    return [(r.premise, r.conclusion) for r in source]


def _chains(source: Theory | RuleList | Sequence[Rule]) -> list[ChainArgument]:
    """Every rule, then forward-chained composites of up to `MAX_CHAIN` rules.

    A rule extends a chain when part of its premise is discharged by the
    literals concluded so far, its remaining premise does not contradict
    the chain's asserted literals, and its conclusion adds something new
    (chains that only re-derive what is already asserted are not larger
    arguments and are skipped).
    """
    rules = _as_rules(source)
    literal_rules = [
        (prem, concl)
        for prem, concl in rules
        if all(isinstance(c, Literal) for c in prem | concl)
    ]
    nodes: list[ChainArgument] = []
    frontier: list[tuple[ChainArgument, frozenset, frozenset]] = []
    for i, (prem, concl) in enumerate(literal_rules):
        chain = ChainArgument(links=(i,), premise=prem, intermediates=frozenset(), conclusion=concl)
        nodes.append(chain)
        frontier.append((chain, concl, prem | concl))  # (chain, derived, asserted)
    for _ in range(1, MAX_CHAIN):
        next_frontier = []
        for chain, derived, asserted in frontier:
            for j, (prem, concl) in enumerate(literal_rules):
                if not prem:
                    continue  # a default cannot be fed by anything
                if not (prem & derived):
                    continue  # must consume a derived literal
                leftover = prem - asserted
                if _literal_conflict(prem, asserted):
                    continue  # the chain's scenario contradicts the premise
                if concl <= asserted:
                    continue  # nothing new: not a larger argument
                new_chain = ChainArgument(
                    links=chain.links + (j,),
                    premise=chain.premise | leftover,
                    intermediates=chain.intermediates | chain.conclusion,
                    conclusion=concl,
                )
                nodes.append(new_chain)
                next_frontier.append(
                    (new_chain, derived | concl, asserted | prem | concl)
                )
        frontier = next_frontier
    return nodes


def detect_self_attack(source: Theory | RuleList | Sequence[Rule]) -> list[tuple[ChainArgument, ...]]:
    """Chains whose conclusions conflict with their own literals, plus
    mutually attacking pairs of composite arguments.

    An empty result certifies that chaining the learned rules cannot turn
    on itself, so grounded semantics loses nothing.
    """
    offenders: list[tuple[ChainArgument, ...]] = []
    composites = []
    for chain in _chains(source):
        if chain.attacks(chain):
            offenders.append((chain,))
        elif chain.is_composite:
            composites.append(chain)
    for i, a in enumerate(composites):
        for b in composites[i + 1:]:
            if a.attacks(b) and b.attacks(a):
                offenders.append((a, b))
    return offenders
