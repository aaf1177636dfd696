"""Prediction from learned theories and rule lists, evaluation metrics,
and Dung-style attack analysis of the learned arguments.

Prediction from a theory respects the exception structure: an argument is
defeated when one of its exceptions applies to the instance and is itself
undefeated (so an exception to an exception reinstates its grandparent).
Rule lists predict by first applicable rule.

The attack graph chains rules forward (a rule's conclusions feeding
another's premise) into composite arguments and draws an edge whenever a
conclusion conflicts with the target's conclusion or one of its chained
intermediate literals; self-attacking composites are the tell-tale the
analysis is after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .case_model import Argument, Literal, claim, holds, literal_set_key, value_key
from .errors import InputError
from .hero import Rule, RuleList
from .pruned_search import Theory

ABSTAIN = None
MAX_CHAIN = 3  # rules per composite argument in the attack graph


def _survives(arg: Argument, instance: Mapping[str, Any], target: str, found: list) -> bool:
    """Does the argument apply with its claim on the target undefeated?

    Only exceptions that claim another target value threaten the claim (a
    merged argument bundles several conclusions and each stands or falls
    on its own); a threatening exception defeats iff it applies and itself
    survives, so an exception to an exception reinstates the claim it
    overruled.  Every surviving argument in the tree that claims the target
    is appended to ``found`` as (argument, literal).  Nothing below an
    argument whose premise fails is visited: an exception's premise
    properly extends its parent's, so it fails too.
    """
    if not holds(arg.premise, instance):
        return False
    lit = claim(arg.conclusion, target)
    undefeated = True
    for exc in arg.exceptions:
        if _survives(exc, instance, target, found):
            rival = claim(exc.conclusion, target)
            if rival is not None and rival != lit:
                undefeated = False
    if undefeated and lit is not None:
        found.append((arg, lit))
    return undefeated


def _rank(size_sign: int):
    """Sort key over (argument, target literal) pairs: premise size times
    ``size_sign``, then heavier source case, lexicographic premise, value."""
    return lambda pair: (
        size_sign * len(pair[0].premise),
        -(pair[0].weight or 0),
        literal_set_key(pair[0].premise),
        pair[1].sort_key(),
    )


def predict_theory(
    theory: Theory,
    instance: Mapping[str, Any],
    target: str,
) -> Any:
    """Target value after descending the exception structure.

    The most general applicable argument concluding on the target (ties:
    heavier source case, then lexicographic premise) anchors the
    reasoning; within its exception tree, the claim that survives defeat
    (see `_survives`) wins, taking the most specific surviving argument
    and breaking ties by source-case weight.  If the anchor is defeated,
    its defeater survives and claims the target, so some claim always
    survives.  No applicable argument means abstention (None).
    """
    roots = []
    for arg in theory.arguments:
        lit = claim(arg.conclusion, target)
        if lit is not None and holds(arg.premise, instance):
            roots.append((arg, lit))
    if not roots:
        return None
    anchor, _ = min(roots, key=_rank(1))
    found: list[tuple[Argument, Literal]] = []
    _survives(anchor, instance, target, found)
    return min(found, key=_rank(-1))[1].value


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

    links: tuple[int, ...]  # indices into the node's source rules
    premise: frozenset
    intermediates: frozenset
    conclusion: frozenset

    def attackable_literals(self) -> frozenset:
        return self.conclusion | self.intermediates

    @property
    def is_composite(self) -> bool:
        return len(self.links) > 1


@dataclass(frozen=True)
class AttackGraph:
    nodes: tuple[ChainArgument, ...]
    attacks: tuple[tuple[int, int], ...]  # (attacker index, target index)


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


def attack_graph(source: Theory | RuleList | Sequence[Rule]) -> AttackGraph:
    """Rules plus forward-chained composites, with conflict edges.

    A rule extends a chain when part of its premise is discharged by the
    literals concluded so far, its remaining premise does not contradict
    the chain's asserted literals, and its conclusion adds something new
    (chains that only re-derive what is already asserted are not larger
    arguments and are skipped).  Edges go from an argument to every
    argument whose conclusion or intermediate literals its conclusion
    conflicts with.
    """
    rules = _as_rules(source)
    literal_rules = [
        (prem, concl)
        for prem, concl in rules
        if all(isinstance(c, Literal) for c in prem | concl)
    ]
    nodes: list[ChainArgument] = []
    seen: set[tuple] = set()
    frontier: list[tuple[ChainArgument, frozenset, frozenset]] = []
    for i, (prem, concl) in enumerate(literal_rules):
        chain = ChainArgument(
            links=(i,), premise=prem, intermediates=frozenset(), conclusion=concl
        )
        nodes.append(chain)
        derived = frozenset(concl)
        asserted = frozenset(prem | concl)
        frontier.append((chain, derived, asserted))
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
                key = (new_chain.links,)
                if key in seen:
                    continue
                seen.add(key)
                nodes.append(new_chain)
                next_frontier.append(
                    (new_chain, derived | concl, asserted | prem | concl)
                )
        frontier = next_frontier
    edges = []
    for a, attacker in enumerate(nodes):
        for t, victim in enumerate(nodes):
            if _literal_conflict(attacker.conclusion, victim.attackable_literals()):
                edges.append((a, t))
    return AttackGraph(nodes=tuple(nodes), attacks=tuple(edges))


def grounded_extension(graph: AttackGraph) -> frozenset[int]:
    """Least fixed point of the defense operator over node indices.

    Start from the unattacked arguments and keep adding every argument all
    of whose attackers are attacked by the current set; the result is the
    unique grounded extension, independent of iteration order.
    """
    attackers: dict[int, set[int]] = {i: set() for i in range(len(graph.nodes))}
    for a, t in graph.attacks:
        attackers[t].add(a)
    current: set[int] = set()
    while True:
        attacked_by_current = {
            t for a, t in graph.attacks if a in current
        }
        new = {
            i
            for i in range(len(graph.nodes))
            if all(att in attacked_by_current for att in attackers[i])
        }
        if new == current:
            return frozenset(current)
        current = new


def preferred_extensions(graph: AttackGraph) -> list[frozenset[int]]:
    """All maximal admissible sets, by brute force (small graphs only)."""
    n = len(graph.nodes)
    if n > 20:
        raise InputError(f"brute-force preferred semantics capped at 20 nodes, got {n}")
    attacks = set(graph.attacks)
    admissible: list[set[int]] = []
    for mask in range(1 << n):
        s = {i for i in range(n) if mask & (1 << i)}
        if any((a, t) in attacks for a in s for t in s):
            continue
        ok = True
        for member in s:
            for a, t in attacks:
                if t == member and not any((d, a) in attacks for d in s):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            admissible.append(s)
    preferred = [
        frozenset(s)
        for s in admissible
        if not any(s < other for other in admissible)
    ]
    return preferred


def detect_self_attack(source: Theory | RuleList | Sequence[Rule]) -> list[tuple[ChainArgument, ...]]:
    """Chains whose conclusions conflict with their own literals, plus
    mutually attacking pairs of composite arguments.

    An empty result certifies that chaining the learned rules cannot turn
    on itself, so grounded semantics loses nothing.
    """
    graph = attack_graph(source)
    attacks = set(graph.attacks)
    offenders: list[tuple[ChainArgument, ...]] = []
    for i, node in enumerate(graph.nodes):
        if (i, i) in attacks:
            offenders.append((node,))
    for i, a in enumerate(graph.nodes):
        if not a.is_composite or (i, i) in attacks:
            continue
        for j in range(i + 1, len(graph.nodes)):
            b = graph.nodes[j]
            if not b.is_composite or (j, j) in attacks:
                continue
            if (i, j) in attacks and (j, i) in attacks:
                offenders.append((a, b))
    return offenders
