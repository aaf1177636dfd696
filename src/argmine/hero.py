"""Greedy induction of a totally ordered defeasible rule list.

At every step the learner scores candidate rules at every insertion slot
by information gain (the increase in training-set accuracy under
first-match evaluation) and commits the best strictly positive one; it
stops when nothing improves.  Whether a more specific premise is worth
exploring is decided by the maximum information gain: the gain a perfect
oracle rule on the same premise would achieve, an upper bound for all of
its specializations.

HeRO learns from the same weighted case model as the pruned search: each
case that assigns the target is one training row, counted with the
case's weight, and premises match rows through the ``CaseIndex`` masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .case_model import (
    CaseIndex,
    CaseModel,
    Literal,
    claim,
    holds,
    is_consistent,
    literal_set_key,
    literals,
    value_key,
)
from .errors import InputError


@dataclass(frozen=True)
class Rule:
    """A defeasible rule: premise conditions and target conclusions."""

    premise: frozenset
    conclusion: frozenset

    def __post_init__(self):
        if not self.conclusion:
            raise InputError("a rule needs at least one conclusion literal")

    def applies(self, instance: Mapping[str, Any]) -> bool:
        return holds(self.premise, instance)

    def __repr__(self) -> str:
        prem = ", ".join(map(repr, sorted(self.premise, key=lambda c: c.sort_key()))) or "∅"
        concl = ", ".join(map(repr, sorted(self.conclusion, key=lambda c: c.sort_key())))
        return f"[{prem} ~> {concl}]"


@dataclass(frozen=True)
class RuleList:
    """Ordered rules, position 0 first; evaluation is first-match-wins."""

    rules: tuple[Rule, ...]
    target: str | None = None

    def __post_init__(self):
        defaults = [i for i, r in enumerate(self.rules) if not r.premise]
        if len(defaults) > 1 or (defaults and defaults[0] != len(self.rules) - 1):
            raise InputError("at most one empty-premise rule is allowed, and only last")

    def first_match(self, instance: Mapping[str, Any], target: str | None = None) -> Any:
        """Value the first applicable rule assigns to the target, or None."""
        return _first_match(self.rules, instance, target if target is not None else self.target)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "rules": [
                {
                    "premise": {c.attribute: c.value for c in r.premise},
                    "conclusion": {c.attribute: c.value for c in r.conclusion},
                }
                for r in self.rules
            ],
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "RuleList":
        rules = tuple(
            Rule(premise=literals(r.get("premise", {})), conclusion=literals(r["conclusion"]))
            for r in data["rules"]
        )
        return RuleList(rules=rules, target=data.get("target"))


def _first_match(rules: Sequence[Rule], instance: Mapping[str, Any], target: str) -> Any:
    for rule in rules:
        if holds(rule.premise, instance):
            lit = claim(rule.conclusion, target)
            if lit is not None:
                return lit.value
    return None


def _accuracy(rules: Sequence[Rule], rows: Sequence[Mapping[str, Any]], target: str) -> float:
    """Fraction of rows whose first-match prediction equals the target value."""
    if not rows:
        raise InputError("accuracy over zero rows is undefined")
    correct = sum(1 for row in rows if _first_match(rules, row, target) == row[target])
    return correct / len(rows)


def information_gain(
    rule_list: RuleList,
    candidate: Rule,
    position: int,
    rows: Sequence[Mapping[str, Any]],
    target: str | None = None,
) -> float:
    """Accuracy change from inserting the candidate at the given position.

    The insertion is hypothetical, so positions that would leave a default
    above later rules (shadowing them) are evaluated as-is rather than
    rejected.
    """
    target = target if target is not None else rule_list.target
    if position < 0 or position > len(rule_list.rules):
        raise InputError(f"position {position} out of range")
    before = _accuracy(rule_list.rules, rows, target)
    inserted = rule_list.rules[:position] + (candidate,) + rule_list.rules[position:]
    after = _accuracy(inserted, rows, target)
    return after - before


def max_information_gain(
    candidate: Rule,
    rule_list: RuleList,
    rows: Sequence[Mapping[str, Any]],
    target: str | None = None,
) -> float:
    """Upper bound on the gain of any rule with a more specific premise.

    Equals the gain of a hypothetical rule at the best position that
    predicts every premise-matching row correctly: the currently
    misclassified matching rows over all rows.
    """
    target = target if target is not None else rule_list.target
    if not rows:
        raise InputError("max information gain over zero rows is undefined")
    fixable = sum(
        1
        for row in rows
        if candidate.applies(row) and rule_list.first_match(row, target) != row[target]
    )
    return fixable / len(rows)


class _Trainer:
    """The cases that assign the target, plus the greedy step with gain pruning.

    A row is such a case: its ``CaseIndex`` mask, target value and weight.
    Each premise's matching-row list shrinks as the premise specializes,
    so child evaluations touch only the parent's matches.
    """

    def __init__(self, model: CaseModel, target: str):
        self.target = target
        self.index = CaseIndex(model)
        rows = [
            (mask, lit.value, weight)
            for case, mask, weight in zip(model.cases, self.index.case_masks, self.index.case_weights)
            if (lit := claim(case.literals, target)) is not None
        ]
        if not rows:
            raise InputError(f"no case assigns the target attribute {target!r}")
        self._row_masks, self._row_targets, self._row_weights = zip(*rows)
        self.total = sum(self._row_weights)
        self.values = sorted(set(self._row_targets), key=value_key)
        self._target_attr_bit = self.index.attr_bit[Literal(target, self._row_targets[0])]
        self._lit_bits = [(self.index.bit[lit], self.index.attr_bit[lit]) for lit in self.index.literals]

    def best_insertion(self, rules: list[Rule]):
        """Best (gain, rule, position) this step, or None.

        Premises grow depth-first from the empty premise, each generated
        from its single canonical parent (drop the highest literal bit); a
        premise is expanded only while its maximum information gain
        exceeds the best gain found so far.  Both are sound: the bound is
        monotone along every specialization edge, so a pruned premise
        cannot hide a strictly better descendant.  Per premise, the gains
        of all insertion positions come from one suffix-sum pass over the
        matching rows keyed by their current first-match index.
        """
        rule_info = []
        for rule in rules:
            lit = claim(rule.conclusion, self.target)
            rule_info.append((self.index.mask_of(rule.premise), lit.value if lit else None))
        n_rules = len(rules)
        n_pos = n_rules + 1

        def first_idx(row_mask: int) -> int:
            for i, (mask, _) in enumerate(rule_info):
                if mask is not None and row_mask & mask == mask:
                    return i
            return n_rules

        row_idx = [first_idx(m) for m in self._row_masks]
        row_correct = [
            row_idx[i] < n_rules and rule_info[row_idx[i]][1] == self._row_targets[i]
            for i in range(len(self._row_masks))
        ]
        best_gain = 0.0
        best = None  # (sort key, premise frozenset, value, position)

        default_blocked = bool(rules) and not rules[-1].premise

        def consider(premise_lits: tuple[int, ...], matching: list[int]):
            """Score one premise; returns its maximum information gain."""
            nonlocal best_gain, best
            if not matching:
                return 0.0
            mig = sum(self._row_weights[i] for i in matching if not row_correct[i]) / self.total
            if premise_lits:
                positions = range(n_pos)
            elif default_blocked:
                positions = []
            else:
                positions = [n_rules]
            if positions:
                premise = frozenset(self.index.literals[j] for j in premise_lits)
                pkey = literal_set_key(premise)
                for value in self.values:
                    deltas = [0.0] * (n_pos + 1)
                    for i in matching:
                        delta = (1 if value == self._row_targets[i] else 0) - (
                            1 if row_correct[i] else 0
                        )
                        if delta:
                            deltas[row_idx[i]] += delta * self._row_weights[i]
                    acc = 0.0
                    suffix = [0.0] * n_pos
                    for p in range(n_pos - 1, -1, -1):
                        acc += deltas[p]
                        suffix[p] = acc
                    for p in positions:
                        gain = suffix[p] / self.total
                        if gain <= 0:
                            continue
                        cand_key = (
                            -gain,
                            len(premise_lits),
                            -mig,
                            pkey,
                            value_key(value),
                            p,
                        )
                        if best is None or cand_key < best[0]:
                            best = (cand_key, premise, value, p)
                            best_gain = gain
            return mig

        all_rows = list(range(len(self._row_masks)))
        mig0 = consider((), all_rows)
        # stack entries: (premise literal ids, premise attr mask, matching, mig);
        # the target's attribute starts out set, so no premise names it
        stack = [((), self._target_attr_bit, all_rows, mig0)]
        n_lits = len(self.index.literals)
        while stack:
            premise_lits, attr_mask, matching, mig = stack.pop()
            if mig <= best_gain:
                continue
            start = premise_lits[-1] + 1 if premise_lits else 0
            for j in range(start, n_lits):
                bit, ab = self._lit_bits[j]
                if ab & attr_mask:
                    continue
                child_matching = [i for i in matching if self._row_masks[i] & bit]
                if not child_matching:
                    continue
                child_lits = premise_lits + (j,)
                child_mig = consider(child_lits, child_matching)
                if child_mig > best_gain:
                    stack.append((child_lits, attr_mask | ab, child_matching, child_mig))
        if best is None:
            return None
        rule = Rule(
            premise=best[1],
            conclusion=frozenset([Literal(self.target, best[2])]),
        )
        return best_gain, rule, best[3]


def learn_hero(model: CaseModel, target: str) -> RuleList:
    """Grow a rule list for one target attribute by greedy information gain.

    Cases lacking the target are ignored; case weights count as rows.
    Every step inserts the (rule, position) pair with the highest strictly
    positive gain (ties: smaller premise, higher maximum information gain,
    lexicographic premise and conclusion, earliest position) and the loop
    stops when no insertion helps, so training accuracy increases strictly
    monotonically and the loop terminates.
    """
    trainer = _Trainer(model, target)
    rules: list[Rule] = []
    while True:
        step = trainer.best_insertion(rules)
        if step is None:
            break
        _, rule, position = step
        rules.insert(position, rule)
    return RuleList(tuple(rules), target=target)


def learn_hero_multi(model: CaseModel, targets: Iterable[str] | None = None) -> RuleList:
    """Learn one list per target and merge them for presentation.

    Used for the legal micro examples where no single target is
    designated: every attribute serves as target in turn, rules with
    identical premises are merged into conjunction conclusions, and the
    merged defaults close the list.
    """
    if not model.cases:
        raise InputError("cannot learn from an empty case model")
    if targets is None:
        targets = sorted({lit.attribute for lit in model.all_literals()})
    lists = [learn_hero(model, t) for t in targets]
    groups: dict[frozenset, set] = {}
    first_seen: dict[frozenset, tuple] = {}
    for li, rl in enumerate(lists):
        for pos, rule in enumerate(rl.rules):
            groups.setdefault(rule.premise, set()).update(rule.conclusion)
            key = (pos, li)
            if rule.premise not in first_seen or key < first_seen[rule.premise]:
                first_seen[rule.premise] = key
    merged: list[Rule] = []
    specific = [p for p in groups if p]
    specific.sort(key=lambda p: (first_seen[p], literal_set_key(p)))
    for premise in specific:
        conclusion = frozenset(groups[premise])
        if not is_consistent(conclusion):
            conclusion = frozenset(
                lit
                for lit in conclusion
                if sum(1 for o in conclusion if o.attribute == lit.attribute) == 1
            )
        if conclusion:
            merged.append(Rule(premise=premise, conclusion=conclusion))
    if frozenset() in groups:
        conclusion = frozenset(groups[frozenset()])
        if is_consistent(conclusion) and conclusion:
            merged.append(Rule(premise=frozenset(), conclusion=conclusion))
    return RuleList(tuple(merged), target=None)
