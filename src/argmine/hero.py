"""Greedy induction of a totally ordered defeasible rule list.

At every step the learner scores candidate rules at every insertion slot
by information gain (the increase in training-set accuracy under
first-match evaluation) and commits the best strictly positive one; it
stops when nothing improves.  Whether a more specific premise is worth
exploring is decided by the maximum information gain: the gain a perfect
oracle rule on the same premise would achieve, an upper bound for all of
its specializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .case_model import Literal, claim, holds, is_consistent, literal_set_key, literals, value_key
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
    """Weighted compressed rows plus the greedy step with gain pruning.

    Rows and premises are packed into integer bitmasks over the observed
    non-target literals; each premise's matching-row list shrinks as the
    premise specializes, so child evaluations touch only the parent's
    matches.
    """

    def __init__(self, rows: Sequence[Mapping[str, Any]], target: str):
        usable = [r for r in rows if target in r]
        if not usable:
            raise InputError(f"no row assigns the target attribute {target!r}")
        self.target = target
        counts: dict[tuple, int] = {}
        for row in usable:
            key = tuple(sorted((a, v) for a, v in row.items()))
            counts[key] = counts.get(key, 0) + 1
        keys = sorted(counts.keys(), key=lambda k: tuple((a, value_key(v)) for a, v in k))
        self.rows = [
            (
                frozenset(Literal(a, v) for a, v in key if a != target),
                dict(key)[target],
                counts[key],
            )
            for key in keys
        ]
        self.total = sum(w for _, _, w in self.rows)
        lits = {lit for prem, _, _ in self.rows for lit in prem}
        self.literals = sorted(lits, key=Literal.sort_key)
        self.values = sorted({v for _, v, _ in self.rows}, key=value_key)
        self._bit = {lit: 1 << i for i, lit in enumerate(self.literals)}
        attr_ids: dict[str, int] = {}
        for lit in self.literals:
            attr_ids.setdefault(lit.attribute, len(attr_ids))
        self._attr_bit = [1 << attr_ids[lit.attribute] for lit in self.literals]
        self._row_masks = [
            sum(self._bit[lit] for lit in prem) for prem, _, _ in self.rows
        ]
        self._row_targets = [v for _, v, _ in self.rows]
        self._row_weights = [w for _, _, w in self.rows]

    def _premise_mask(self, premise: frozenset) -> int | None:
        m = 0
        for lit in premise:
            b = self._bit.get(lit)
            if b is None:
                return None  # unobserved literal: matches nothing
            m |= b
        return m

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
            rule_info.append((self._premise_mask(rule.premise), lit.value if lit else None))
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
            for i in range(len(self.rows))
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
                premise = frozenset(self.literals[j] for j in premise_lits)
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

        all_rows = list(range(len(self.rows)))
        mig0 = consider((), all_rows)
        # stack entries: (premise literal ids, premise attr mask, matching, mig)
        stack = [((), 0, all_rows, mig0)]
        n_lits = len(self.literals)
        while stack:
            premise_lits, attr_mask, matching, mig = stack.pop()
            if mig <= best_gain:
                continue
            start = premise_lits[-1] + 1 if premise_lits else 0
            for j in range(start, n_lits):
                ab = self._attr_bit[j]
                if ab & attr_mask:
                    continue
                bit = 1 << j
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


def learn_hero(rows: Sequence[Mapping[str, Any]], target: str) -> RuleList:
    """Grow a rule list for one target attribute by greedy information gain.

    Rows lacking the target are ignored; duplicate rows act as weights.
    Every step inserts the (rule, position) pair with the highest strictly
    positive gain (ties: smaller premise, higher maximum information gain,
    lexicographic premise and conclusion, earliest position) and the loop
    stops when no insertion helps, so training accuracy increases strictly
    monotonically and the loop terminates.
    """
    if not rows:
        raise InputError("cannot learn from zero rows")
    trainer = _Trainer(rows, target)
    rules: list[Rule] = []
    while True:
        step = trainer.best_insertion(rules)
        if step is None:
            break
        _, rule, position = step
        rules.insert(position, rule)
    return RuleList(tuple(rules), target=target)


def learn_hero_multi(rows: Sequence[Mapping[str, Any]], targets: Iterable[str] | None = None) -> RuleList:
    """Learn one list per target and merge them for presentation.

    Used for the legal micro examples where no single target is
    designated: every attribute serves as target in turn, rules with
    identical premises are merged into conjunction conclusions, and the
    merged defaults close the list.
    """
    if not rows:
        raise InputError("cannot learn from zero rows")
    if targets is None:
        targets = sorted({a for row in rows for a in row.keys()})
    lists = [learn_hero(rows, t) for t in targets]
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
