"""Greedy induction of a totally ordered defeasible rule list.

At every step the learner scores candidate rules at every insertion slot
by information gain (the increase in training-set accuracy under
first-match evaluation) and commits the best strictly positive one; it
stops when nothing improves.

HeRO learns from the same weighted case model as the pruned search: each
case that assigns the target stands for ``weight`` training rows.  The
rows are the bits of ``CaseIndex.widen``'s row bitsets, so a premise's
cover (the rows it matches) is the AND of its literals' row bitsets and
every weighted count is a popcount.  A score depends on the cover alone,
so one walk over the free sets of the row lattice lists each distinct
cover once, with its smallest premise, and every step scores those.
Gains are compared as integer numerators.

A row bitset takes one bit per row, so HeRO learns from at most
``MAX_ROWS`` (1,000,000) rows: a case model whose weights total more is
rejected with an InputError before any row bitset is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import and_
from typing import Any, Iterable, Mapping, Sequence

from .case_model import (
    CaseIndex,
    CaseModel,
    Literal,
    claim,
    holds,
    is_consistent,
    json_shape,
    literal_set_key,
    literals,
    literals_to_mapping,
    value_key,
)
from .errors import InputError

MAX_ROWS = 1_000_000


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
                    "premise": literals_to_mapping(r.premise),
                    "conclusion": literals_to_mapping(r.conclusion),
                }
                for r in self.rules
            ],
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "RuleList":
        rules = []
        for i, r in enumerate(json_shape(data["rules"], list, "rules")):
            at = f"rules[{i}]"
            premise = json_shape(json_shape(r, dict, at).get("premise", {}), dict, at, "premise")
            conclusion = json_shape(r["conclusion"], dict, at, "conclusion")
            rules.append(Rule(premise=literals(premise), conclusion=literals(conclusion)))
        return RuleList(rules=tuple(rules), target=data.get("target"))


def _first_match(rules: Sequence[Rule], instance: Mapping[str, Any], target: str) -> Any:
    for rule in rules:
        if holds(rule.premise, instance):
            lit = claim(rule.conclusion, target)
            if lit is not None:
                return lit.value
    return None


class _Trainer:
    """The rows that assign the target, each cover's smallest premise, and the greedy step.

    The rows are the union of the target values' row bitsets; a
    literal's row bitset is taken within them, and empty on the target's
    attribute.
    The key ranks a cover's premises by (length, literal ids), and
    ``CaseIndex`` numbers literals in ``Literal.sort_key`` order, so each
    nonempty cover is scored with its smallest premise, a free set (no
    proper subset has its cover).  Dropping that premise's highest
    literal leaves the smallest premise of a cover one literal shorter,
    so one level-wise walk in ``__init__`` finds them all: level k
    extends each premise of level k-1 by every higher literal id, in
    lexicographic order, and a new cover keeps the first that reaches it.
    """

    def __init__(self, model: CaseModel, target: str):
        rows = sum(case.weight for case in model.cases)
        if rows > MAX_ROWS:
            raise InputError(f"HeRO takes at most {MAX_ROWS:,} rows; the case weights total {rows:,}")
        self.target = target
        self.index = CaseIndex(model)
        self._lit_rows = [self.index.widen(cover) for cover in self.index.cover]
        self._value_rows = {lit.value: rows for lit, rows in zip(self.index.literals, self._lit_rows)
                            if lit.attribute == target}
        self._all_rows = sum(self._value_rows.values())  # a case holds one target value: disjoint rows
        self.total = self._all_rows.bit_count()
        if not self.total:
            raise InputError(f"no case assigns the target attribute {target!r}")
        self.values = sorted(self._value_rows, key=value_key)
        target_bit = 1 << self.index.attr_ids[target]
        lit_rows = [0 if abit == target_bit else rows & self._all_rows
                    for abit, rows in zip(self.index.attr_bit, self._lit_rows)]
        # cover -> its smallest nonempty premise as literal ids; the empty one may only be the default
        self._covers: dict[int, tuple[int, ...]] = {}
        level = [((), self._all_rows)]
        while level:
            grown = []
            for ids, cover in level:
                for j in range(ids[-1] + 1 if ids else 0, len(lit_rows)):
                    child = cover & lit_rows[j]
                    if child and child not in self._covers:
                        self._covers[child] = ids + (j,)
                        grown.append((ids + (j,), child))
            level = grown

    def best_insertion(self, rules: list[Rule]):
        """Best (gain, rule, position) this step, or None.

        Scores the empty premise at the default slot (unless the list
        already ends in a default), then each cover of the walk once with
        its smallest premise, under the full key: higher gain, shorter
        premise, higher maximum information gain, smaller literal ids,
        smaller value, earlier position.

        The rows are bucketed by their current first-match index once per
        step.  Inserting value v at position p changes only the rows whose
        index is at least p: a wrong row of value v turns correct (``up``)
        and a correct row of another value turns wrong (``down``).  So a
        premise's gain numerator there is two popcounts, and its maximum
        information gain numerator is the popcount of its wrong rows,
        which bounds every gain of the premise.  Gains are compared as
        these integer numerators, which keeps ties exact; they are
        divided by the total weight only when returned.  Every early exit
        skips only what gains less than the best so far, never a tie.
        """
        n_rules = len(rules)
        n_pos = n_rules + 1
        remaining = self._all_rows
        correct = 0
        at_least = [0] * n_pos
        for i, rule in enumerate(rules):
            ids = self.index.ids_of(rule.premise)  # None: a literal no case holds
            rows = 0 if ids is None else reduce(and_, (self._lit_rows[j] for j in ids), remaining)
            remaining &= ~rows
            lit = claim(rule.conclusion, self.target)
            correct |= rows & self._value_rows.get(lit.value if lit else None, 0)
            at_least[i] = rows  # the rows whose first match is rule i, for now
        at_least[n_rules] = remaining
        for p in range(n_rules - 1, -1, -1):
            at_least[p] |= at_least[p + 1]
        wrong = self._all_rows & ~correct
        moves = [(v, wrong & self._value_rows[v], correct & ~self._value_rows[v]) for v in self.values]
        best_num = 0
        best = None  # (sort key, premise literal ids, value, position)
        scored = self._covers.items()
        if not rules or rules[-1].premise:
            scored = chain([(self._all_rows, ())], scored)
        for matching, ids in scored:
            mig = (matching & wrong).bit_count()
            floor = best_num or 1  # a candidate must gain, and tie or beat the best
            if mig < floor:
                continue
            positions = range(n_pos) if ids else (n_rules,)
            for value, up, down in moves:
                up &= matching
                if up.bit_count() < floor:
                    continue
                down &= matching
                for p in positions:
                    gained = (up & at_least[p]).bit_count()
                    if gained < floor:  # at_least[p] shrinks as p grows
                        break
                    num = gained - (down & at_least[p]).bit_count()
                    if num < floor:
                        continue
                    cand_key = (-num, len(ids), -mig, ids, value_key(value), p)
                    if best is None or cand_key < best[0]:
                        best = (cand_key, ids, value, p)
                        best_num = floor = num
        if best is None:
            return None
        rule = Rule(
            premise=frozenset(self.index.literals[j] for j in best[1]),
            conclusion=frozenset([Literal(self.target, best[2])]),
        )
        return best_num / self.total, rule, best[3]


def learn_hero(model: CaseModel, target: str) -> RuleList:
    """Grow a rule list for one target attribute by greedy information gain.

    Cases lacking the target are ignored; case weights count as rows.
    Every step inserts the (rule, position) pair that ranks first, exactly,
    by: higher strictly positive gain, fewer premise literals, higher
    maximum information gain (matching rows the list gets wrong), the
    premise's ``literal_set_key``, the value's ``value_key``, the earlier
    position.  The loop stops when no insertion helps, so training
    accuracy increases strictly monotonically and the loop terminates.
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
