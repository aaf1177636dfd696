import itertools
import json
import random

import pytest

from argmine.case_model import CaseModel, Literal, build_case_model, literals
from argmine.datasets import presumption_of_innocence
from argmine.errors import InputError
from argmine.hero import (
    Rule,
    RuleList,
    _Trainer,
    _accuracy,
    information_gain,
    learn_hero,
    learn_hero_multi,
    max_information_gain,
)

from conftest import random_case_model

TOL = 1e-9


def rule(premise, conclusion):
    return Rule(premise=literals(premise), conclusion=literals(conclusion))


def three_seven_rows():
    return [{"a": 1, "d": 1}] * 3 + [{"a": 0, "d": 0}] * 7


def enumerate_premises(rows, target):
    """All consistent premises over non-target attributes (oracle side)."""
    domains = {}
    for row in rows:
        for a, v in row.items():
            if a != target:
                domains.setdefault(a, set()).add(v)
    attrs = sorted(domains)
    out = []
    for r in range(len(attrs) + 1):
        for chosen in itertools.combinations(attrs, r):
            for values in itertools.product(*(sorted(domains[a]) for a in chosen)):
                out.append(frozenset(Literal(a, v) for a, v in zip(chosen, values)))
    return out


def brute_force_best_gain(rule_list, rows, target):
    """Max gain over every (premise, value, position); defaults only last."""
    values = sorted({row[target] for row in rows})
    best = 0.0
    for premise in enumerate_premises(rows, target):
        if not premise:
            if rule_list.rules and not rule_list.rules[-1].premise:
                continue
            positions = [len(rule_list.rules)]
        else:
            positions = range(len(rule_list.rules) + 1)
        for value in values:
            candidate = Rule(premise=premise, conclusion=frozenset([Literal(target, value)]))
            for pos in positions:
                gain = information_gain(rule_list, candidate, pos, rows, target)
                best = max(best, gain)
    return best


def assert_steps_match_brute_force(trainer, rows, target):
    """Up to ten greedy steps, each checked against the brute-force best gain."""
    rules = []
    for _step in range(10):
        step = trainer.best_insertion(rules)
        rl = RuleList(tuple(rules), target=target)
        brute = brute_force_best_gain(rl, rows, target)
        if step is None:
            assert brute <= TOL
            break
        gain, new_rule, pos = step
        assert abs(gain - brute) < TOL, (rows, rules, gain, brute)
        # cross-check the fast path against the direct computation
        direct = information_gain(rl, new_rule, pos, rows, target)
        assert abs(gain - direct) < TOL
        rules.insert(pos, new_rule)


class TestInformationGain:
    def test_rule_firing_nowhere_gains_nothing(self):
        rows = three_seven_rows()
        base = RuleList((rule({}, {"d": 0}),), target="d")
        dead = rule({"a": 5}, {"d": 1})
        assert abs(information_gain(base, dead, 0, rows)) < TOL

    def test_insert_above_default(self):
        rows = three_seven_rows()
        base = RuleList((rule({}, {"d": 0}),), target="d")
        cand = rule({"a": 1}, {"d": 1})
        assert abs(information_gain(base, cand, 0, rows) - 0.3) < TOL

    def test_insert_below_default_is_shadowed(self):
        rows = three_seven_rows()
        base = RuleList((rule({}, {"d": 0}),), target="d")
        cand = rule({"a": 1}, {"d": 1})
        assert abs(information_gain(base, cand, 1, rows)) < TOL


class TestMaxInformationGain:
    def test_already_correct_rows_bound_zero(self):
        rows = three_seven_rows()
        base = RuleList((rule({}, {"d": 0}),), target="d")
        cand = rule({"a": 0}, {"d": 0})
        assert abs(max_information_gain(cand, base, rows)) < TOL

    def test_counts_misclassified_matching_rows(self):
        # 4 matching rows, 2 currently wrong, 10 rows total -> 0.2
        rows = (
            [{"a": 1, "d": 1}] * 2
            + [{"a": 1, "d": 0}] * 2
            + [{"a": 0, "d": 0}] * 6
        )
        base = RuleList((rule({}, {"d": 0}),), target="d")
        cand = rule({"a": 1}, {"d": 1})
        assert abs(max_information_gain(cand, base, rows) - 0.2) < TOL

    def test_empty_premise_on_all_wrong_list(self):
        rows = three_seven_rows()
        base = RuleList((rule({}, {"d": 2}),), target="d")  # always wrong
        cand = rule({}, {"d": 0})
        assert abs(max_information_gain(cand, base, rows) - 1.0) < TOL


class TestLearnHero:
    def test_legal_example_reproduced(self):
        innocent = learn_hero(presumption_of_innocence(), "innocent")
        assert [
            ({"evidence": True}, {"innocent": False}),
            ({}, {"innocent": True}),
        ] == [
            (
                {l.attribute: l.value for l in r.premise},
                {l.attribute: l.value for l in r.conclusion},
            )
            for r in innocent.rules
        ]

    def test_legal_example_merged_lists(self):
        merged = learn_hero_multi(presumption_of_innocence())
        assert len(merged.rules) == 2
        first, default = merged.rules
        assert first.premise == literals({"evidence": True})
        assert first.conclusion == literals({"innocent": False, "guilty": True})
        assert default.premise == frozenset()
        assert default.conclusion == literals(
            {"innocent": True, "guilty": False, "evidence": True}
        )

    def test_constant_target_single_default(self):
        rows = [{"a": i % 3, "d": 7} for i in range(9)]
        rl = learn_hero(build_case_model(rows), "d")
        assert len(rl.rules) == 1
        assert not rl.rules[0].premise
        assert all(rl.first_match(r) == 7 for r in rows)

    def test_three_seven_dataset(self):
        rows = three_seven_rows()
        rl = learn_hero(build_case_model(rows), "d")
        assert all(rl.first_match(r) == r["d"] for r in rows)
        # the default for the majority class is learned first, then the
        # minority rule lands above it
        assert rl.rules[-1].premise == frozenset()

    def test_empty_rows_rejected(self):
        with pytest.raises(InputError):
            learn_hero(CaseModel(()), "d")

    def test_monotone_training_accuracy(self, rng):
        for _ in range(30):
            rows = [
                {"a": rng.randint(0, 1), "b": rng.randint(0, 1), "d": rng.randint(0, 1)}
                for _ in range(rng.randint(2, 12))
            ]
            trainer = _Trainer(build_case_model(rows), "d")
            rules = []
            accs = [_accuracy(rules, rows, "d")]
            while True:
                step = trainer.best_insertion(rules)
                if step is None:
                    break
                gain, new_rule, pos = step
                assert gain > 0
                rules.insert(pos, new_rule)
                accs.append(_accuracy(rules, rows, "d"))
            for before, after in zip(accs, accs[1:]):
                assert after > before + TOL / 10

    def test_greedy_step_matches_brute_force(self, rng):
        for _ in range(25):
            n_attrs = rng.randint(1, 3)
            rows = [
                {
                    **{f"x{i}": rng.randint(0, 1) for i in range(n_attrs)},
                    "d": rng.randint(0, 1),
                }
                for _ in range(rng.randint(2, 12))
            ]
            assert_steps_match_brute_force(_Trainer(build_case_model(rows), "d"), rows, "d")

    def test_greedy_step_on_partial_cases_matches_brute_force(self, rng):
        # cases may leave attributes out; the rows are the weight-expanded
        # cases that assign the target
        for _ in range(30):
            model = random_case_model(rng)
            for target in model.attributes:
                rows = [
                    {lit.attribute: lit.value for lit in case.literals}
                    for case in model.cases
                    if any(lit.attribute == target for lit in case.literals)
                    for _ in range(case.weight)
                ]
                assert_steps_match_brute_force(_Trainer(model, target), rows, target)

    def test_pruning_bound_is_sound(self, rng):
        # the oracle gain of a premise bounds every specialization's gain
        for _ in range(20):
            rows = [
                {"a": rng.randint(0, 1), "b": rng.randint(0, 1), "d": rng.randint(0, 1)}
                for _ in range(rng.randint(3, 12))
            ]
            base = RuleList((rule({}, {"d": 0}),), target="d")
            values = sorted({r["d"] for r in rows})
            for premise in enumerate_premises(rows, "d"):
                cand = Rule(premise=premise, conclusion=frozenset([Literal("d", values[0])]))
                bound = max_information_gain(cand, base, rows)
                for other in enumerate_premises(rows, "d"):
                    if not other > premise:
                        continue
                    for v in values:
                        spec = Rule(premise=other, conclusion=frozenset([Literal("d", v)]))
                        for pos in range(len(base.rules) + 1):
                            assert information_gain(base, spec, pos, rows) <= bound + TOL


class TestRuleList:
    def test_default_must_be_last(self):
        with pytest.raises(InputError):
            RuleList((rule({}, {"d": 0}), rule({"a": 1}, {"d": 1})), target="d")

    def test_first_match_order(self):
        rl = RuleList(
            (rule({"a": 1}, {"d": 1}), rule({}, {"d": 0})),
            target="d",
        )
        assert rl.first_match({"a": 1}) == 1
        assert rl.first_match({"a": 0}) == 0
        assert rl.first_match({}) == 0  # default fires

    def test_json_roundtrip(self):
        rl = learn_hero(build_case_model(three_seven_rows()), "d")
        restored = RuleList.from_json(json.loads(json.dumps(rl.to_json())))
        assert restored == rl
