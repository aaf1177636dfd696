import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import argmine
from argmine.case_model import Case, CaseModel, Literal, build_case_model, literals
from argmine.datasets import presumption_of_innocence
from argmine.errors import InputError
from argmine.hero import (
    Rule,
    RuleList,
    _Trainer,
    learn_hero,
    learn_hero_multi,
)

from conftest import random_case_model
from oracles import _accuracy, best_insertion_oracle, information_gain, max_information_gain

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


def wide_case_model(rng):
    """Random model wider than conftest's: 3-7 attributes, 2-4 values, 5-60 cases, weights 1-9."""
    attrs = [f"a{i}" for i in range(rng.randint(3, 7))]
    domains = {a: range(rng.randint(2, 4)) for a in attrs}
    seen = {}
    for _ in range(rng.randint(5, 60)):
        lits = frozenset(Literal(a, rng.choice(domains[a])) for a in attrs if rng.random() < 0.8)
        if not lits:
            lits = frozenset([Literal(attrs[0], rng.choice(domains[attrs[0]]))])
        seen[lits] = seen.get(lits, 0) + rng.randint(1, 9)
    return CaseModel(tuple(Case(lits, w) for lits, w in seen.items()))


def assert_steps_match_oracle(model, target, rules=()):
    """Every greedy step until the list is complete returns the oracle's exact triple."""
    trainer = _Trainer(model, target)
    rules = list(rules)
    while True:
        step = trainer.best_insertion(rules)
        assert step == best_insertion_oracle(model, target, rules), (model, target, rules)
        if step is None:
            return
        _, new_rule, pos = step
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

    def test_greedy_step_equals_the_row_oracle_exactly(self, rng):
        # gains compared with ==: a float-rounded bound drops tied candidates
        # that a 1e-9 tolerance would not notice
        models = [random_case_model(rng) for _ in range(300)]
        models += [wide_case_model(rng) for _ in range(12)]
        for model in models:
            for target, values in model.attributes.items():
                assert_steps_match_oracle(model, target)
                # a list without a default leaves rows that no rule matches
                other = rng.choice([lit for lit in model.all_literals() if lit.attribute != target] or [None])
                if other is not None:
                    start = Rule(frozenset([other]), frozenset([Literal(target, rng.choice(values))]))
                    assert_steps_match_oracle(model, target, [start])

    def test_greedy_step_keeps_the_ties_a_float_bound_drops(self):
        # total weight 41: a bound of best_gain * 41 rounds above the integer
        # count it stands for, which skips a tied candidate with a better key
        rows = [
            ({"a1": 1, "a2": 3, "a3": 2, "a5": 1}, 9),
            ({"a1": 3, "a2": 2, "a3": 3, "a5": 0}, 7),
            ({"a0": 0, "a1": 2, "a2": 1}, 6),
            ({"a0": 0, "a1": 3, "a2": 0, "a3": 2, "a5": 2}, 5),
            ({"a1": 0, "a2": 1, "a3": 3, "a4": 1}, 5),
            ({"a0": 0, "a1": 0, "a2": 1, "a3": 3, "a4": 0, "a5": 2}, 4),
            ({"a0": 0, "a1": 2, "a2": 1, "a3": 0, "a4": 1, "a5": 2}, 3),
            ({"a0": 0, "a1": 3, "a2": 3, "a4": 0}, 1),
            ({"a0": 1, "a1": 3, "a2": 1, "a3": 0, "a5": 0}, 1),
        ]
        model = CaseModel(tuple(Case(literals(m), w) for m, w in rows))
        assert_steps_match_oracle(model, "a2")

    def test_greedy_step_takes_the_tied_premise_the_key_ranks_first(self):
        # after the default, {a1=1, a3=2} and {a2=0, a3=2} both cover only the
        # last case and gain 1/3; the key's premise order takes a1=1, which a
        # search that prunes on `mig <= best` never scores
        model = CaseModel((
            Case(literals({"a0": 0, "a1": 1, "a2": 0}), 1),
            Case(literals({"a0": 0, "a3": 2}), 1),
            Case(literals({"a0": 2, "a1": 1, "a2": 0, "a3": 2}), 1),
        ))
        assert learn_hero(model, "a0").rules == (
            rule({"a1": 1, "a3": 2}, {"a0": 2}),
            rule({}, {"a0": 0}),
        )
        assert_steps_match_oracle(model, "a0")

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

    def test_json_key_order_does_not_follow_the_string_hash_seed(self):
        # premises are frozensets, whose order follows PYTHONHASHSEED; the
        # mappings are written in literal order, as argument_to_json writes them
        script = (
            "import json\n"
            "from argmine.case_model import literals\n"
            "from argmine.hero import Rule, RuleList\n"
            "premise = {'alpha': 1, 'beta': 2, 'gamma': 'x', 'delta': 0, 'eps': 3}\n"
            "rl = RuleList((Rule(literals(premise), literals({'d': 1, 'e': 0})),"
            " Rule(frozenset(), literals({'d': 0}))), target='d')\n"
            "print(json.dumps(rl.to_json()))\n"
        )
        src = str(Path(argmine.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True, timeout=60)
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs
