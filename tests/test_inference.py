import itertools
import random

import pytest

from argmine.case_model import Argument, literal_set_key, literals
from argmine.datasets import presumption_of_innocence
from argmine.errors import InputError
from argmine.hero import Rule, RuleList, learn_hero_multi
from argmine.inference import (
    detect_self_attack,
    evaluate,
    grounded_extension,
    predict_rule_list,
    predict_theory,
)
from argmine.pruned_search import SearchConfig, Theory, learn_pruned
from conftest import random_case_model

TOL = 1e-9


def rule(premise, conclusion):
    return Rule(premise=literals(premise), conclusion=literals(conclusion))


@pytest.fixture
def legal_theory():
    return learn_pruned(presumption_of_innocence(), SearchConfig(max_premise_size=3))


class TestPredictTheory:
    def test_default_prediction(self, legal_theory):
        assert predict_theory(legal_theory, {}, "guilty") is False

    def test_exception_defeats_default(self, legal_theory):
        assert predict_theory(legal_theory, {"evidence": True}, "guilty") is True
        assert predict_theory(legal_theory, {"evidence": True}, "innocent") is False

    def test_empty_theory_abstains(self, legal_theory):
        from argmine.pruned_search import Theory

        empty = Theory(arguments=(), config=SearchConfig(), model_summary={})
        assert predict_theory(empty, {"evidence": True}, "guilty") is None

    def test_reinstatement_through_nested_exception(self):
        # d defaults to 1; a=1 overrules it to 0; a=1,b=1 reinstates 1
        from argmine.case_model import build_case_model

        rows = (
            [{"a": 0, "b": 0, "d": 1}] * 8
            + [{"a": 1, "b": 0, "d": 0}] * 4
            + [{"a": 1, "b": 1, "d": 1}] * 2
        )
        model = build_case_model(rows)
        theory = learn_pruned(model, SearchConfig(max_premise_size=2, exception_depth=3))
        assert predict_theory(theory, {"a": 0, "b": 0}, "d") == 1
        assert predict_theory(theory, {"a": 1, "b": 0}, "d") == 0
        assert predict_theory(theory, {"a": 1, "b": 1}, "d") == 1


def flatten_and_recheck(theory, instance, target):
    """Definitional prediction: anchor on the most general applicable
    argument claiming the target, flatten its whole exception tree, and
    test every node from scratch for applying, claiming the target and
    being undefeated; the most specific such node wins."""

    def applies(arg):
        return all(lit.matches(instance) for lit in arg.premise)

    def target_lit(arg):
        return next((lit for lit in arg.conclusion if lit.attribute == target), None)

    def undefeated(arg):
        claimed = {lit.value for lit in arg.conclusion if lit.attribute == target}
        return not any(
            any(lit.attribute == target and lit.value not in claimed for lit in exc.conclusion)
            and applies(exc) and undefeated(exc)
            for exc in arg.exceptions
        )

    def key(arg, sign):
        return (sign * len(arg.premise), -(arg.weight or 0), literal_set_key(arg.premise),
                target_lit(arg).sort_key())

    roots = [a for a in theory.arguments if target_lit(a) and applies(a)]
    if not roots:
        return None
    anchor = min(roots, key=lambda a: key(a, 1))
    tree, stack = [], [anchor]
    while stack:
        arg = stack.pop()
        tree.append(arg)
        stack.extend(arg.exceptions)
    survivors = [a for a in tree if target_lit(a) and applies(a) and undefeated(a)]
    if not survivors:
        return target_lit(anchor).value
    return target_lit(min(survivors, key=lambda a: key(a, -1))).value


def grounded_labelling(anchor, instance, target):
    """The applicable nodes of ``anchor``'s exception tree, each with its
    target literal (or None), and the grounded extension of the attack
    graph in which an exception attacks its parent when it claims a
    different target value."""
    nodes, attacks = [], []

    def visit(arg, parent):
        if not all(lit.matches(instance) for lit in arg.premise):
            return
        lit = next((lit for lit in arg.conclusion if lit.attribute == target), None)
        nodes.append((arg, lit))
        index = len(nodes) - 1
        if parent is not None and lit is not None and lit != nodes[parent][1]:
            attacks.append((index, parent))
        for exc in arg.exceptions:
            visit(exc, index)

    visit(anchor, None)
    return nodes, grounded_extension(len(nodes), attacks)


def grounded_prediction(theory, instance, target):
    """Definitional prediction through Dung semantics: anchor as the
    flattening oracle does, then take the most specific target claim in
    the grounded extension of the anchor's applicable exception tree."""

    def key(arg, lit, sign):
        return (sign * len(arg.premise), -(arg.weight or 0), literal_set_key(arg.premise), lit.sort_key())

    roots = [
        (a, lit) for a in theory.arguments for lit in a.conclusion
        if lit.attribute == target and all(p.matches(instance) for p in a.premise)
    ]
    if not roots:
        return None
    anchor, _ = min(roots, key=lambda pair: key(*pair, 1))
    nodes, grounded = grounded_labelling(anchor, instance, target)
    claims = [nodes[i] for i in grounded if nodes[i][1] is not None]
    return min(claims, key=lambda pair: key(*pair, -1))[1].value


def every_instance(model):
    """Every full and partial assignment over the model's attributes."""
    options = [[None, *values] for values in model.attributes.values()]
    for choice in itertools.product(*options):
        yield {a: v for a, v in zip(model.attributes, choice) if v is not None}


def test_predict_theory_matches_the_flattening_oracle():
    # theories learned for every attribute mix target claims with merged
    # conclusions and exceptions on the other attributes
    rng = random.Random(5)
    compared = 0
    for _ in range(200):
        model = random_case_model(rng)
        target = rng.choice(list(model.attributes))
        for depth, cap, targets in itertools.product((0, 1, 3), (1, 2, 4), (None, (target,))):
            theory = learn_pruned(model, SearchConfig(cap, depth, targets))
            for instance in every_instance(model):
                expected = flatten_and_recheck(theory, instance, target)
                assert grounded_prediction(theory, instance, target) == expected, (theory, instance, target)
                assert predict_theory(theory, instance, target) == expected, (theory, instance, target)
                compared += 1
    assert compared > 50_000


def test_survives_reports_defeat_and_reinstatement():
    # d defaults to 1 (and e to 1); a=1 overrules d to 0; a=1,b=1 reinstates d=1
    reinstate = Argument(premise=literals({"a": 1, "b": 1}), conclusion=literals({"d": 1}))
    overrule = Argument(premise=literals({"a": 1}), conclusion=literals({"d": 0}), exceptions=(reinstate,))
    other = Argument(premise=literals({"c": 1}), conclusion=literals({"e": 0}))
    default = Argument(premise=frozenset(), conclusion=literals({"d": 1, "e": 1}), exceptions=(overrule, other))
    theory = Theory(arguments=(default,), config=SearchConfig(), model_summary={})
    for instance, undefeated, predicted in [
        ({"a": 0, "c": 1}, [default, other], 1),  # an exception on e leaves the claim on d standing
        ({"a": 1, "b": 0}, [overrule], 0),
        ({"a": 1, "b": 1}, [default, reinstate], 1),
    ]:
        nodes, grounded = grounded_labelling(default, instance, "d")
        assert [nodes[i][0] for i in sorted(grounded)] == undefeated, instance
        assert predict_theory(theory, instance, "d") == predicted, instance


class TestPredictRuleList:
    def test_legal_list_examples(self):
        merged = learn_hero_multi(presumption_of_innocence())
        assert predict_rule_list(merged, {"evidence": True}, "innocent") is False
        assert predict_rule_list(merged, {}, "innocent") is True

    def test_empty_list_abstains(self):
        rl = RuleList((), target="d")
        assert predict_rule_list(rl, {"a": 1}) is None


class TestEvaluate:
    def test_all_correct(self):
        report = evaluate([("A", "A"), ("B", "B")])
        assert abs(report.accuracy - 1.0) < TOL
        assert abs(report.weighted_f1 - 1.0) < TOL

    def test_hand_computed_mixed_case(self):
        # class A: precision 1/2, recall 1 -> F1 2/3; class B: precision 1,
        # recall 2/3 -> F1 4/5; weighted = 0.25*(2/3) + 0.75*(4/5)
        report = evaluate([("A", "A"), ("A", "B"), ("B", "B"), ("B", "B")])
        assert abs(report.accuracy - 0.75) < TOL
        assert abs(report.weighted_f1 - (0.25 * (2 / 3) + 0.75 * 0.8)) < TOL
        assert abs(report.per_class["A"]["precision"] - 0.5) < TOL
        assert abs(report.per_class["A"]["recall"] - 1.0) < TOL
        assert abs(report.per_class["B"]["precision"] - 1.0) < TOL
        assert abs(report.per_class["B"]["recall"] - 2 / 3) < TOL

    def test_all_abstain(self):
        report = evaluate([(None, "A"), (None, "B")])
        assert report.accuracy == 0.0
        assert report.abstention_rate == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            evaluate([])

    def test_accuracy_equals_weighted_recall(self, rng):
        for _ in range(30):
            pairs = [
                (rng.choice(["A", "B", "C", None]), rng.choice(["A", "B", "C"]))
                for _ in range(rng.randint(1, 40))
            ]
            report = evaluate(pairs)
            n = len(pairs)
            weighted_recall = sum(
                (stats["support"] / n) * stats["recall"]
                for stats in report.per_class.values()
            )
            assert abs(report.accuracy - weighted_recall) < TOL

    def test_balanced_classes_weighted_f1_is_plain_mean(self, rng):
        pairs = [("A", "A"), ("B", "A"), ("A", "B"), ("B", "B")]
        report = evaluate(pairs)
        plain = sum(s["f1"] for s in report.per_class.values()) / len(report.per_class)
        assert abs(report.weighted_f1 - plain) < TOL


class TestGroundedExtension:
    def test_no_attacks_keeps_everything(self):
        assert grounded_extension(3, []) == {0, 1, 2}

    def test_chain_reinstates_the_end(self):
        assert grounded_extension(3, [(0, 1), (1, 2)]) == {0, 2}

    def test_mutual_attack_defends_nobody(self):
        assert grounded_extension(2, [(0, 1), (1, 0)]) == frozenset()

    def test_conflict_free_and_admissible(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            attacks = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if rng.random() < 0.25
            ]
            ext = grounded_extension(n, attacks)
            att = set(attacks)
            assert not any((a, b) in att for a in ext for b in ext)
            for member in ext:
                for a, t in att:
                    if t == member:
                        assert any((d, a) in att for d in ext)


class TestDetectSelfAttack:
    def test_hero_legal_output_flagged(self):
        merged = learn_hero_multi(presumption_of_innocence())
        offenders = detect_self_attack(merged)
        assert offenders
        assert any(len(chain) == 1 and chain[0].is_composite for chain in offenders)

    def test_pruned_legal_theory_clean(self):
        theory = learn_pruned(presumption_of_innocence(), SearchConfig(max_premise_size=3))
        assert detect_self_attack(theory) == []

    def test_single_rule_clean(self):
        assert detect_self_attack([rule({"a": 1}, {"d": 1})]) == []

    def test_mutually_attacking_composites(self):
        rules = [rule({"a2": 1}, {"a0": 0}), rule({"a1": 0}, {"a2": 1}),
                 rule({"a3": 1}, {"a0": 1}), rule({"a0": 0}, {"a3": 1})]
        offenders = detect_self_attack(rules)
        assert [[chain.links for chain in o] for o in offenders] == [[(0, 3, 2)], [(1, 0), (3, 2)]]
