import itertools
import random

import pytest

from argmine.case_model import Argument, Literal, literal_set_key, literals
from argmine.datasets import presumption_of_innocence, presumption_rows
from argmine.errors import InputError
from argmine.hero import Rule, RuleList, learn_hero_multi
from argmine.inference import (
    AttackGraph,
    ChainArgument,
    attack_graph,
    detect_self_attack,
    evaluate,
    grounded_extension,
    predict_rule_list,
    predict_theory,
    preferred_extensions,
    _survives,
)
from argmine.pruned_search import SearchConfig, learn_pruned
from conftest import random_case_model

TOL = 1e-9


def rule(premise, conclusion):
    return Rule(premise=literals(premise), conclusion=literals(conclusion))


def graph_from_attacks(n, attacks):
    nodes = tuple(
        ChainArgument(links=(i,), premise=frozenset(), intermediates=frozenset(),
                      conclusion=frozenset([Literal("c", i)]))
        for i in range(n)
    )
    return AttackGraph(nodes=nodes, attacks=tuple(attacks))


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
                assert predict_theory(theory, instance, target) == expected, (theory, instance, target)
                compared += 1
    assert compared > 50_000


def test_survives_reports_defeat_and_reinstatement():
    # d defaults to 1 (and e to 1); a=1 overrules d to 0; a=1,b=1 reinstates d=1
    reinstate = Argument(premise=literals({"a": 1, "b": 1}), conclusion=literals({"d": 1}))
    overrule = Argument(premise=literals({"a": 1}), conclusion=literals({"d": 0}), exceptions=(reinstate,))
    other = Argument(premise=literals({"c": 1}), conclusion=literals({"e": 0}))
    default = Argument(premise=frozenset(), conclusion=literals({"d": 1, "e": 1}), exceptions=(overrule, other))
    for instance, survives, found in [
        ({"a": 0, "c": 1}, True, [default]),  # an exception on e leaves the claim on d standing
        ({"a": 1, "b": 0}, False, [overrule]),
        ({"a": 1, "b": 1}, True, [reinstate, default]),
    ]:
        walked = []
        assert _survives(default, instance, "d", walked) is survives, instance
        assert [arg for arg, _ in walked] == found, instance


class TestPredictRuleList:
    def test_legal_list_examples(self):
        merged = learn_hero_multi(presumption_rows())
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


class TestAttackGraph:
    def test_disjoint_rules_no_edges(self):
        g = attack_graph([rule({"a": 1}, {"b": 1}), rule({"c": 1}, {"d": 1})])
        assert g.attacks == ()

    def test_direct_conclusion_conflict_is_mutual(self):
        g = attack_graph([rule({"a": 1}, {"d": 1}), rule({"a": 1}, {"d": 0})])
        assert (0, 1) in g.attacks and (1, 0) in g.attacks

    def test_hero_legal_pair_produces_self_attacking_composite(self):
        merged = learn_hero_multi(presumption_rows())
        g = attack_graph(merged)
        composites = [n for n in g.nodes if n.is_composite]
        assert composites, "chaining the default into the specific rule must compose"
        self_attackers = [i for i, n in enumerate(g.nodes) if (i, i) in set(g.attacks)]
        assert self_attackers


class TestGroundedExtension:
    def test_no_attacks_keeps_everything(self):
        g = graph_from_attacks(3, [])
        assert grounded_extension(g) == {0, 1, 2}

    def test_chain_reinstates_the_end(self):
        g = graph_from_attacks(3, [(0, 1), (1, 2)])
        assert grounded_extension(g) == {0, 2}

    def test_mutual_attack_defends_nobody(self):
        g = graph_from_attacks(2, [(0, 1), (1, 0)])
        assert grounded_extension(g) == frozenset()

    def test_conflict_free_and_admissible(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            attacks = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if rng.random() < 0.25
            ]
            g = graph_from_attacks(n, attacks)
            ext = grounded_extension(g)
            att = set(attacks)
            assert not any((a, b) in att for a in ext for b in ext)
            for member in ext:
                for a, t in att:
                    if t == member:
                        assert any((d, a) in att for d in ext)

    def test_grounded_subset_of_every_preferred(self, rng):
        for _ in range(30):
            n = rng.randint(1, 9)
            attacks = [
                (a, b)
                for a in range(n)
                for b in range(n)
                if rng.random() < 0.2
            ]
            g = graph_from_attacks(n, attacks)
            grounded = grounded_extension(g)
            preferred = preferred_extensions(g)
            assert preferred, "at least one preferred extension always exists"
            for ext in preferred:
                assert grounded <= ext


class TestDetectSelfAttack:
    def test_hero_legal_output_flagged(self):
        merged = learn_hero_multi(presumption_rows())
        offenders = detect_self_attack(merged)
        assert offenders
        assert any(len(chain) == 1 and chain[0].is_composite for chain in offenders)

    def test_pruned_legal_theory_clean(self):
        theory = learn_pruned(presumption_of_innocence(), SearchConfig(max_premise_size=3))
        assert detect_self_attack(theory) == []

    def test_single_rule_clean(self):
        assert detect_self_attack([rule({"a": 1}, {"d": 1})]) == []
