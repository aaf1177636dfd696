import itertools
import json
import random

import pytest

from argmine.case_model import (
    COHERENT,
    CONCLUSIVE,
    PRESUMPTIVELY_VALID,
    Argument,
    Case,
    CaseIndex,
    CaseModel,
    Literal,
    argument_support,
    is_coherent,
    is_conclusive,
    is_presumptively_valid,
    literal_set_key,
    literals,
)
from argmine.datasets import presumption_of_innocence
from argmine.errors import InputError
from argmine.pruned_search import (
    SearchConfig,
    Theory,
    _coherent_extensions,
    find_exceptions,
    learn_pruned,
    search_arguments,
)

from conftest import random_case_model
from test_case_model import all_arguments


def parg(premise, conclusion, status=PRESUMPTIVELY_VALID):
    return Argument(premise=literals(premise), conclusion=literals(conclusion), status=status)


def oracle_presumptively_valid(model):
    """Naive enumeration over all premise/conclusion pairs (the oracle)."""
    return {
        (a.premise, a.conclusion)
        for a in all_arguments(model)
        if is_presumptively_valid(model, a)
    }


def coherent_arguments(model, max_premise_size):
    """Status of every coherent (premise, conclusion) pair the level-wise search reaches."""
    index = CaseIndex(model)
    out = {}
    for concl in index.literals:
        for pmask, pv, conclusive, _ in _coherent_extensions(index, concl, 0, 0, max_premise_size):
            status = CONCLUSIVE if conclusive else PRESUMPTIVELY_VALID if pv else COHERENT
            out[(index.literals_of(pmask), frozenset([concl]))] = status
    return out


class TestSearchOnLegalModel:
    def setup_method(self):
        self.model = presumption_of_innocence()
        self.keyed = coherent_arguments(self.model, 3)

    def test_coherent_examples_present(self):
        assert self.keyed[(literals({}), literals({"guilty": True}))] == "coherent"
        assert (literals({"evidence": True}), literals({"innocent": False})) in self.keyed

    def test_presumptively_valid_examples_present(self):
        assert self.keyed[(literals({}), literals({"guilty": False}))] == PRESUMPTIVELY_VALID
        assert self.keyed[(literals({}), literals({"innocent": True}))] == PRESUMPTIVELY_VALID
        # the two specific ones are in fact conclusive in this model,
        # which subsumes presumptive validity
        assert self.keyed[(literals({"evidence": True}), literals({"innocent": False}))] == CONCLUSIVE
        assert self.keyed[(literals({"innocent": True}), literals({"guilty": False}))] == CONCLUSIVE

    def test_conclusive_examples_present(self):
        assert self.keyed[(literals({"innocent": True}), literals({"guilty": False}))] == CONCLUSIVE
        assert self.keyed[(literals({"guilty": True}), literals({"innocent": False}))] == CONCLUSIVE


class TestTinyModels:
    def test_single_case_model(self):
        from argmine.case_model import build_case_model

        model = build_case_model([{"a": 1, "b": 1}])
        theory = learn_pruned(model, SearchConfig(max_premise_size=2))
        by_premise = {a.premise: a for a in theory.arguments}
        default = by_premise[literals({})]
        assert default.conclusion == literals({"a": 1, "b": 1})
        # brute force on this model: {a=1}->{b=1} and {b=1}->{a=1} are
        # conclusive but shadowed by the default, which already implies
        # both conclusions with a smaller premise
        assert literals({"a": 1}) not in by_premise
        assert literals({"b": 1}) not in by_premise

    def test_max_premise_size_zero_rejected(self):
        with pytest.raises(InputError):
            SearchConfig(max_premise_size=0)

    def test_max_premise_size_one_keeps_singleton_premises(self):
        model = presumption_of_innocence()
        pre = search_arguments(model, SearchConfig(max_premise_size=1))
        assert all(len(a.premise) <= 1 for a in pre)
        assert any(len(a.premise) == 0 for a in pre)


class TestOracleEquivalence:
    def test_small_random_models(self, rng):
        for _ in range(60):
            model = random_case_model(rng)
            config = SearchConfig(max_premise_size=len(model.attributes))
            got = {(a.premise, a.conclusion) for a in search_arguments(model, config)}
            assert got == oracle_presumptively_valid(model)

    def test_statuses_are_sound(self, rng):
        for _ in range(30):
            model = random_case_model(rng)
            config = SearchConfig(max_premise_size=len(model.attributes))
            for a in search_arguments(model, config):
                assert is_presumptively_valid(model, a)
                if a.status == CONCLUSIVE:
                    assert is_conclusive(model, a)
                else:
                    assert not is_conclusive(model, a)

    def test_pruned_premises_could_not_be_coherent(self, rng):
        # everything the level-wise search skips fails coherence: verify by
        # checking that every coherent argument is reached
        for _ in range(30):
            model = random_case_model(rng)
            got = set(coherent_arguments(model, len(model.attributes)))
            expected = {
                (a.premise, a.conclusion)
                for a in all_arguments(model)
                if is_coherent(model, a)
            }
            assert got == expected


class TestFilterRelevant:
    def test_shadowed_specialization_dropped(self, rng):
        # no top-level conclusion holds presumptively under a smaller premise
        for _ in range(30):
            model = random_case_model(rng)
            theory = learn_pruned(model, SearchConfig(max_premise_size=len(model.attributes)))
            for arg in theory.arguments:
                for lit in arg.conclusion:
                    for size in range(len(arg.premise)):
                        for sub in itertools.combinations(arg.premise, size):
                            smaller = Argument(premise=frozenset(sub), conclusion=frozenset([lit]))
                            assert not is_presumptively_valid(model, smaller), (arg, smaller)

    def test_exception_chain_retained(self):
        model = CaseModel((
            Case(literals({"a": 0, "b": 0, "c": 0, "d": 0}), weight=6),
            Case(literals({"a": 1, "b": 0, "c": 0, "d": 1}), weight=5),
            Case(literals({"a": 1, "b": 1, "c": 0, "d": 0}), weight=3),
            Case(literals({"a": 1, "b": 1, "c": 1, "d": 1}), weight=2),
        ))
        theory = learn_pruned(model, SearchConfig(max_premise_size=3, target_attributes=("d",)))
        node = {a.premise: a for a in theory.arguments}[literals({})]
        chain = [({"a": 1}, {"d": 1}), ({"a": 1, "b": 1}, {"d": 0}), ({"a": 1, "b": 1, "c": 1}, {"d": 1})]
        for premise, conclusion in chain:
            by_premise = {e.premise: e for e in node.exceptions}
            node = by_premise[literals(premise)]
            assert node.conclusion == literals(conclusion)
        assert node.status == CONCLUSIVE

    def test_single_argument_retained(self):
        model = CaseModel((Case(literals({"a": 1, "d": 1})),))
        theory = learn_pruned(model, SearchConfig(target_attributes=("d",)))
        assert [(a.premise, a.conclusion) for a in theory.arguments] == [(literals({}), literals({"d": 1}))]


class TestMergeSamePremise:
    def test_defaults_merge(self):
        theory = learn_pruned(presumption_of_innocence(), SearchConfig(max_premise_size=1))
        default = {a.premise: a for a in theory.arguments}[literals({})]
        assert default.conclusion == literals({"innocent": True, "guilty": False})

    def test_distinct_premises_untouched(self, rng):
        # every relevant premise keeps one argument, built only from its
        # own relevant pool members
        for _ in range(30):
            model = random_case_model(rng)
            config = SearchConfig(max_premise_size=len(model.attributes))
            keyed = {(a.premise, a.conclusion) for a in search_arguments(model, config)}
            relevant = {
                (premise, conclusion)
                for premise, conclusion in keyed
                if not any(
                    (frozenset(sub), conclusion) in keyed
                    for size in range(len(premise))
                    for sub in itertools.combinations(premise, size)
                )
            }
            theory = learn_pruned(model, config)
            assert [a.premise for a in theory.arguments] == sorted(
                {p for p, _ in relevant}, key=lambda p: (len(p), literal_set_key(p))
            )
            for arg in theory.arguments:
                assert all((arg.premise, frozenset([lit])) in relevant for lit in arg.conclusion)

    def test_three_way_merge(self):
        model = CaseModel((Case(literals({"a": 1, "b": 2, "c": 3})),))
        (default,) = learn_pruned(model).arguments
        assert default.premise == literals({})
        assert default.conclusion == literals({"a": 1, "b": 2, "c": 3})

    def test_jointly_invalid_conclusion_dropped(self):
        # the two heaviest cases tie: a=0, a=1 and b=1 are each valid by
        # default, but b=1 never holds together with the kept a=0
        model = CaseModel((
            Case(literals({"a": 0, "c": 0}), weight=2),
            Case(literals({"a": 1, "b": 1}), weight=2),
            Case(literals({"a": 1, "b": 0, "c": 0}), weight=1),
        ))
        pool = {(a.premise, a.conclusion) for a in search_arguments(model, SearchConfig())}
        for value in ({"a": 0}, {"a": 1}, {"b": 1}, {"c": 0}):
            assert (literals({}), literals(value)) in pool
        theory = learn_pruned(model, SearchConfig(exception_depth=0))
        default = {a.premise: a for a in theory.arguments}[literals({})]
        assert default.conclusion == literals({"a": 0, "c": 0})
        assert default.status == PRESUMPTIVELY_VALID
        assert default.weight == 2


class TestFindExceptions:
    def test_default_not_guilty_has_evidence_exception(self):
        model = presumption_of_innocence()
        base = parg({}, {"guilty": False})
        excs = find_exceptions(model, base, remaining_depth=2)
        keyed = {(e.premise, e.conclusion) for e in excs}
        assert (literals({"evidence": True}), literals({"guilty": True})) in keyed
        for e in excs:
            assert e.premise > base.premise
            assert any(
                lit.attribute == "guilty" and lit.value != False  # noqa: E712
                for lit in e.conclusion
            )

    def test_conclusive_argument_rejected(self):
        model = presumption_of_innocence()
        with pytest.raises(InputError):
            find_exceptions(model, parg({"innocent": True}, {"guilty": False}, CONCLUSIVE), 3)

    def test_zero_depth_returns_nothing(self):
        model = presumption_of_innocence()
        assert find_exceptions(model, parg({}, {"guilty": False}), 0) == []

    def test_exception_wellformedness_recursive(self, rng):
        def check(parent, exc, depth_left):
            assert exc.premise > parent.premise
            parent_attrs = {
                (l.attribute, l.value) for l in parent.conclusion
            }
            assert any(
                lit.attribute == pa and lit.value != pv
                for lit in exc.conclusion
                for pa, pv in parent_attrs
            )
            assert depth_left >= 1
            for nested in exc.exceptions:
                check(exc, nested, depth_left - 1)

        for _ in range(25):
            model = random_case_model(rng)
            theory = learn_pruned(
                model, SearchConfig(max_premise_size=len(model.attributes), exception_depth=3)
            )
            for arg in theory.arguments:
                for exc in arg.exceptions:
                    check(arg, exc, 3)


class TestTheory:
    def test_every_theory_argument_is_valid(self, rng):
        for _ in range(40):
            model = random_case_model(rng)
            theory = learn_pruned(model, SearchConfig(max_premise_size=len(model.attributes)))
            for arg in theory.arguments:
                assert is_presumptively_valid(model, arg)
                assert (arg.status == CONCLUSIVE) == is_conclusive(model, arg)
                assert arg.weight == argument_support(model, arg)

    def test_no_duplicate_premises(self, rng):
        for _ in range(40):
            model = random_case_model(rng)
            theory = learn_pruned(model, SearchConfig(max_premise_size=len(model.attributes)))
            premises = [a.premise for a in theory.arguments]
            assert len(premises) == len(set(premises))

    def test_determinism_byte_for_byte(self, rng):
        for _ in range(10):
            model = random_case_model(rng)
            config = SearchConfig(max_premise_size=len(model.attributes), exception_depth=2)
            t1 = json.dumps(learn_pruned(model, config).to_json(), sort_keys=True)
            t2 = json.dumps(learn_pruned(model, config).to_json(), sort_keys=True)
            assert t1 == t2

    def test_theory_json_roundtrip(self):
        model = presumption_of_innocence()
        theory = learn_pruned(model, SearchConfig(max_premise_size=3))
        data = json.loads(json.dumps(theory.to_json()))
        restored = Theory.from_json(data)
        assert restored.arguments == theory.arguments
        assert restored.config == theory.config
        # files written before the universal_ties option was removed
        data["config"]["universal_ties"] = False
        assert Theory.from_json(data) == restored

    def test_legal_theory_contents(self):
        model = presumption_of_innocence()
        theory = learn_pruned(model, SearchConfig(max_premise_size=3))
        by_premise = {a.premise: a for a in theory.arguments}
        default = by_premise[literals({})]
        assert default.conclusion == literals({"innocent": True, "guilty": False})
        assert default.status == PRESUMPTIVELY_VALID
        exc_keys = {(e.premise, e.conclusion) for e in default.exceptions}
        assert (literals({"evidence": True}), literals({"guilty": True})) in exc_keys
        specific = by_premise[literals({"evidence": True})]
        assert specific.conclusion == literals({"innocent": False, "guilty": True})
        assert specific.status == CONCLUSIVE
