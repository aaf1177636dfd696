import itertools
import json
import random

import pytest

from argmine.case_model import (
    Argument,
    Case,
    CaseIndex,
    CaseModel,
    Literal,
    build_case_model,
    case_model_from_json,
    case_model_to_json,
    is_consistent,
    is_presumptively_valid,
    literals,
)
from argmine.datasets import presumption_of_innocence
from argmine.errors import InputError
from argmine.hero import learn_hero, learn_hero_multi
from argmine.pruned_search import SearchConfig, learn_pruned

from conftest import random_case_model
from oracles import argument_support, is_coherent, is_conclusive


def arg(premise, conclusion):
    return Argument(premise=literals(premise), conclusion=literals(conclusion))


def weights_tripled(theory_json):
    """A learned theory's JSON with the weight of every argument, exceptions too, times three."""
    def triple(a):
        return {**a, "weight": 3 * a["weight"], "exceptions": [triple(e) for e in a["exceptions"]]}
    return {**theory_json, "arguments": [triple(a) for a in theory_json["arguments"]]}


def all_arguments(model):
    """Every (consistent premise, single-literal conclusion) pair."""
    per_attr = {}
    for case in model.cases:
        for lit in case.literals:
            per_attr.setdefault(lit.attribute, set()).add(lit.value)
    attrs = sorted(per_attr)
    out = []
    for concl_attr in attrs:
        for concl_val in sorted(per_attr[concl_attr]):
            conclusion = frozenset([Literal(concl_attr, concl_val)])
            rest = [a for a in attrs if a != concl_attr]
            for r in range(len(rest) + 1):
                for chosen in itertools.combinations(rest, r):
                    for values in itertools.product(*(sorted(per_attr[a]) for a in chosen)):
                        premise = frozenset(
                            Literal(a, v) for a, v in zip(chosen, values)
                        )
                        out.append(Argument(premise=premise, conclusion=conclusion))
    return out


class TestBuildCaseModel:
    def test_duplicate_counting(self):
        rows = [{"a": 1, "d": 1}, {"a": 1, "d": 1}, {"a": 0, "d": 0}]
        model = build_case_model(rows)
        assert len(model.cases) == 2
        assert model.cases[0].weight == 2  # heavier case is preferred
        assert model.cases[0].literals == literals({"a": 1, "d": 1})

    def test_presumption_of_innocence_shape(self):
        model = presumption_of_innocence()
        assert len(model.cases) == 2
        first, second = model.cases
        assert first.literals == literals({"innocent": True, "guilty": False})
        assert first.weight > second.weight
        assert second.literals == literals({"innocent": False, "guilty": True, "evidence": True})

    def test_single_row(self):
        model = build_case_model([{"x": 1}])
        assert len(model.cases) == 1 and model.cases[0].weight == 1

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            build_case_model([])

    def test_mismatched_attributes_rejected(self):
        with pytest.raises(InputError):
            build_case_model([{"a": 1}, {"b": 2}])

    def test_weights_sum_to_row_count(self, rng):
        for _ in range(20):
            rows = [
                {"a": rng.randint(0, 2), "b": rng.randint(0, 1)}
                for _ in range(rng.randint(1, 30))
            ]
            model = build_case_model(rows)
            assert sum(c.weight for c in model.cases) == len(rows)


class TestValidityNotions:
    def setup_method(self):
        self.model = presumption_of_innocence()

    def test_coherent_examples(self):
        assert is_coherent(self.model, arg({}, {"guilty": True}))
        assert is_coherent(self.model, arg({"evidence": True}, {"innocent": False}))
        assert not is_coherent(self.model, arg({"innocent": True}, {"guilty": True}))

    def test_presumptively_valid_examples(self):
        assert is_presumptively_valid(self.model, arg({}, {"guilty": False}))
        assert is_presumptively_valid(self.model, arg({}, {"innocent": True}))
        assert is_presumptively_valid(self.model, arg({"evidence": True}, {"innocent": False}))
        assert is_presumptively_valid(self.model, arg({"innocent": True}, {"guilty": False}))
        assert not is_presumptively_valid(self.model, arg({"evidence": True}, {"innocent": True}))

    def test_conclusive_examples(self):
        assert is_conclusive(self.model, arg({"innocent": True}, {"guilty": False}))
        assert is_conclusive(self.model, arg({"guilty": True}, {"innocent": False}))
        assert not is_conclusive(self.model, arg({}, {"guilty": False}))

    def test_unsatisfied_premise_is_never_valid(self):
        a = arg({"evidence": False}, {"guilty": False})
        assert not is_coherent(self.model, a)
        assert not is_presumptively_valid(self.model, a)
        assert not is_conclusive(self.model, a)


class TestValidityChain:
    def test_conclusive_implies_valid_implies_coherent(self, rng):
        for _ in range(60):
            model = random_case_model(rng)
            for a in all_arguments(model):
                if is_conclusive(model, a):
                    assert is_presumptively_valid(model, a), (model, a)
                if is_presumptively_valid(model, a):
                    assert is_coherent(model, a), (model, a)

    def test_pruning_criterion_one(self, rng):
        # a conclusive argument makes every coherent superset-premise
        # argument with the same conclusion conclusive
        checked = 0
        for _ in range(40):
            model = random_case_model(rng)
            args = all_arguments(model)
            conclusive = [a for a in args if is_conclusive(model, a)]
            for a in conclusive:
                for b in args:
                    if b.conclusion == a.conclusion and b.premise > a.premise:
                        if is_coherent(model, b):
                            checked += 1
                            assert is_conclusive(model, b), (model, a, b)
        assert checked > 0

    def test_pruning_criterion_two(self, rng):
        # coherence is inherited downward by premise subsets
        checked = 0
        for _ in range(40):
            model = random_case_model(rng)
            for a in all_arguments(model):
                if not is_coherent(model, a) or len(a.premise) < 1:
                    continue
                for r in range(len(a.premise)):
                    for sub in itertools.combinations(a.premise, r):
                        checked += 1
                        assert is_coherent(
                            model, Argument(premise=frozenset(sub), conclusion=a.conclusion)
                        ), (model, a, sub)
        assert checked > 0

    def test_presumptive_validity_is_not_monotone(self):
        # the canonical witness: the default "not guilty" is presumptively
        # valid but adding the evidence literal flips it
        model = presumption_of_innocence()
        assert is_presumptively_valid(model, arg({}, {"guilty": False}))
        assert not is_presumptively_valid(model, arg({"evidence": True}, {"guilty": False}))

    def test_nonmonotonicity_witness_exists_in_random_population(self, rng):
        witnessed = False
        for _ in range(200):
            model = random_case_model(rng)
            args = [a for a in all_arguments(model) if is_presumptively_valid(model, a)]
            valid = {(a.premise, a.conclusion) for a in args}
            for a in args:
                for b in all_arguments(model):
                    if (
                        b.conclusion == a.conclusion
                        and b.premise > a.premise
                        and is_coherent(model, b)
                        and (b.premise, b.conclusion) not in valid
                    ):
                        witnessed = True
                        break
                if witnessed:
                    break
            if witnessed:
                break
        assert witnessed


class TestTieHandling:
    def test_existential_versus_universal_reading(self):
        model = CaseModel(
            cases=(
                Case(literals({"x": 1, "y": 1}), weight=2),
                Case(literals({"x": 2, "y": 1}), weight=2),
                Case(literals({"x": 1, "y": 2}), weight=1),
            )
        )
        a = arg({}, {"x": 1})
        assert is_presumptively_valid(model, a)  # holds in one tied maximum
        tier = [c for c in model.cases if c.weight == 2]
        assert not all(c.contains(a.conclusion) for c in tier)  # not in every one
        b = arg({}, {"y": 1})
        assert is_presumptively_valid(model, b)  # holds in every tied maximum
        assert not is_presumptively_valid(model, arg({}, {"y": 2}))  # only in a lighter case


class TestCaseIndex:
    def test_scan_and_weight_of_match_the_definitions(self, rng):
        # every consistent premise against every consistent one- and two-literal conclusion
        for _ in range(200):
            model = random_case_model(rng)
            index = CaseIndex(model)
            sets = [
                frozenset(c)
                for r in range(len(model.attributes) + 1)
                for c in itertools.combinations(index.literals, r)
                if is_consistent(c)
            ]
            conclusions = [c for c in sets if 1 <= len(c) <= 2]
            for premise in sets:
                pcover = index.cover_of(premise)
                for conclusion in conclusions:
                    if premise & conclusion:
                        continue
                    a = Argument(premise=premise, conclusion=conclusion)
                    assert index.scan(pcover, index.cover_of(conclusion)) == (
                        is_coherent(model, a), is_presumptively_valid(model, a),
                        is_conclusive(model, a), argument_support(model, a),
                    ), a
                    both = premise | conclusion
                    expected = sum(c.weight for c in model.cases if c.contains(both))
                    assert index.weight_of(index.cover_of(both)) == expected, a
                    assert index.widen(index.cover_of(both)).bit_count() == expected, a

    def test_literal_ids_key_covers_and_attribute_bits(self, rng):
        for _ in range(200):
            model = random_case_model(rng)
            index = CaseIndex(model)
            assert index.all_cases == (1 << len(model.cases)) - 1
            # widened, case i, heaviest first, is `weight` row bits after the heavier cases' rows
            starts = list(itertools.accumulate((c.weight for c in model.cases), initial=0))
            blocks = [((1 << c.weight) - 1) << start for c, start in zip(model.cases, starts)]
            assert index.widen(index.all_cases) == sum(blocks) == (1 << starts[-1]) - 1
            for j, lit in enumerate(index.literals):
                assert index.ids[lit] == j
                assert index.cover[j] == sum(1 << i for i, c in enumerate(model.cases) if lit in c.literals)
                assert index.widen(index.cover[j]) == sum(b for b, c in zip(blocks, model.cases) if lit in c.literals)
                for k, other in enumerate(index.literals):
                    assert (index.attr_bit[j] == index.attr_bit[k]) == (lit.attribute == other.attribute)
            unobserved = Literal("a0", 3)  # random_case_model draws values below 3
            assert index.ids_of([unobserved]) is None
            assert index.ids_of([index.literals[-1], unobserved]) is None
            assert index.cover_of([unobserved]) == 0
            assert index.ids_of(reversed(index.literals)) == tuple(range(len(index.literals)))

    def test_tripled_case_weights_triple_only_the_argument_weights(self, rng):
        # both learners only compare weights, so a model three times as heavy is learned the same way
        for _ in range(200):
            model = random_case_model(rng)
            heavy = CaseModel(tuple(Case(c.literals, 3 * c.weight) for c in model.cases))
            for mps in (1, 2, 4):
                config = SearchConfig(max_premise_size=mps, exception_depth=3)
                expected = weights_tripled(learn_pruned(model, config).to_json())
                assert json.dumps(learn_pruned(heavy, config).to_json()) == json.dumps(expected), (model, mps)
            for target in model.attributes:
                light, tripled = (json.dumps(learn_hero(m, target).to_json()) for m in (model, heavy))
                assert light == tripled, (model, target)
            light, tripled = (json.dumps(learn_hero_multi(m).to_json()) for m in (model, heavy))
            assert light == tripled, model


class TestTypesAndJson:
    def test_literal_conflict(self):
        assert Literal("g", True).conflicts(Literal("g", False))
        assert not Literal("g", True).conflicts(Literal("h", False))
        assert not Literal("g", True).conflicts(Literal("g", True))

    def test_case_requires_consistency(self):
        with pytest.raises(InputError):
            Case(frozenset([Literal("a", 1), Literal("a", 2)]))

    def test_case_weight_positive(self):
        with pytest.raises(InputError):
            Case(literals({"a": 1}), weight=0)

    def test_argument_sides_disjoint(self):
        with pytest.raises(InputError):
            Argument(premise=literals({"a": 1}), conclusion=literals({"a": 1}))

    def test_exception_must_properly_extend_the_premise(self):
        parent = {"premise": literals({"a": 1}), "conclusion": literals({"d": 1})}
        Argument(**parent, exceptions=(arg({"a": 1, "b": 1}, {"d": 0}),))
        for premise in ({"a": 1}, {"b": 1}, {"a": 2, "b": 1}, {}):
            with pytest.raises(InputError, match="does not properly extend"):
                Argument(**parent, exceptions=(arg(premise, {"d": 0}),))

    def test_duplicate_cases_rejected(self):
        with pytest.raises(InputError):
            CaseModel(cases=(Case(literals({"a": 1})), Case(literals({"a": 1}))))

    def test_model_json_roundtrip(self):
        model = presumption_of_innocence()
        data = json.loads(json.dumps(case_model_to_json(model)))
        restored = case_model_from_json(data)
        assert restored.cases == model.cases

    def test_fixture_file_loads(self):
        from argmine.datasets import presumption_of_innocence_path

        with open(presumption_of_innocence_path()) as f:
            model = case_model_from_json(json.load(f))
        assert model.cases == presumption_of_innocence().cases
