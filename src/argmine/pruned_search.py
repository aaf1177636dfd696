"""Systematic search for presumptively valid arguments with coherence pruning.

The learner enumerates candidate premises once, level by level, and
reads every wanted conclusion literal from each premise's cover (the
bitset of the cases holding it).  Coherence is the pruning criterion: a
premise whose cover meets no conclusion's cover is coherent with none of
them, and neither is any extension of it, so the whole branch is cut.
Surviving candidates are classified as presumptively valid or
conclusive; the top level keeps the arguments no less specific premise
already supports, each is annotated with recursively mined exceptions
(grown by the same level-wise walk), and same-premise arguments are
merged.

All scans run over the bitset view ``case_model.CaseIndex`` and hold a
premise as a tuple of its literal ids; literals come back only to build
an ``Argument``.  The definitional checks of ``case_model`` serve only
as a final consistency check on the learned theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import combinations, islice
from operator import or_
from typing import Any, Iterable, Iterator, Mapping

from .case_model import (
    CONCLUSIVE,
    PRESUMPTIVELY_VALID,
    Argument,
    CaseIndex,
    CaseModel,
    Literal,
    argument_from_json,
    argument_to_json,
    claim,
    is_presumptively_valid,
    json_shape,
    literal_set_key,
)
from .errors import InputError, InvariantError
from .hero import Rule, RuleList


@dataclass(frozen=True)
class SearchConfig:
    """Hyperparameters of the pruned search.

    ``max_premise_size`` caps the number of premise literals;
    ``exception_depth`` caps the nesting of exceptions on exceptions.
    ``target_attributes`` restricts conclusion literals to the given
    attributes (None = all attributes).
    """

    max_premise_size: int = 2
    exception_depth: int = 5
    target_attributes: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.max_premise_size < 1:
            raise InputError(f"max_premise_size must be >= 1, got {self.max_premise_size}")
        if self.exception_depth < 0:
            raise InputError(f"exception_depth must be >= 0, got {self.exception_depth}")

    def to_json(self) -> dict:
        return {
            "max_premise_size": self.max_premise_size,
            "exception_depth": self.exception_depth,
            "target_attributes": list(self.target_attributes) if self.target_attributes else None,
        }


@dataclass(frozen=True)
class Theory:
    """Relevance-filtered, merged, exception-annotated argument set."""

    arguments: tuple[Argument, ...]
    config: SearchConfig
    model_summary: dict = field(default_factory=dict)
    # target -> `rule_list(target)`: a cache filled on first use, not part of the value
    _rule_lists: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def rule_list(self, target: str) -> RuleList:
        """The claims on ``target`` as a first-match rule list, built once per target.

        Roots claiming the target come in anchor order (smaller premise, heavier
        source case, lexicographic premise, value), each followed by the target
        claims of its whole tree, larger premise first; stable sorts keep ties in
        theory order and preorder.  Rules that could never fire are left out: a
        premise already listed, and all after the empty-premise root."""
        if target not in self._rule_lists:
            def ranked(args: Iterable[Argument], size_sign: int) -> list[Argument]:
                return sorted((a for a in args if claim(a.conclusion, target)), key=lambda a: (
                    size_sign * len(a.premise), -(a.weight or 0), literal_set_key(a.premise),
                    claim(a.conclusion, target).sort_key()))

            rules: dict[frozenset, Rule] = {}
            for root in ranked(self.arguments, 1):
                for node in ranked(root.nodes(), -1):
                    rules.setdefault(node.premise, Rule(node.premise, node.conclusion))
                if not root.premise:
                    break
            self._rule_lists[target] = RuleList(tuple(rules.values()), target)
        return self._rule_lists[target]

    def to_json(self) -> dict:
        return {
            "arguments": [argument_to_json(a) for a in self.arguments],
            "config": self.config.to_json(),
            "model_summary": self.model_summary,
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "Theory":
        cfg = json_shape(data.get("config", {}), dict, "config")
        ta = cfg.get("target_attributes")
        if ta is not None:
            json_shape(ta, list, "config", "target_attributes")
        config = SearchConfig(
            **{k: json_shape(cfg[k], int, "config", k) for k in ("max_premise_size", "exception_depth") if k in cfg},
            target_attributes=tuple(ta) if ta else None,
        )
        return Theory(
            arguments=tuple(
                argument_from_json(a, f"arguments[{i}]")
                for i, a in enumerate(json_shape(data["arguments"], list, "arguments"))
            ),
            config=config,
            model_summary=dict(json_shape(data.get("model_summary", {}), dict, "model_summary")),
        )


def _premises(
    index: CaseIndex, base_ids: tuple[int, ...], cover: int, excluded: int, within: int, levels: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(premise literal ids, cover) of a base premise and of its extensions by up to ``levels`` literals.

    Extensions add no literal of an attribute in ``excluded``, which holds
    the base's own attributes, and reach only premises whose cover meets
    ``within``, the union of the wanted conclusions' covers.  A cover only
    shrinks as literals are added, so a premise coherent with no
    conclusion is cut with all of its extensions.  Level k extends each
    premise of level k-1 only by literals of a higher id than those it
    added, so each premise is reached once.
    """
    if not cover & within:
        return
    yield base_ids, cover
    ext = [(j, abit, index.cover[j]) for j, abit in enumerate(index.attr_bit) if not abit & excluded]
    level = [(0, base_ids, excluded, cover)]  # (first ext entry to add, premise ids, its attributes, cover)
    for _ in range(levels):
        grown = []
        for start, ids, attrs, pcover in level:
            for k in range(start, len(ext)):
                j, abit, lcover = ext[k]
                child = pcover & lcover
                if child & within and not abit & attrs:
                    yield ids + (j,), child
                    grown.append((k + 1, ids + (j,), attrs | abit, child))
        level = grown


def _argument(index: CaseIndex, ids: tuple[int, ...], concl: Literal, conclusive: bool, support: int) -> Argument:
    status = CONCLUSIVE if conclusive else PRESUMPTIVELY_VALID
    return Argument(frozenset(index.literals[j] for j in ids), frozenset([concl]), status, weight=support)


def search_arguments(model: CaseModel, config: SearchConfig) -> list[Argument]:
    """The raw (pre-filter) search result, deterministically sorted.

    Every presumptively valid argument with a single-literal conclusion
    and at most ``max_premise_size`` premise literals, marked conclusive
    where the stronger notion holds.
    """
    index = CaseIndex(model)
    wanted = config.target_attributes
    conclusions = [(j, lit) for j, lit in enumerate(index.literals) if wanted is None or lit.attribute in wanted]
    within = reduce(or_, (index.cover[j] for j, _ in conclusions), 0)
    # a premise may name a conclusion's attribute unless every conclusion does:
    # a conflicting value then fails coherence, and the conclusion itself is skipped
    attrs = {index.attr_bit[j] for j, _ in conclusions}
    excluded = attrs.pop() if len(attrs) == 1 else 0
    out: list[Argument] = []
    for ids, pcover in _premises(index, (), index.all_cases, excluded, within, config.max_premise_size):
        for j, concl in conclusions:
            if j not in ids:
                _, pv, conclusive, support = index.scan(pcover, index.cover[j])
                if pv:
                    out.append(_argument(index, ids, concl, conclusive, support))
    out.sort(key=Argument.sort_key)
    return out


def _single_conclusion(arg: Argument) -> Literal:
    if len(arg.conclusion) != 1:
        raise InputError(f"expected a single-literal conclusion, got {arg!r}")
    return next(iter(arg.conclusion))


def _shadowed(arg: Argument, keyed: set) -> bool:
    """True iff the pool holds the same conclusion under a smaller premise."""
    c = _single_conclusion(arg)
    lits = sorted(arg.premise, key=Literal.sort_key)
    for size in range(len(lits)):
        for sub in combinations(lits, size):
            if (frozenset(sub), c) in keyed:
                return True
    return False


def find_exceptions(
    model: CaseModel,
    arg: Argument,
    remaining_depth: int,
    max_premise_size: int | None = None,
    _index: CaseIndex | None = None,
) -> list[Argument]:
    """Presumptively valid arguments that overrule ``arg``.

    An exception's premise properly extends the argument's premise and its
    conclusion conflicts with the argument's conclusion on one attribute;
    each exception recursively carries its own exceptions (an exception to
    an exception reinstates the original conclusion attribute) until the
    depth budget runs out.  Premises beyond ``max_premise_size`` literals
    are not explored (None = no cap).

    Only decisive overrulings qualify: the conflicting value must carry
    more total case weight under the extended premise than the parent's
    value does, otherwise the more specific argument has not overruled
    anything and is not attached as an exception.
    """
    if remaining_depth < 0:
        raise InputError("remaining_depth must be >= 0")
    if arg.status == CONCLUSIVE:
        raise InputError("a conclusive argument admits no exceptions")
    if remaining_depth == 0:
        return []
    index = _index if _index is not None else CaseIndex(model)
    cap = max_premise_size if max_premise_size is not None else len(index.attr_ids)

    base = index.ids_of(arg.premise)
    if base is None:
        return []  # premise uses literals outside the model: nothing to find
    pattrs = sum(index.attr_bit[j] for j in base)  # a consistent premise names each attribute once

    out: list[Argument] = []
    for parent_lit in sorted(arg.conclusion, key=Literal.sort_key):
        # an unobserved parent literal holds in no case, so every valid rival overrules it
        parent_cover = index.cover_of([parent_lit])
        rivals = [(lit, index.cover[j]) for j, lit in enumerate(index.literals) if lit.conflicts(parent_lit)]
        if not rivals:
            continue  # no observed value of the parent's attribute
        excluded = pattrs | 1 << index.attr_ids[parent_lit.attribute]
        within = reduce(or_, (ccover for _, ccover in rivals), 0)
        premises = _premises(index, base, index.cover_of(arg.premise), excluded, within, cap - len(arg.premise))
        # the first item is the parent's own premise, which is no exception
        for ids, pcover in islice(premises, 1, None):
            for concl, ccover in rivals:
                _, pv, conclusive, support = index.scan(pcover, ccover)
                # only a decisive overruling counts: under the extended
                # premise the conflicting value must carry more case weight
                # than the parent's value, else nothing has been overruled
                if not pv or index.weight_of(pcover & ccover) <= index.weight_of(pcover & parent_cover):
                    continue
                exc = _argument(index, ids, concl, conclusive, support)
                if not conclusive:
                    nested = find_exceptions(model, exc, remaining_depth - 1, max_premise_size, _index=index)
                    if nested:
                        exc = replace(exc, exceptions=tuple(nested))
                out.append(exc)
    out.sort(key=Argument.sort_key)
    return out


def _attach_exceptions(model: CaseModel, index: CaseIndex, arg: Argument, config: SearchConfig) -> Argument:
    if arg.status == CONCLUSIVE or config.exception_depth == 0:
        return arg
    excs = find_exceptions(model, arg, config.exception_depth, config.max_premise_size, _index=index)
    return replace(arg, exceptions=tuple(excs)) if excs else arg


def _merge_same_premise(index: CaseIndex, args: list[Argument]) -> list[Argument]:
    """Merge same-premise arguments into one with the conclusion union.

    ``args`` are presumptively valid, with single-literal conclusions, in
    sort order.  Members join in that order while the union stays jointly
    presumptively valid: weight ties in the model can make two conclusions
    individually valid but not jointly (or even conflicting, which no case
    holds together), and the later one is then dropped.  Status and weight
    come from the scan of the merged conclusion, so the result is
    conclusive iff every kept member is, and its weight is the heaviest
    case holding the premise and the whole union.  Exceptions of the kept
    members are concatenated.
    """
    groups: dict[frozenset[Literal], list[Argument]] = {}
    for a in args:
        groups.setdefault(a.premise, []).append(a)
    merged = []
    for premise, members in groups.items():
        pcover = index.cover_of(premise)
        kept: list[Argument] = []
        ccover = index.all_cases
        for m in members:  # the first member is valid alone, so it is kept
            trial = ccover & index.cover_of(m.conclusion)
            _, pv, conclusive, support = index.scan(pcover, trial)
            if pv:
                kept.append(m)
                ccover = trial
                joint = conclusive, support
        conclusive, support = joint
        merged.append(
            Argument(
                premise=premise,
                conclusion=frozenset(_single_conclusion(m) for m in kept),
                status=CONCLUSIVE if conclusive else PRESUMPTIVELY_VALID,
                exceptions=tuple(e for m in kept for e in m.exceptions),
                weight=support,
            )
        )
    return merged


def learn_pruned(model: CaseModel, config: SearchConfig | None = None) -> Theory:
    """Full pipeline: search, relevance filter, exception mining, merge."""
    if not model.cases:
        raise InputError("cannot learn from an empty case model")
    if config is None:
        config = SearchConfig()
    index = CaseIndex(model)
    pool = search_arguments(model, config)
    # Top level = arguments with no less specific counterpart; arguments
    # relevant only as exceptions live inside their parents' trees.
    keyed = {(a.premise, _single_conclusion(a)) for a in pool}
    top = [_attach_exceptions(model, index, a, config) for a in pool if not _shadowed(a, keyed)]
    merged = _merge_same_premise(index, top)
    for arg in merged:
        if not is_presumptively_valid(model, arg):
            raise InvariantError(f"merged argument lost validity: {arg!r}")
    merged.sort(key=Argument.sort_key)
    summary = {
        "attributes": {a: list(vs) for a, vs in model.attributes.items()},
        "case_count": len(model.cases),
    }
    return Theory(arguments=tuple(merged), config=config, model_summary=summary)
