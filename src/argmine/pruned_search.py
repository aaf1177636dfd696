"""Systematic search for presumptively valid arguments with coherence pruning.

The learner enumerates candidate premises level by level for each
conclusion literal.  Coherence is the pruning criterion: an incoherent
(premise, conclusion) pair can have no coherent extension of its premise,
so the whole branch is cut.  Surviving candidates are classified as
presumptively valid or conclusive; the top level keeps the arguments no
less specific premise already supports, each is annotated with
recursively mined exceptions (grown by the same level-wise search), and
same-premise arguments are merged.

All scans run over the bitmask view ``case_model.CaseIndex``.  The
definitional checks of ``case_model`` serve only as a final consistency
check on the learned theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, islice
from typing import Any, Iterator, Mapping

from .case_model import (
    CONCLUSIVE,
    PRESUMPTIVELY_VALID,
    Argument,
    CaseIndex,
    CaseModel,
    Literal,
    argument_from_json,
    argument_to_json,
    is_presumptively_valid,
)
from .errors import InputError, InvariantError


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

    def to_json(self) -> dict:
        return {
            "arguments": [argument_to_json(a) for a in self.arguments],
            "config": self.config.to_json(),
            "model_summary": self.model_summary,
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "Theory":
        cfg = data.get("config", {})
        ta = cfg.get("target_attributes")
        config = SearchConfig(
            **{k: cfg[k] for k in ("max_premise_size", "exception_depth") if k in cfg},
            target_attributes=tuple(ta) if ta else None,
        )
        return Theory(
            arguments=tuple(argument_from_json(a) for a in data["arguments"]),
            config=config,
            model_summary=dict(data.get("model_summary", {})),
        )


def _coherent_extensions(
    index: CaseIndex, concl: Literal, base_mask: int, base_attrs: int, levels: int
) -> Iterator[tuple[int, bool, bool, int]]:
    """Coherent premises for ``concl`` that extend a base premise.

    Yields (premise mask, presumptively valid, conclusive, support) for
    the base itself and then for every coherent extension by up to
    ``levels`` literals, level by level; nothing if the base is
    incoherent.  An incoherent premise is pruned together with all of its
    supersets, which is safe because coherence is anti-monotone in the
    premise.  Single-literal extensions of the coherent frontier generate
    every candidate a join of two same-size premises would (each join
    result extends one of its own coherent subsets).
    """
    cbit = index.bit[concl]
    coh, pv, conclusive, support = index.scan(base_mask, cbit)
    if not coh:
        return
    yield base_mask, pv, conclusive, support
    excluded = base_attrs | index.attr_bit[concl]
    ext_lits = [
        (index.bit[lit], index.attr_bit[lit])
        for lit in index.literals
        if not index.attr_bit[lit] & excluded
    ]
    frontier: list[tuple[int, int]] = [(base_mask, base_attrs)]  # (premise, attributes)
    for _ in range(levels):
        candidates: dict[int, int] = {}
        for pmask, amask in frontier:
            for lbit, labit in ext_lits:
                if labit & amask:
                    continue
                candidates.setdefault(pmask | lbit, amask | labit)
        frontier = []
        for pmask, amask in candidates.items():
            coh, pv, conclusive, support = index.scan(pmask, cbit)
            if not coh:
                continue
            frontier.append((pmask, amask))
            yield pmask, pv, conclusive, support
        if not frontier:
            break


def search_arguments(model: CaseModel, config: SearchConfig) -> list[Argument]:
    """The raw (pre-filter) search result, deterministically sorted.

    Every presumptively valid argument with a single-literal conclusion
    and at most ``max_premise_size`` premise literals, marked conclusive
    where the stronger notion holds.
    """
    index = CaseIndex(model)
    conclusions = index.literals
    if config.target_attributes is not None:
        wanted = set(config.target_attributes)
        conclusions = [lit for lit in conclusions if lit.attribute in wanted]
    out: list[Argument] = []
    for concl in conclusions:
        for pmask, pv, conclusive, support in _coherent_extensions(
            index, concl, 0, 0, config.max_premise_size
        ):
            if not pv:
                continue
            out.append(
                Argument(
                    premise=index.literals_of(pmask),
                    conclusion=frozenset([concl]),
                    status=CONCLUSIVE if conclusive else PRESUMPTIVELY_VALID,
                    weight=support,
                )
            )
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

    base_mask = index.mask_of(arg.premise)
    if base_mask is None:
        return []  # premise uses literals outside the model: nothing to find
    pattrs = 0
    for lit in arg.premise:
        pattrs |= index.attr_bit[lit]

    out: list[Argument] = []
    for parent_lit in sorted(arg.conclusion, key=Literal.sort_key):
        parent_bit = index.bit[parent_lit]
        for concl in index.literals:
            if not concl.conflicts(parent_lit):
                continue
            cbit = index.bit[concl]
            extensions = _coherent_extensions(
                index, concl, base_mask, pattrs, cap - len(arg.premise)
            )
            # the first item is the parent's own premise, which is no exception
            for pmask, pv, conclusive, support in islice(extensions, 1, None):
                if not pv:
                    continue
                # only a decisive overruling counts: under the extended
                # premise the conflicting value must carry more case weight
                # than the parent's value, else nothing has been overruled
                if index.support_sum(pmask | cbit) <= index.support_sum(pmask | parent_bit):
                    continue
                exc = Argument(
                    premise=index.literals_of(pmask),
                    conclusion=frozenset([concl]),
                    status=CONCLUSIVE if conclusive else PRESUMPTIVELY_VALID,
                    weight=support,
                )
                if not conclusive:
                    nested = find_exceptions(
                        model,
                        exc,
                        remaining_depth - 1,
                        max_premise_size=max_premise_size,
                        _index=index,
                    )
                    if nested:
                        exc = replace(exc, exceptions=tuple(nested))
                out.append(exc)
    out.sort(key=Argument.sort_key)
    return out


def _attach_exceptions(model: CaseModel, index: CaseIndex, arg: Argument, config: SearchConfig) -> Argument:
    if arg.status == CONCLUSIVE or config.exception_depth == 0:
        return arg
    excs = find_exceptions(
        model,
        arg,
        config.exception_depth,
        max_premise_size=config.max_premise_size,
        _index=index,
    )
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
        pmask = index.mask_of(premise)
        kept: list[Argument] = []
        cmask = 0
        for m in members:  # the first member is valid alone, so it is kept
            trial = cmask | index.bit[_single_conclusion(m)]
            _, pv, conclusive, support = index.scan(pmask, trial)
            if pv:
                kept.append(m)
                cmask = trial
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
