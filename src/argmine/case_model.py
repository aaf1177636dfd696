"""Weighted case models and the three argument-validity notions.

A case model is a set of distinct cases (internally consistent literal
conjunctions) ordered by weight, where the weight of a case is the number
of identical data rows it stands for.  Arguments are premise/conclusion
pairs of literal sets and come in three nested strengths:

    conclusive  =>  presumptively valid  =>  coherent

An argument is *coherent* if premise and conclusion hold together in some
case, *presumptively valid* if the conclusion holds in a maximally
preferred case satisfying the premise, and *conclusive* if it is coherent
and the conclusion holds in every case satisfying the premise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .errors import InputError, InvariantError

COHERENT = "coherent"
PRESUMPTIVELY_VALID = "presumptively_valid"
CONCLUSIVE = "conclusive"


def value_key(value: Any) -> tuple:
    """Deterministic ordering key for literal values of mixed type."""
    if isinstance(value, bool):
        return (0, float(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    if isinstance(value, str):
        return (1, value)
    return (2, repr(value))


@dataclass(frozen=True)
class Literal:
    """An attribute/value proposition.

    Two literals conflict iff they name the same attribute with different
    values; this is how negation is encoded (``guilty=False`` plays the
    role of "not guilty").
    """

    attribute: str
    value: Any

    def conflicts(self, other: "Literal") -> bool:
        return self.attribute == other.attribute and self.value != other.value

    def matches(self, instance: Mapping[str, Any]) -> bool:
        sentinel = object()
        return instance.get(self.attribute, sentinel) == self.value

    def sort_key(self) -> tuple:
        return (self.attribute,) + value_key(self.value)

    def __repr__(self) -> str:
        return f"{self.attribute}={self.value}"


def literals(mapping: Mapping[str, Any]) -> frozenset[Literal]:
    """Build a literal set from an ``{attribute: value}`` mapping."""
    return frozenset(Literal(a, v) for a, v in mapping.items())


def literal_set_key(lits: Iterable[Literal]) -> tuple:
    return tuple(sorted(lit.sort_key() for lit in lits))


def is_consistent(lits: Iterable[Literal]) -> bool:
    """True iff no attribute occurs with two different values."""
    seen: dict[str, Any] = {}
    for lit in lits:
        if lit.attribute in seen and seen[lit.attribute] != lit.value:
            return False
        seen[lit.attribute] = lit.value
    return True


def holds(premise: Iterable, instance: Mapping[str, Any]) -> bool:
    """True iff every condition of the premise matches the instance."""
    return all(cond.matches(instance) for cond in premise)


def claim(conclusion: Iterable, attribute: str) -> Literal | None:
    """The literal a conclusion asserts about one attribute, or None."""
    for lit in conclusion:
        if isinstance(lit, Literal) and lit.attribute == attribute:
            return lit
    return None


def literals_to_mapping(lits: Iterable[Literal]) -> dict[str, Any]:
    out = {lit.attribute: lit.value for lit in sorted(lits, key=Literal.sort_key)}
    return out


@dataclass(frozen=True)
class Case:
    """One scenario: a consistent literal set with a positive weight."""

    literals: frozenset[Literal]
    weight: int = 1

    def __post_init__(self):
        if self.weight < 1:
            raise InputError(f"case weight must be >= 1, got {self.weight}")
        if not is_consistent(self.literals):
            raise InputError(f"case literals are inconsistent: {sorted(map(repr, self.literals))}")

    def contains(self, lits: frozenset[Literal]) -> bool:
        return lits <= self.literals


@dataclass(frozen=True)
class Argument:
    """A premise/conclusion pair with a validity status and exceptions.

    Every exception is itself an argument whose premise properly extends
    this argument's premise and whose conclusion conflicts with this
    argument's conclusion on at least one attribute.
    """

    premise: frozenset[Literal]
    conclusion: frozenset[Literal]
    status: str = PRESUMPTIVELY_VALID
    exceptions: tuple["Argument", ...] = ()
    weight: int | None = None  # heaviest case witnessing premise + conclusion

    def __post_init__(self):
        if not is_consistent(self.premise):
            raise InputError("argument premise is inconsistent")
        if not is_consistent(self.conclusion):
            raise InputError("argument conclusion is inconsistent")
        if self.premise & self.conclusion:
            raise InputError("premise and conclusion must be disjoint")
        for exc in self.exceptions:
            if not exc.premise > self.premise:
                raise InputError(f"exception {exc!r} does not properly extend the premise of {self!r}")

    def sort_key(self) -> tuple:
        return (len(self.premise), literal_set_key(self.premise), literal_set_key(self.conclusion))

    def __repr__(self) -> str:
        prem = ", ".join(map(repr, sorted(self.premise, key=Literal.sort_key))) or "∅"
        concl = ", ".join(map(repr, sorted(self.conclusion, key=Literal.sort_key)))
        arrow = "->" if self.status == CONCLUSIVE else "~>"
        return f"({prem} {arrow} {concl})"


@dataclass(frozen=True)
class CaseModel:
    """Distinct cases ordered by descending weight (ties form one tier)."""

    cases: tuple[Case, ...]
    attributes: dict[str, tuple[Any, ...]] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for case in self.cases:
            key = case.literals
            if key in seen:
                raise InputError("case model contains duplicate cases")
            seen.add(key)
        ordered = tuple(
            sorted(self.cases, key=lambda c: (-c.weight, literal_set_key(c.literals)))
        )
        object.__setattr__(self, "cases", ordered)
        if not self.attributes:
            domains: dict[str, set] = {}
            for case in self.cases:
                for lit in case.literals:
                    domains.setdefault(lit.attribute, set()).add(lit.value)
            object.__setattr__(
                self,
                "attributes",
                {a: tuple(sorted(vs, key=value_key)) for a, vs in sorted(domains.items())},
            )

    def all_literals(self) -> list[Literal]:
        out = {lit for case in self.cases for lit in case.literals}
        return sorted(out, key=Literal.sort_key)


def build_case_model(rows: Sequence[Mapping[str, Any]]) -> CaseModel:
    """Group identical rows into weighted cases.

    All rows must range over the same attribute set; the weight of each
    case is the multiplicity of its row, so the sum of weights equals the
    number of input rows.
    """
    if not rows:
        raise InputError("cannot build a case model from zero rows")
    attrs = set(rows[0].keys())
    for i, row in enumerate(rows):
        if set(row.keys()) != attrs:
            raise InputError(f"row {i} has attributes {sorted(row)} != {sorted(attrs)}")
    counts = Counter(literals(row) for row in rows)
    cases = tuple(Case(lits, weight) for lits, weight in counts.items())
    return CaseModel(cases)


class CaseIndex:
    """Bitmask view of a case model: literals become bit positions.

    Cases and premises are compacted to integer bitmasks over the model's
    observed literals, which keeps the coherence and validity scans of the
    pruned search and the row matching of HeRO cheap even on a few
    hundred cases.
    """

    def __init__(self, model: CaseModel):
        self.literals = model.all_literals()
        self.bit = {lit: 1 << i for i, lit in enumerate(self.literals)}
        self.attr_ids: dict[str, int] = {}
        for lit in self.literals:
            self.attr_ids.setdefault(lit.attribute, len(self.attr_ids))
        self.attr_bit = {lit: 1 << self.attr_ids[lit.attribute] for lit in self.literals}
        # cases ordered by descending weight (model guarantees the order)
        self.case_masks = [self._mask(c.literals) for c in model.cases]
        self.case_weights = [c.weight for c in model.cases]

    def _mask(self, lits: Iterable[Literal]) -> int:
        return sum(self.bit[lit] for lit in lits)

    def mask_of(self, lits: Iterable[Literal]) -> int | None:
        """Bitmask of a literal set, or None if a literal is unobserved."""
        m = 0
        for lit in lits:
            b = self.bit.get(lit)
            if b is None:
                return None
            m |= b
        return m

    def literals_of(self, mask: int) -> frozenset[Literal]:
        return frozenset(lit for lit in self.literals if self.bit[lit] & mask)

    def support_sum(self, mask: int) -> int:
        """Total weight of the cases containing every literal in the mask."""
        return sum(
            w for cm, w in zip(self.case_masks, self.case_weights) if cm & mask == mask
        )

    def scan(self, pmask: int, cmask: int):
        """Classify (premise, conclusion) in one pass over the cases.

        Returns (coherent, presumptively_valid, conclusive, support) where
        support is the weight of the heaviest case containing both sides.
        Presumptive validity takes the existential reading of weight ties:
        the conclusion must hold in some heaviest premise case.
        """
        full = pmask | cmask
        top_w = None
        all_contain = True
        support = None
        for cm, w in zip(self.case_masks, self.case_weights):
            if cm & pmask == pmask:
                if top_w is None:
                    top_w = w
                if cm & full == full:
                    if support is None:
                        support = w
                else:
                    all_contain = False
        coherent = support is not None
        return coherent, coherent and support == top_w, coherent and all_contain, support


def _premise_cases(model: CaseModel, premise: frozenset[Literal]) -> list[Case]:
    return [c for c in model.cases if c.contains(premise)]


def is_coherent(model: CaseModel, arg: Argument) -> bool:
    """True iff some case contains premise and conclusion together."""
    both = arg.premise | arg.conclusion
    return any(c.contains(both) for c in model.cases)


def is_presumptively_valid(model: CaseModel, arg: Argument) -> bool:
    """True iff the conclusion holds in a maximally preferred premise case.

    Weight ties make the "most preferred case" a set; the reading is
    existential over that tier: some tied case must hold the conclusion.
    """
    matching = _premise_cases(model, arg.premise)
    if not matching:
        return False
    top = matching[0].weight  # cases are sorted by descending weight
    tier = [c for c in matching if c.weight == top]
    both = arg.premise | arg.conclusion
    return any(c.contains(both) for c in tier)


def is_conclusive(model: CaseModel, arg: Argument) -> bool:
    """True iff coherent and the conclusion holds in every premise case."""
    matching = _premise_cases(model, arg.premise)
    if not matching:
        return False
    both = arg.premise | arg.conclusion
    return all(c.contains(both) for c in matching)


def argument_support(model: CaseModel, arg: Argument) -> int | None:
    """Weight of the heaviest case containing premise and conclusion."""
    both = arg.premise | arg.conclusion
    for case in model.cases:  # descending weight
        if case.contains(both):
            return case.weight
    return None


# --- JSON interchange -------------------------------------------------------

def case_model_to_json(model: CaseModel) -> dict:
    return {
        "cases": [
            {"literals": literals_to_mapping(c.literals), "weight": c.weight}
            for c in model.cases
        ],
        "attributes": {a: list(vs) for a, vs in model.attributes.items()},
    }


def _case_from_json(index: int, entry: Mapping[str, Any]) -> Case:
    weight = entry.get("weight", 1)
    if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
        raise InputError(f"case {index}: weight must be a positive integer, got {weight!r}")
    return Case(literals(entry["literals"]), weight)


def case_model_from_json(data: Mapping[str, Any]) -> CaseModel:
    try:
        cases = tuple(_case_from_json(i, entry) for i, entry in enumerate(data["cases"]))
        attributes = {a: tuple(vs) for a, vs in data.get("attributes", {}).items()}
    except (AttributeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed case model JSON: {exc}") from exc
    return CaseModel(cases, attributes)


def argument_to_json(arg: Argument) -> dict:
    out = {
        "premise": literals_to_mapping(arg.premise),
        "conclusion": literals_to_mapping(arg.conclusion),
        "status": arg.status,
        "exceptions": [argument_to_json(e) for e in arg.exceptions],
    }
    if arg.weight is not None:
        out["weight"] = arg.weight
    return out


def argument_from_json(data: Mapping[str, Any]) -> Argument:
    return Argument(
        premise=literals(data.get("premise", {})),
        conclusion=literals(data["conclusion"]),
        status=data.get("status", PRESUMPTIVELY_VALID),
        exceptions=tuple(argument_from_json(e) for e in data.get("exceptions", ())),
        weight=data.get("weight"),
    )
