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
``CaseIndex.scan`` decides all three from the premise's and the
conclusion's case bitsets (covers); ``is_presumptively_valid`` spells out
its definition, against which ``learn_pruned`` rechecks its result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import and_
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InvariantError

COHERENT = "coherent"
PRESUMPTIVELY_VALID = "presumptively_valid"
CONCLUSIVE = "conclusive"
JSON_NUMBER = (int, float)


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


def json_shape(value: Any, kind: Any, path: str, key: str = "") -> Any:
    """``value`` if it has the JSON ``kind`` (dict, list, str, int or JSON_NUMBER; never a bool),
    else an InputError naming its key path ``path.key``, joined only on failure."""
    if isinstance(value, bool) or not isinstance(value, kind):
        where = f"{path}.{key}" if key else path
        kinds = {dict: "object", list: "list", str: "string", int: "integer", JSON_NUMBER: "number"}
        raise InputError(f"{where} must be a JSON {kinds[kind]}, got {value!r:.40}")
    return value


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

    def nodes(self) -> Iterator["Argument"]:
        """This argument and every exception below it, in preorder."""
        yield self
        for exc in self.exceptions:
            yield from exc.nodes()

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
    """Bitset view of a case model: literals get ids, cases bit positions.

    Literal ``j`` of ``literals``, in ``Literal.sort_key`` order, has id
    ``j``; both rule learners enumerate premises as literal-id tuples in
    this order, and ``ids`` maps literal sets that come in from outside.
    ``attr_bit[j]`` is the bit of literal ``j``'s attribute.  Case ``i``
    of the model, heaviest first, is bit ``i`` of a cover: ``cover[j]`` is
    the set of cases holding literal ``j``, and a literal set's cover is
    the AND of its literals' covers (a tid-list).  Covers never grow with
    case weight: a cover's heaviest case is its lowest bit, and its total
    weight is summed over the binary digits of the weights, one popcount
    per digit of the largest weight.

    ``widen`` turns a cover into a row bitset, for HeRO, which counts
    rows: each case, heaviest first, becomes a block of ``weight``
    consecutive bits, one per data row it stands for, starting after the
    heavier cases' blocks, so a row bitset's popcount is its weight.  A
    row bitset grows with the number of rows; a cover does not.
    """

    def __init__(self, model: CaseModel):
        self.literals = model.all_literals()
        self.ids = {lit: j for j, lit in enumerate(self.literals)}
        self.attr_ids: dict[str, int] = {}
        for lit in self.literals:
            self.attr_ids.setdefault(lit.attribute, len(self.attr_ids))
        self.attr_bit = [1 << self.attr_ids[lit.attribute] for lit in self.literals]
        self.all_cases = (1 << len(model.cases)) - 1
        case_bits: list[list[int]] = [[] for _ in self.literals]
        for i, case in enumerate(model.cases):
            for lit in case.literals:
                case_bits[self.ids[lit]].append(1 << i)
        self.cover = [sum(bits) for bits in case_bits]  # distinct bits sum to their OR
        self._weights = [case.weight for case in model.cases]
        # plane b: the cases whose weight has binary digit b set
        self._planes = [sum(1 << i for i, w in enumerate(self._weights) if w >> b & 1)
                        for b in range(max(self._weights, default=0).bit_length())]

    def ids_of(self, lits: Iterable[Literal]) -> tuple[int, ...] | None:
        """Ascending ids of a literal set, or None if a literal is unobserved."""
        ids = [self.ids.get(lit) for lit in lits]
        return None if None in ids else tuple(sorted(ids))

    def cover_of(self, lits: Iterable[Literal]) -> int:
        """The cases holding every literal of ``lits``; an unobserved literal holds in none."""
        ids = self.ids_of(lits)
        return 0 if ids is None else reduce(and_, (self.cover[j] for j in ids), self.all_cases)

    def weight_of(self, cover: int) -> int:
        """Total weight of the cases in ``cover``."""
        return sum((cover & plane).bit_count() << b for b, plane in enumerate(self._planes))

    def widen(self, cover: int) -> int:
        """The row bitset of ``cover``: its popcount is ``weight_of(cover)``."""
        rows = start = 0
        for i, weight in enumerate(self._weights):
            if cover >> i & 1:
                rows |= ((1 << weight) - 1) << start
            start += weight
        return rows

    def _top_weight(self, cover: int) -> int:
        """Weight of the heaviest case in a nonempty cover: its lowest set bit is that case."""
        return self._weights[(cover & -cover).bit_length() - 1]

    def scan(self, pcover: int, ccover: int):
        """Classify (premise, conclusion) from their covers.

        Returns (coherent, presumptively_valid, conclusive, support) where
        support is the weight of the heaviest case containing both sides.
        Presumptive validity takes the existential reading of weight ties:
        the conclusion must hold in some heaviest premise case.
        """
        both = pcover & ccover
        if not both:
            return False, False, False, None
        support = self._top_weight(both)
        return True, support == self._top_weight(pcover), not pcover & ~ccover, support


def _premise_cases(model: CaseModel, premise: frozenset[Literal]) -> list[Case]:
    return [c for c in model.cases if c.contains(premise)]


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
    return Case(literals(json_shape(entry["literals"], dict, f"cases[{index}]", "literals")), weight)


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


def argument_from_json(data: Mapping[str, Any], path: str = "argument") -> Argument:
    """The argument in ``data``; ``path`` is its JSON key path, for errors."""
    exceptions = json_shape(json_shape(data, dict, path).get("exceptions", []), list, path, "exceptions")
    if data.get("status", PRESUMPTIVELY_VALID) not in (PRESUMPTIVELY_VALID, CONCLUSIVE):
        raise InputError(f"{path}.status must be {PRESUMPTIVELY_VALID!r} or {CONCLUSIVE!r}, got {data['status']!r:.40}")
    weight = data.get("weight")
    if weight is not None and json_shape(weight, int, path, "weight") < 1:
        raise InputError(f"{path}.weight must be >= 1, got {weight}")
    return Argument(
        premise=literals(json_shape(data.get("premise", {}), dict, path, "premise")),
        conclusion=literals(json_shape(data["conclusion"], dict, path, "conclusion")),
        status=data.get("status", PRESUMPTIVELY_VALID),
        exceptions=tuple(argument_from_json(e, f"{path}.exceptions[{i}]") for i, e in enumerate(exceptions)),
        weight=weight,
    )
