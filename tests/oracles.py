"""Definitional versions of fast production code, kept as test oracles.

Each function computes its quantity straight from the definition, one
case or one row at a time; the tests compare the production kernels
against them on random models.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from argmine.case_model import (
    Argument,
    CaseModel,
    Literal,
    _premise_cases,
    claim,
    literal_set_key,
    value_key,
)
from argmine.dectree import TreeNode
from argmine.errors import InputError
from argmine.hero import Rule, RuleList, _first_match


# --- case model ---------------------------------------------------------------

def is_coherent(model: CaseModel, arg: Argument) -> bool:
    """True iff some case contains premise and conclusion together."""
    both = arg.premise | arg.conclusion
    return any(c.contains(both) for c in model.cases)


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


# --- inference ----------------------------------------------------------------

def grounded_extension(n: int, attacks: Iterable[tuple[int, int]]) -> frozenset[int]:
    """Least fixed point of the defense operator over the arguments
    ``range(n)`` and the (attacker, target) pairs ``attacks``.

    Start from the unattacked arguments and keep adding every argument all
    of whose attackers are attacked by the current set; the result is the
    unique grounded extension (Dung 1995), independent of iteration order.
    """
    attacks = list(attacks)
    attackers: list[set[int]] = [set() for _ in range(n)]
    for a, t in attacks:
        attackers[t].add(a)
    current: set[int] = set()
    while True:
        attacked_by_current = {t for a, t in attacks if a in current}
        new = {i for i in range(n) if attackers[i] <= attacked_by_current}
        if new == current:
            return frozenset(current)
        current = new


# --- decision tree ------------------------------------------------------------

def tree_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


# --- HeRO ---------------------------------------------------------------------

def _accuracy(rules: Sequence[Rule], rows: Sequence[Mapping[str, Any]], target: str) -> float:
    """Fraction of rows whose first-match prediction equals the target value."""
    if not rows:
        raise InputError("accuracy over zero rows is undefined")
    correct = sum(1 for row in rows if _first_match(rules, row, target) == row[target])
    return correct / len(rows)


def information_gain(
    rule_list: RuleList,
    candidate: Rule,
    position: int,
    rows: Sequence[Mapping[str, Any]],
    target: str | None = None,
) -> float:
    """Accuracy change from inserting the candidate at the given position.

    The insertion is hypothetical, so positions that would leave a default
    above later rules (shadowing them) are evaluated as-is rather than
    rejected.
    """
    target = target if target is not None else rule_list.target
    if position < 0 or position > len(rule_list.rules):
        raise InputError(f"position {position} out of range")
    before = _accuracy(rule_list.rules, rows, target)
    inserted = rule_list.rules[:position] + (candidate,) + rule_list.rules[position:]
    after = _accuracy(inserted, rows, target)
    return after - before


def max_information_gain(
    candidate: Rule,
    rule_list: RuleList,
    rows: Sequence[Mapping[str, Any]],
    target: str | None = None,
) -> float:
    """Upper bound on the gain of any rule with a more specific premise.

    Equals the gain of a hypothetical rule at the best position that
    predicts every premise-matching row correctly: the currently
    misclassified matching rows over all rows.
    """
    target = target if target is not None else rule_list.target
    if not rows:
        raise InputError("max information gain over zero rows is undefined")
    fixable = sum(
        1
        for row in rows
        if candidate.applies(row) and rule_list.first_match(row, target) != row[target]
    )
    return fixable / len(rows)


def best_insertion_oracle(model: CaseModel, target: str, rules: list[Rule]):
    """HeRO's greedy step over a per-row list: best (gain, rule, position) or None.

    Scores every consistent premise with a nonempty cover, grown
    depth-first without pruning, at every position under the documented
    key of ``learn_hero``; each premise keeps the list of its matching
    rows and sums weights row by row, with the gains as floats.
    """
    lits = model.all_literals()  # literal j is bit j of a row or premise mask
    lit_bit = {lit: 1 << j for j, lit in enumerate(lits)}
    attr_bit = {a: 1 << i for i, a in enumerate(dict.fromkeys(lit.attribute for lit in lits))}

    def mask_of(premise) -> int | None:
        """Bitmask of a literal set, or None if a literal is unobserved."""
        bits = [lit_bit.get(lit) for lit in premise]
        return None if None in bits else sum(bits)

    rows = [
        (mask_of(case.literals), lit.value, case.weight)
        for case in model.cases
        if (lit := claim(case.literals, target)) is not None
    ]
    if not rows:
        raise InputError(f"no case assigns the target attribute {target!r}")
    row_masks, row_targets, row_weights = zip(*rows)
    total = sum(row_weights)
    values = sorted(set(row_targets), key=value_key)
    lit_bits = [(lit_bit[lit], attr_bit[lit.attribute]) for lit in lits]

    rule_info = []
    for rule in rules:
        lit = claim(rule.conclusion, target)
        rule_info.append((mask_of(rule.premise), lit.value if lit else None))
    n_rules = len(rules)
    n_pos = n_rules + 1

    def first_idx(row_mask: int) -> int:
        for i, (mask, _) in enumerate(rule_info):
            if mask is not None and row_mask & mask == mask:
                return i
        return n_rules

    row_idx = [first_idx(m) for m in row_masks]
    row_correct = [
        row_idx[i] < n_rules and rule_info[row_idx[i]][1] == row_targets[i]
        for i in range(len(row_masks))
    ]
    best_gain = 0.0
    best = None  # (sort key, premise frozenset, value, position)

    default_blocked = bool(rules) and not rules[-1].premise

    def consider(premise_lits: tuple[int, ...], matching: list[int]):
        """Score one premise at every value and position it may take."""
        nonlocal best_gain, best
        if not matching:
            return
        mig = sum(row_weights[i] for i in matching if not row_correct[i]) / total
        if premise_lits:
            positions = range(n_pos)
        elif default_blocked:
            positions = []
        else:
            positions = [n_rules]
        if positions:
            premise = frozenset(lits[j] for j in premise_lits)
            pkey = literal_set_key(premise)
            for value in values:
                deltas = [0.0] * (n_pos + 1)
                for i in matching:
                    delta = (1 if value == row_targets[i] else 0) - (
                        1 if row_correct[i] else 0
                    )
                    if delta:
                        deltas[row_idx[i]] += delta * row_weights[i]
                acc = 0.0
                suffix = [0.0] * n_pos
                for p in range(n_pos - 1, -1, -1):
                    acc += deltas[p]
                    suffix[p] = acc
                for p in positions:
                    gain = suffix[p] / total
                    if gain <= 0:
                        continue
                    cand_key = (
                        -gain,
                        len(premise_lits),
                        -mig,
                        pkey,
                        value_key(value),
                        p,
                    )
                    if best is None or cand_key < best[0]:
                        best = (cand_key, premise, value, p)
                        best_gain = gain

    all_rows = list(range(len(row_masks)))
    consider((), all_rows)
    # stack entries: (premise literal ids, premise attr mask, matching);
    # the target's attribute starts out set, so no premise names it
    stack = [((), attr_bit[target], all_rows)]
    n_lits = len(lits)
    while stack:
        premise_lits, attr_mask, matching = stack.pop()
        start = premise_lits[-1] + 1 if premise_lits else 0
        for j in range(start, n_lits):
            bit, ab = lit_bits[j]
            if ab & attr_mask:
                continue
            child_matching = [i for i in matching if row_masks[i] & bit]
            if not child_matching:
                continue
            child_lits = premise_lits + (j,)
            consider(child_lits, child_matching)
            stack.append((child_lits, attr_mask | ab, child_matching))
    if best is None:
        return None
    rule = Rule(
        premise=best[1],
        conclusion=frozenset([Literal(target, best[2])]),
    )
    return best_gain, rule, best[3]
