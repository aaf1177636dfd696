"""Bundled data: the Boston housing table and the legal micro case model."""

from __future__ import annotations

from importlib import resources

from .case_model import Case, CaseModel, literals

_DATA = resources.files(__package__) / "data"


def boston_housing_path() -> str:
    """Filesystem path of the bundled 506x14 Boston housing CSV."""
    return str(_DATA / "boston_housing.csv")


def presumption_of_innocence_path() -> str:
    """Path of the bundled two-case presumption-of-innocence model."""
    return str(_DATA / "presumption_of_innocence.json")


def presumption_of_innocence() -> CaseModel:
    """The classic two-case legal model.

    The preferred case holds innocent and not-guilty; the less likely case
    holds not-innocent, guilty, and the presence of evidence.
    """
    return CaseModel(
        cases=(
            Case(literals({"innocent": True, "guilty": False}), weight=2),
            Case(literals({"innocent": False, "guilty": True, "evidence": True}), weight=1),
        )
    )

