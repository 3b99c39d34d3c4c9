"""The package's six immutable value types are slotted, frozen dataclasses:
no per-instance __dict__, no attribute assignment, and values that still
replace, compare and hash like any dataclass."""

import dataclasses

import pytest

from multiaxial.abelian import FGAbelianGroup
from multiaxial.family import Family
from multiaxial.structure_set import ActionSpec, DecompositionReport, Summand
from multiaxial.verification import CheckResult, VerificationSummary

GROUP = FGAbelianGroup(1, ((2, 1),))
SPEC = ActionSpec(Family.COMPLEX, 2, 5, 1)
SUMMAND = Summand("L_3", GROUP, "closed form")
REPORT = DecompositionReport(SPEC, "odd gap", (SUMMAND,))
CHECK = CheckResult("d^2 = 0", "U n=2 k=5", True)
SUMMARY = VerificationSummary((CHECK,))

# each value, one of its fields and another value for that field
VALUES = [
    (GROUP, "free_rank", 2),
    (SPEC, "k", 6),
    (SUMMAND, "group", FGAbelianGroup.free(3)),
    (REPORT, "summands", ()),
    (CHECK, "ok", False),
    (SUMMARY, "results", ()),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]


@pytest.mark.parametrize("value, name, other", VALUES, ids=IDS)
def test_value_types_are_slotted(value, name, other):
    assert not hasattr(value, "__dict__")
    assert name in type(value).__slots__


@pytest.mark.parametrize("value, name, other", VALUES, ids=IDS)
def test_value_types_refuse_assignment(value, name, other):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, other)
    # a name that is no field is refused too; CPython 3.10 to 3.13 raise
    # TypeError there for a slotted frozen dataclass, not FrozenInstanceError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.unknown_attribute = other
    assert getattr(value, name) != other
    assert not hasattr(value, "unknown_attribute")


@pytest.mark.parametrize("value, name, other", VALUES, ids=IDS)
def test_value_types_replace_compare_and_hash(value, name, other):
    same = dataclasses.replace(value)
    assert same == value and same is not value
    assert hash(same) == hash(value)
    changed = dataclasses.replace(value, **{name: other})
    assert getattr(changed, name) == other
    assert changed != value
    assert dataclasses.replace(changed, **{name: getattr(value, name)}) == value


def test_a_replaced_report_derives_its_total_again():
    assert REPORT.total == GROUP
    assert dataclasses.replace(REPORT, summands=()).total == FGAbelianGroup()
