"""The contract of the package's record classes, and what importing the CLI loads.

Each record takes its fields by position or keyword, in one fixed order, and
exposes them as attributes.  Two records are equal exactly when they are of
one class with equal fields: an instance of another class with the same field
values, or the bare tuple of those values, is unequal.  Frozen records hash
by their fields and refuse assignment; the others are mutable and unhashable.
A constructor that checks its input raises as it always has.

Importing `bsroots.cli` must not load `dataclasses`, which, with the classes it
generated, took about two thirds of the import.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bsroots import thresholds
from bsroots.jumps import JumpTable
from bsroots.padic import BasePFraction, PAdicRational
from bsroots.polyring import Ideal, PolyRing
from bsroots.rings import (
    CatalogPresentation,
    NumericalSemigroup,
    PolynomialRingPresentation,
    SemigroupIdeal,
    SemigroupRingPresentation,
    VeronesePresentation,
)
from bsroots.roots import AdmissibilityReport, RootCertificate, RootRefutation, RootWitness
from bsroots.thresholds import (
    CosetReport,
    ThresholdCertificate,
    ThresholdSequence,
    ThresholdWitness,
)

ROOT = Path(__file__).resolve().parent.parent

_RING = PolyRing(5, ("x", "y"))
_IDEAL = Ideal(_RING, (_RING.parse("x"),))

# (class, field names, a factory of fresh field values, the index of a field
# and another value for it, values the constructor refuses or None, frozen)
CASES = [
    (PAdicRational, "value p", lambda: (Fraction(1, 2), 5), (1, 7),
     (Fraction(1, 5), 5), True),
    (BasePFraction, "value p", lambda: (Fraction(1, 2), 5), (0, Fraction(1, 3)),
     (Fraction(2), 5), True),
    (SemigroupIdeal, "semigroup exponents",
     lambda: (NumericalSemigroup((3, 5, 7)), frozenset({3})), (1, frozenset({5})), None, True),
    (PolynomialRingPresentation, "p variables", lambda: (5, ("x", "y")), (1, ("x",)),
     (4, ("x",)), True),
    (VeronesePresentation, "p variables degree", lambda: (5, ("x", "y"), 2), (2, 3),
     (5, ("x", "y"), 0), True),
    (SemigroupRingPresentation, "p semigroup_generators", lambda: (5, (3, 5, 7)), (0, 7),
     (5, (2, 4)), True),
    (CatalogPresentation, "p kind n", lambda: (5, "cross_xy", None), (0, 7),
     (5, "no_such_ring", None), True),
    (JumpTable, "p r producer levels", lambda: (5, 3, "regular", {1: (0, 4)}), (1, 2),
     None, False),
    (RootWitness, "e s jump", lambda: (1, 0, 4), (2, 5), None, True),
    (RootCertificate, "candidate p certified_level witnesses",
     lambda: (Fraction(-1), 5, 2, (RootWitness(1, 0, 4), RootWitness(2, 0, 24))), (2, 3),
     None, True),
    (RootRefutation, "candidate p failed_level checked",
     lambda: (Fraction(-1, 2), 5, 1, (2, 7)), (2, 2), None, True),
    (AdmissibilityReport, "r counts bound_fit verdict",
     lambda: (3, {1: 2}, None, "consistent_with_admissible"), (3, "growth_detected"),
     None, False),
    (ThresholdWitness, "e jump", lambda: (1, 3), (1, 4), None, True),
    (ThresholdCertificate, "value p certified_level witnesses slack merged",
     lambda: (Fraction(1, 2), 5, 2, (ThresholdWitness(1, 2),), 0, ()), (4, 1), None, True),
    (ThresholdSequence, "nu limit bracket",
     lambda: ({1: 2}, None, (Fraction(2, 5), Fraction(3, 5))), (1, Fraction(1, 2)),
     None, False),
    # Named through its module, so that pytest does not take it for a test class.
    (thresholds.TestIdealResult, "ideal stabilization_level stabilized",
     lambda: (_IDEAL, 1, True), (2, False), None, False),
    (CosetReport, "passed failures notes", lambda: (True, [], ["a note"]), (0, False),
     None, False),
]


@pytest.mark.parametrize(
    "cls, names, make, change, refused, frozen", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_contract(cls, names, make, change, refused, frozen):
    names = names.split()
    record = cls(*make())
    assert [getattr(record, name) for name in names] == list(make())
    assert cls(**dict(zip(names, make()))) == record
    assert cls(*make()) == record

    values = list(make())
    index, other = change
    values[index] = other
    assert cls(*values) != record

    twin = type(f"Twin{cls.__name__}", (cls,), {})
    assert twin(*make()) != record and record != twin(*make())
    assert record != tuple(make())

    if frozen:
        assert hash(cls(*make())) == hash(record)
        assert len({record, cls(*make())}) == 1
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[0])
        assert getattr(record, names[0]) == make()[0]
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, names[index], other)
        assert record == cls(*values)

    with pytest.raises(TypeError):
        cls()
    if refused is not None:
        with pytest.raises(ValueError):
            cls(*refused)


def test_records_of_two_classes_with_one_field_list_are_unequal():
    assert PAdicRational(Fraction(1, 2), 5) != BasePFraction(Fraction(1, 2), 5)


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, bsroots.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
