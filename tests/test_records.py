"""The contract of the library's six frozen records: VarContext, SkeinPair,
KnotStepPair, FamilySpec, CheckReport and cli.OutputRecord.

Each is built positionally and by keyword, keeps its defaults and its
validation, equals only records of its own class, hashes by value, prints
as `Name(field=value, ...)`, refuses assignment and deletion, survives
pickle and copy.deepcopy, and copies with changes through replace().
"""

from __future__ import annotations

import copy
import pickle

import pytest

from conftest import CTX_AZ, CTX_T
from torkit import (
    JONES,
    CheckReport,
    ContextMismatch,
    FamilySpec,
    KnotStepPair,
    SkeinPair,
    VarContext,
    parse,
)
from torkit.cli import OutputRecord

A = parse("t^2 - 1", CTX_T)
B = parse("-t^(1/2)", CTX_T)

FIELDS = {
    VarContext: ("names",),
    SkeinPair: ("l1", "l2"),
    KnotStepPair: ("k1", "k2"),
    FamilySpec: (
        "name", "context", "skein_form", "skein", "knot_step", "closed_form", "lucas_pair", "hopf", "ansatz",
    ),
    CheckReport: ("name", "checked", "failure", "proved_for"),
    OutputRecord: ("family", "n", "polynomial", "representation"),
}


def fields_of(record) -> dict:
    return {name: getattr(record, name) for name in FIELDS[type(record)]}


RECORDS = [
    VarContext(("q", "p")),
    SkeinPair(A, B),
    KnotStepPair(B, A),
    JONES,
    CheckReport("demo", 3, "first counterexample at n=3: 4 != 5"),
    OutputRecord("jones", 5, JONES.value(5), "json"),
]
IDS = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record):
    values = fields_of(record)
    cls = type(record)
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert by_position == by_keyword == record
    assert fields_of(by_keyword) == values


def test_defaults():
    step = KnotStepPair(A, B)
    spec = FamilySpec("demo", CTX_T, (A, A, B), SkeinPair(A, B), step, JONES.closed_form, step)
    assert spec.hopf is None and spec.ansatz is None
    report = CheckReport("demo", 7)
    assert report.failure == "" and report.proved_for == "" and report.passed


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: VarContext(names="tq"), TypeError, "variable names must be a tuple of str, got 'tq'"),
        (lambda: VarContext(("t", 4)), TypeError, "variable names must be a tuple of str, got ('t', 4)"),
        (lambda: VarContext(()), ValueError, "a context holds one or two variables"),
        (lambda: VarContext(("q", "q")), ValueError, "variable names must be distinct"),
        (lambda: VarContext(("2q",)), ValueError, "invalid variable name '2q'"),
        (lambda: SkeinPair(A, parse("a", CTX_AZ)), ContextMismatch, "l1 and l2 must share one context"),
        (lambda: KnotStepPair(k1=A, k2=parse("z", CTX_AZ)), ContextMismatch, "k1 and k2 must share one context"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


class NamedLikeAContext:
    """Not a VarContext, but it has the same names."""

    names = ("t",)


def test_equality_holds_only_within_one_class():
    assert SkeinPair(A, B) != KnotStepPair(A, B)
    assert KnotStepPair(A, B) != SkeinPair(A, B)
    assert SkeinPair(A, B) == SkeinPair(A, B) != SkeinPair(B, A)
    assert VarContext(("t",)) != ("t",)
    assert VarContext(("t",)) != NamedLikeAContext()
    assert NamedLikeAContext() != VarContext(("t",))
    assert CheckReport("demo", 3) != ("demo", 3, "")
    assert CheckReport("demo", 3) != CheckReport("demo", 4)


def test_equal_records_hash_equal():
    fresh = VarContext(("t",))
    assert fresh is not CTX_T and fresh == CTX_T and hash(fresh) == hash(CTX_T)
    assert {fresh: 1}[CTX_T] == 1
    assert hash(CheckReport("demo", 3)) == hash(CheckReport("demo", 3))
    # LaurentPoly is unhashable, so a record that holds one is too.
    with pytest.raises(TypeError):
        hash(SkeinPair(A, B))


def test_repr_names_every_field():
    assert repr(VarContext(("t",))) == "VarContext(names=('t',))"
    assert repr(SkeinPair(A, B)) == (
        "SkeinPair(l1=LaurentPoly(('t',), 't^2 - 1'), l2=LaurentPoly(('t',), '-t^(1/2)'))"
    )
    assert repr(CheckReport("demo", 3)) == "CheckReport(name='demo', checked=3, failure='', proved_for='')"
    assert repr(OutputRecord("jones", 3, A, "text")) == (
        "OutputRecord(family='jones', n=3, polynomial=LaurentPoly(('t',), 't^2 - 1'), representation='text')"
    )


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    before = fields_of(record)
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert fields_of(record) == before


ROUND_TRIPS = [
    VarContext(("q", "p")),
    JONES.value(7),
    parse("a^(1/2)*z - 3*a^(-1)*z^2", CTX_AZ),
    SkeinPair(A, B),
    KnotStepPair(B, A),
    CheckReport("demo", 3, "first counterexample at n=3: 4 != 5"),
]


@pytest.mark.parametrize("value", ROUND_TRIPS, ids=lambda value: type(value).__name__)
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trip(value, how):
    if how == "pickle":
        back = pickle.loads(pickle.dumps(value))
    else:
        back = copy.deepcopy(value)
    assert type(back) is type(value)
    assert back == value
    assert repr(back) == repr(value)
    if isinstance(value, (VarContext, CheckReport)):
        assert hash(back) == hash(value)


def test_replace_copies_with_the_named_fields_changed():
    broken = KnotStepPair(JONES.knot_step.k1, -JONES.knot_step.k2)
    spec = JONES.replace(knot_step=broken)
    assert type(spec) is FamilySpec
    assert fields_of(spec) == {**fields_of(JONES), "knot_step": broken}
    assert JONES.knot_step != broken
    # The copy is checked as a new record is, and names only real fields.
    with pytest.raises(ContextMismatch):
        SkeinPair(A, B).replace(l2=parse("a", CTX_AZ))
    with pytest.raises(TypeError):
        CheckReport("demo", 3).replace(passed=True)
