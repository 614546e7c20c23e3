import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derivpoly.derivative_polys import RiccatiParams
from derivpoly import verify
from derivpoly.exact import as_fraction, parse_rational
from derivpoly.verify import OracleInstance, Verdict

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)


class TestParseFormat:
    @pytest.mark.parametrize("text,expected", [
        ("1/2", Fraction(1, 2)),
        ("-3/4", Fraction(-3, 4)),
        ("+3/4", Fraction(3, 4)),
        ("7", Fraction(7)),
        ("-7", Fraction(-7)),
        ("0", Fraction(0)),
        ("2/4", Fraction(1, 2)),
        (" 5/6 ", Fraction(5, 6)),
    ])
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "1/-2", "a/b", "", "1/2/3", "1 /2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_parse_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")

    @given(small_fractions)
    def test_round_trip(self, x):
        assert parse_rational(str(x)) == x

    @pytest.mark.parametrize("call", [
        lambda: as_fraction(0.5),
        lambda: RiccatiParams(0.1, 0, 1),
        lambda: OracleInstance(RiccatiParams(1, 0, 1), 0.25),
        lambda: verify.check_integral_P(2, 0.0, 1),
        lambda: verify.check_integral_Q(2, 0, 1.0),
        lambda: verify.check_F_closed_form(0.3),
        lambda: verify.run_suite("egf", u0=0.3),
    ])
    def test_float_refused(self, call):
        """A binary float is not the decimal it shows: ``RiccatiParams(0.1,
        0, 1).r`` would be 3602879701896397/36028797018963968, and a float
        u0 would print its binary value in the verdict params."""
        with pytest.raises(TypeError, match="float"):
            call()

    def test_strings_accepted(self):
        assert as_fraction("1/3") == Fraction(1, 3)
        assert verify.check_integral_P(3, "0", "1/2").passed
        assert verify.check_F_closed_form("1/3").params["u0"] == "1/3"


BASE = RiccatiParams(1, 0, 1)

#: One sample of every ``Record`` type, with a second value that differs in
#: exactly one field.
RECORDS = [
    (RiccatiParams(1, 0, 1), RiccatiParams(r=1, a=0, b=2)),
    (RiccatiParams(1, 0, 1, Fraction(1, 4)), RiccatiParams(r=1, a=0, b=1, d=0)),
    (OracleInstance(BASE, Fraction(1, 3)),
     OracleInstance(BASE, Fraction(1, 3), order=5)),
    (Verdict("demo", {"n": 1}, True),
     Verdict("demo", {"n": 1}, False, 1, {"lhs": "1", "rhs": "2"})),
]


class TestRecords:
    """The value records behave as the frozen dataclasses they replace:
    field-wise ``==`` and ``hash``, the dataclass repr, validating
    constructors, and no assignment after construction."""

    @pytest.mark.parametrize("record,other", RECORDS)
    def test_equality_is_field_wise(self, record, other):
        twin = type(record)(*record._fields())
        assert twin == record and not twin != record
        assert record != other
        assert record != record._fields()

    @pytest.mark.parametrize("record,other", RECORDS[:3])
    def test_hash_is_the_hash_of_the_fields(self, record, other):
        assert hash(record) == hash(type(record)(*record._fields()))
        assert hash(record) == hash(record._fields())
        assert len({record, other, type(record)(*record._fields())}) == 2

    def test_verdict_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(Verdict("demo", {"n": 1}, True))

    def test_repr_lists_the_fields(self):
        assert repr(RiccatiParams(1, 0, 1)) == (
            "RiccatiParams(r=Fraction(1, 1), a=Fraction(0, 1), b=Fraction(1, 1), "
            "d=Fraction(0, 1))")
        assert repr(OracleInstance(BASE, 0, order=3)) == (
            f"OracleInstance(params={BASE!r}, u0=Fraction(0, 1), "
            "v0=Fraction(1, 1), order=3)")
        assert repr(Verdict("demo", {"n": 1}, False, 1, {"lhs": "1"})) == (
            "Verdict(identity='demo', params={'n': 1}, passed=False, "
            "first_failure=1, witness={'lhs': '1'}, inconclusive=False)")

    def test_constructors_coerce_and_validate(self):
        params = RiccatiParams(r=Fraction(1, 2), a=2, b="1/3")
        assert params._fields() == (Fraction(1, 2), Fraction(2), Fraction(1, 3),
                                  Fraction(0))
        assert all(type(v) is Fraction for v in params._fields())
        with pytest.raises(ValueError, match="r must be nonzero"):
            RiccatiParams(0, 0, 1)
        with pytest.raises(ValueError, match="a and b must differ"):
            RiccatiParams(1, 2, 2)
        assert type(RiccatiParams(1, 0, 1, 3).d) is Fraction
        inst = OracleInstance(BASE, 1, 2)
        assert (inst.u0, inst.v0, inst.order) == (1, 2, 16)
        assert type(inst.u0) is Fraction and type(inst.v0) is Fraction
        with pytest.raises(ValueError, match="v0 must be nonzero"):
            OracleInstance(BASE, 1, 0)
        with pytest.raises(ValueError, match="order must be >= 1"):
            OracleInstance(BASE, 1, order=0)

    @pytest.mark.parametrize("record,other", RECORDS)
    def test_no_field_can_be_assigned_or_deleted(self, record, other):
        for name, value in zip(record.__slots__, other._fields()):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == type(record)(*record._fields())

    @pytest.mark.parametrize("record,other", RECORDS)
    def test_copy_and_pickle_round_trip(self, record, other):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
