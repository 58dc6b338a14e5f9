"""Value semantics of the package's records: constructors, immutability,
equality and hashing, reprs, unpacking and pickling."""

import pickle

import pytest

from irrcyclic import closed_forms, cyclotomy, oracle, weights
from irrcyclic.fields import build_tower


def _frozen_records():
    """One instance of every frozen record, with the name of one of its fields."""
    spec = weights.code_params(3, 1, 4, 2)
    tower = build_tower(2, 1, 4)
    return [
        (spec, "N"),
        (weights.weight_distribution(spec), "method"),
        (weights.PeriodCheck(True, True, True), "integral"),
        (closed_forms.period_poly_order3(7, 1, 3), "coeffs"),
        (closed_forms.semiprimitive_periods(3, 1, 2, 2), "special_value"),
        (closed_forms.index2_params(2, 7, 1, 1), "G"),
        (cyclotomy.gaussian_periods_exact(tower, 3), "counts"),
        (cyclotomy.cyclotomic_numbers(tower, 3), "counts"),
        (oracle.codeword(weights.code_params(2, 1, 4, 3), tower, tower.one), "entries"),
    ]


def test_frozen_records_refuse_assignment():
    for rec, field in _frozen_records():
        before = getattr(rec, field)
        for name in (field, "unknown"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert getattr(rec, field) is before


def test_value_records_compare_and_hash_by_fields():
    pairs = [
        (weights.code_params(3, 1, 4, 2), weights.code_params(3, 1, 4, 2)),
        (
            weights.weight_distribution(weights.code_params(3, 1, 4, 2)),
            weights.weight_distribution(weights.code_params(3, 1, 4, 2)),
        ),
        (closed_forms.period_poly_order3(7, 1, 3), closed_forms.period_poly_order3(7, 1, 3)),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert weights.code_params(3, 1, 4, 2) != weights.code_params(3, 1, 5, 2)
    assert weights.PeriodCheck(True, True, True) != weights.PeriodCheck(True, True, False)
    # a record never equals another type holding the same values
    assert weights.PeriodCheck(True, True, True) != (True, True, True)


def test_period_records_compare_by_identity():
    tower = build_tower(2, 1, 4)
    pset = cyclotomy.gaussian_periods_exact(tower, 3)
    twin = cyclotomy.GaussianPeriodSet(pset.r, pset.N, pset.p, pset.counts)
    assert pset == pset and pset != twin
    assert len({pset, twin}) == 2
    table = cyclotomy.cyclotomic_numbers(tower, 3)
    again = cyclotomy.cyclotomic_numbers(tower, 3)
    assert (table.counts == again.counts).all()
    assert table == table and table != again
    assert len({table, again}) == 2


def test_reprs():
    assert repr(weights.PeriodCheck(True, False, True)) == (
        "PeriodCheck(integral=True, congruent=False, bounded=True)"
    )
    assert repr(closed_forms.semiprimitive_periods(3, 1, 2, 2)) == (
        "SemiprimitivePeriods(N=2, special_index=0, special_value=-5, common_value=4)"
    )
    assert repr(closed_forms.period_poly_order3(7, 1, 3)) == (
        "PeriodPolynomial(N=3, r=343, coeffs=(216, -114, 1, 1),"
        " roots=((-12, 1), (2, 1), (9, 1)))"
    )
    assert repr(weights.weight_distribution(weights.code_params(3, 1, 4, 2))) == (
        "WeightDistribution(spec=CodeSpec(p=3, s=1, m=4, N=2),"
        " entries=((24, 40), (30, 40)), method='thm18')"
    )
    assert repr(closed_forms.index2_params(2, 7, 1, 1)) == (
        "IndexTwoParams(p=2, l=7, lam=1, s=1, N1=7, f=3, h=1, a=-1, b=1,"
        " G=((0 + 0*sqrt(-7))/2, (-2 + 2*sqrt(-7))/2, (0 + 0*sqrt(-7))/2))"
    )
    tower = build_tower(2, 1, 4)
    assert repr(tower) == "FieldTower(GF(2^1)^4, r=16)"
    assert repr(cyclotomy.gaussian_periods_exact(tower, 3)) == (
        "GaussianPeriodSet(r=16, N=3, p=2, counts=array([[-3,  0],\n"
        "       [ 1,  0],\n"
        "       [ 1,  0]], dtype=int8))"
    )
    assert repr(cyclotomy.cyclotomic_numbers(tower, 3)) == (
        "CyclotomicTable(r=16, N=3, counts=array([[0, 2, 2],\n"
        "       [2, 2, 1],\n"
        "       [2, 1, 2]]))"
    )
    word = oracle.codeword(weights.code_params(2, 1, 4, 3), tower, tower.one)
    assert repr(word) == (
        "Codeword(spec=CodeSpec(p=2, s=1, m=4, N=3), beta=<1 in GF(2^4)>,"
        " entries=(<0 in GF(2^4)>, <1 in GF(2^4)>, <1 in GF(2^4)>, <1 in GF(2^4)>,"
        " <1 in GF(2^4)>))"
    )


def test_semiprimitive_periods_unpack():
    found = closed_forms.semiprimitive_periods(3, 1, 2, 2)
    special, index, common = found
    assert (special, index, common) == (found.special_value, found.special_index,
                                        found.common_value) == (-5, 0, 4)
    assert found.as_list() == [-5, 4]


def test_constructors_take_positions_and_keywords():
    spec = weights.code_params(3, 1, 4, 2)
    entries = ((24, 40), (30, 40))
    assert weights.WeightDistribution(spec, entries, "thm18") == weights.WeightDistribution(
        method="thm18", entries=entries, spec=spec)
    assert weights.PeriodCheck(True, False, True) == weights.PeriodCheck(
        bounded=True, congruent=False, integral=True)
    with pytest.raises(TypeError):
        weights.PeriodCheck(True, True)


def test_records_pickle():
    spec = weights.code_params(3, 1, 4, 2)
    for rec in (spec, weights.weight_distribution(spec)):
        assert pickle.loads(pickle.dumps(rec)) == rec
