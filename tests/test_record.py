from fractions import Fraction

import pytest

from cmintersect import (EXACT, CMFieldData, CMFieldParams, ContributionRow,
                         CountResult, DeltaContext, Factorization,
                         IntersectionReport, LocalQuery, NContext,
                         QuadDiscriminant, ScrJQuery, enumerate_delta,
                         enumerate_n, validate)
from cmintersect._record import Record
from cmintersect.cm_fields import _n_contexts
from cmintersect.matrix_ideals import IdealTriple, PMatrix

PARAMS = dict(D=5, alpha0=0, alpha1=1, beta0=1, beta1=1, index_bound=1)
DELTA = dict(delta=1, a=2, sq=1, C_delta=1, t_u=1, t_x=2, t_w=3)
ROW = dict(delta=1, n=-1, f_u=1, C_delta=1, mu=Fraction(1), frakI=1,
           scrJ_value=1, scrJ_exactness=EXACT, product=Fraction(1))
QUAD = dict(d=-3, d0=-3, f=1)

# (class, its fields in order, the repr a frozen dataclass gave them)
SAMPLES = [
    (CMFieldParams, PARAMS,
     "CMFieldParams(D=5, alpha0=0, alpha1=1, beta0=1, beta1=1, index_bound=1)"),
    (CMFieldData, dict(params=CMFieldParams(**PARAMS), Dtilde=41, cK=-9),
     "CMFieldData(params=CMFieldParams(D=5, alpha0=0, alpha1=1, beta0=1, "
     "beta1=1, index_bound=1), Dtilde=41, cK=-9)"),
    (DeltaContext, DELTA,
     "DeltaContext(delta=1, a=2, sq=1, C_delta=1, t_u=1, t_x=2, t_w=3)"),
    (NContext, dict(delta_ctx=DeltaContext(**DELTA), n=-1, N=2, n_u=1, n_x=2,
                    n_w=3, t_xuv=0, d_u=-3, d_x=-4, support=(2,)),
     "NContext(delta_ctx=DeltaContext(delta=1, a=2, sq=1, C_delta=1, t_u=1, "
     "t_x=2, t_w=3), n=-1, N=2, n_u=1, n_x=2, n_w=3, t_xuv=0, d_u=-3, d_x=-4, "
     "support=(2,))"),
    (CountResult, dict(value=1, exactness=EXACT),
     "CountResult(value=1, exactness='exact')"),
    (ScrJQuery, dict(d1=QuadDiscriminant(**QUAD), d2=-8, t=Fraction(1, 2),
                     f_u=1, N=2, ell=2, support=(2,)),
     "ScrJQuery(d1=QuadDiscriminant(d=-3, d0=-3, f=1), d2=-8, "
     "t=Fraction(1, 2), f_u=1, N=2, ell=2, support=(2,))"),
    (Factorization, dict(sign=-1, factors=((2, 2), (3, 1))),
     "Factorization(sign=-1, factors=((2, 2), (3, 1)))"),
    (ContributionRow, ROW,
     "ContributionRow(delta=1, n=-1, f_u=1, C_delta=1, mu=Fraction(1, 1), "
     "frakI=1, scrJ_value=1, scrJ_exactness='exact', product=Fraction(1, 1))"),
    (IntersectionReport, dict(value=Fraction(1), exactness=EXACT,
                              mode="monogenic", ell=2,
                              rows=(ContributionRow(**ROW),), warnings=()),
     "IntersectionReport(value=Fraction(1, 1), exactness='exact', "
     "mode='monogenic', ell=2, rows=(ContributionRow(delta=1, n=-1, f_u=1, "
     "C_delta=1, mu=Fraction(1, 1), frakI=1, scrJ_value=1, "
     "scrJ_exactness='exact', product=Fraction(1, 1)),), warnings=())"),
    (LocalQuery, dict(p=2, C=1, a1=0, a0=1), "LocalQuery(p=2, C=1, a1=0, a0=1)"),
    (IdealTriple, dict(p=2, n=1, m=1, t=1), "IdealTriple(p=2, n=1, m=1, t=1)"),
    # trace and norm are properties now, no longer fields in the repr
    (PMatrix, dict(a=Fraction(0), b=Fraction(-5), c=Fraction(1), d=Fraction(0)),
     "PMatrix(a=Fraction(0, 1), b=Fraction(-5, 1), c=Fraction(1, 1), "
     "d=Fraction(0, 1))"),
    (QuadDiscriminant, QUAD, "QuadDiscriminant(d=-3, d0=-3, f=1)"),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, text):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, fields, text):
    x, y = cls(*fields.values()), cls(**fields)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(tuple(fields.values()))
    assert len({x, y}) == 1
    assert all(getattr(x, name) == value for name, value in fields.items())


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    x = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(x, name, value)
    with pytest.raises(AttributeError):
        setattr(x, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) == value and not hasattr(x, "extra")


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_missing_or_unknown_argument_is_a_type_error(cls, fields, text):
    values = tuple(fields.values())
    with pytest.raises(TypeError):
        cls(*values[:1])
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, 0)


def test_other_types_never_compare_equal():
    params = CMFieldParams(5, 0, 1, 1, 1)
    assert params != (5, 0, 1, 1, 1, 1)
    assert not params == (5, 0, 1, 1, 1, 1)
    # same field values, different class
    assert QuadDiscriminant(-3, -3, 1) != LocalQuery(-3, -3, 1, 0)
    assert CountResult(1, EXACT) != Factorization(1, EXACT)


def test_defaults():
    assert CMFieldParams(5, 0, 1, 1, 1) == CMFieldParams(**PARAMS)
    assert CMFieldParams(5, 0, 1, 1, 1, index_bound=3).index_bound == 3
    assert CMFieldParams(D=5, alpha0=0, alpha1=1, beta0=1, beta1=1).index_bound == 1
    report = IntersectionReport(Fraction(0), EXACT, "monogenic", 3, ())
    assert report.warnings == ()
    assert NContext(DeltaContext(**DELTA), -1, 2, 1, 2, 3, 0, -3, -4).support == ()


def test_post_init_check_keeps_its_message():
    with pytest.raises(ValueError, match=r"triple out of normal form: "
                                         r"IdealTriple\(p=2, n=0, m=1, t=5\)"):
        IdealTriple(2, 0, 1, 5)


def test_pmatrix_trace_and_norm_follow_the_entries():
    y = PMatrix.of(1, 2, 3, 4)
    assert (y.trace, y.norm) == (5, -2)
    assert y == PMatrix.of(1, 2, 3, 4) != PMatrix.of(1, 2, 3, 5)


def test_field_order_and_defaults_are_checked_at_class_creation():
    with pytest.raises(TypeError):
        class Bad(Record):
            a: int = 0
            b: int

    class Point(Record):
        x: int
        y: int = 0

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x < 0")

    assert Point(1) == Point(x=1, y=0)
    # the qualified name, as a dataclass repr gives it
    assert repr(Point(1, 2)) == f"{Point.__qualname__}(x=1, y=2)"
    with pytest.raises(ValueError):
        Point(-1)


def test_equal_field_data_share_the_branch_cache():
    _n_contexts.cache_clear()
    try:
        first = validate(CMFieldParams(5, 0, 1, 1, 1))
        enumerate_n(first, enumerate_delta(first)[0], 2)
        second = validate(CMFieldParams(5, 0, 1, 1, 1))
        assert second is not first and second == first
        enumerate_n(second, enumerate_delta(second)[0], 3)
        info = _n_contexts.cache_info()
        assert (info.hits, info.misses) == (1, 1)
    finally:
        _n_contexts.cache_clear()
