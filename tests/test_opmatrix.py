"""Tests for operator-valued matrices: products, kron, grid checks."""

import copy
import importlib
import inspect
import pickle
import pkgutil
import typing

import numpy as np
import pytest

import fockbundle
from fockbundle import classical, jc, spinrep, veronese
from fockbundle.opmatrix import (
    OpMatrix,
    check_idempotent_hermitian,
    check_unitary,
    matrix_equal,
    matrix_grid_deviation,
)
from fockbundle.operators import ANNIHILATION, CREATION, FockOperator
from fockbundle.symbols import guarded_div, number

N_MAX = 24
TOL = 1e-12


def _pauli_x():
    one = FockOperator.identity()
    zero = FockOperator.zero()
    return OpMatrix.build([[zero, one], [one, zero]])


def test_shapes_and_identity():
    m = OpMatrix.identity(3)
    assert m.rows == m.cols == 3
    assert matrix_equal(m @ m, m, N_MAX, TOL)[0].passed
    with pytest.raises(ValueError):
        OpMatrix.build([[FockOperator.identity()], []])


def test_matmul_keeps_operator_ordering():
    a = FockOperator.annihilation()
    adag = FockOperator.creation()
    left = OpMatrix.diag(a, adag)
    right = OpMatrix.diag(adag, a)
    prod = left @ right
    # entry (0,0) is a a-dagger = N+1, not a-dagger a = N
    expected = FockOperator.number_op() + FockOperator.identity()
    assert matrix_equal(
        OpMatrix.diag(expected, FockOperator.number_op()), prod, N_MAX, TOL
    )[0].passed


def test_dagger_reverses_and_conjugates():
    a = FockOperator.annihilation()
    m = OpMatrix.build([[a.scale(1j), FockOperator.zero()], [FockOperator.identity(), a.dagger()]])
    md = m.dagger()
    assert matrix_equal(md.dagger(), m, N_MAX, TOL)[0].passed
    assert matrix_equal((m @ m).dagger(), md @ md, N_MAX, TOL)[0].passed


def test_kron_block_structure():
    x = _pauli_x()
    k = x.kron(OpMatrix.identity(2))
    assert k.rows == 4
    assert matrix_equal(k @ k, OpMatrix.identity(4), N_MAX, TOL)[0].passed


def test_from_scalars_embeds_numeric_matrix():
    arr = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert matrix_equal(OpMatrix.from_scalars(arr), _pauli_x(), N_MAX, TOL)[0].passed


def test_from_scalars_makes_a_numeric_zero_the_zero_operator():
    values = np.array([[0.0, -0.0, 0j], [1.0, -1.0 / np.sqrt(2.0), 2j], [1e-300, -1e-300, 3.0 - 4.0j]])
    m = OpMatrix.from_scalars(values)
    assert m.entries[0] == (FockOperator.zero(),) * 3
    for row, ops in zip(values[1:], m.entries[1:]):  # every other entry is its constant, as before
        assert ops == tuple(FockOperator.scalar(x) for x in row)


def test_grid_deviation_reports_location_and_exclusions():
    inv = FockOperator.diagonal(guarded_div(1.0, number()))
    diff = OpMatrix.diag(inv - inv, FockOperator.identity())
    ((dev, where, excl),) = matrix_grid_deviation(diff, 8)
    assert dev == 1.0
    assert "slot2" in where
    assert excl == {1: {0}}


def test_check_unitary_and_projector_helpers():
    x = _pauli_x()
    (unitary,) = check_unitary(x, N_MAX, TOL)
    assert unitary.passed and unitary.detail == ""  # no deviation, so no location
    p = OpMatrix.diag(FockOperator.identity(), FockOperator.zero())
    (projector,) = check_idempotent_hermitian(p, N_MAX, TOL)
    assert projector.passed and projector.detail == ""
    not_p = OpMatrix.diag(FockOperator.identity().scale(0.5), FockOperator.zero())
    (res,) = check_idempotent_hermitian(not_p, N_MAX, TOL)
    assert not res.passed and res.detail == "max at (slot1,0 | slot1,0)"


def test_column_singular_map():
    inv = FockOperator.diagonal(guarded_div(1.0, number(-2)))
    m = OpMatrix.build([[FockOperator.identity(), inv], [FockOperator.zero(), FockOperator.identity()]])
    assert m.column_singular_map(8) == [{2: {2}}]


@pytest.mark.parametrize("skip", [None, {1: {0}}])
def test_check_unitary_builds_the_adjoint_once(monkeypatch, skip):
    calls = []
    dagger = OpMatrix.dagger

    def counted(self):
        calls.append(self)
        return dagger(self)

    monkeypatch.setattr(OpMatrix, "dagger", counted)
    x = _pauli_x()
    assert check_unitary(x, N_MAX, TOL, skip=skip)[0].passed
    assert calls == [x]


def test_a_product_sums_only_the_products_of_its_entries(monkeypatch):
    # each entry starts from its first product, not from the zero operator
    adds = []
    add = FockOperator.__add__

    def counted(self, other):
        adds.append(other)
        return add(self, other)

    a, adag = FockOperator.annihilation(), FockOperator.creation()
    column, row = OpMatrix.build([[a], [adag]]), OpMatrix.build([[adag, a]])
    monkeypatch.setattr(FockOperator, "__add__", counted)
    outer = column @ row
    assert adds == []
    assert outer.entry(0, 0).terms == (a * adag).terms and outer.entry(1, 1).terms == (adag * a).terms
    inner = row @ column
    assert len(adds) == 1
    assert inner.entry(0, 0).terms == add(adag * a, a * adag).terms


def test_type_hints_of_every_record_class_resolve():
    # string annotations are only evaluated on request: a name a module never
    # imported (OpMatrix.entries once named Tuple) fails here rather than in a user's tool
    classes = []
    for info in pkgutil.iter_modules(fockbundle.__path__):
        module = importlib.import_module(f"fockbundle.{info.name}")
        for obj in vars(module).values():
            # a record class declares its fields as class-level annotations
            if isinstance(obj, type) and obj.__module__ == module.__name__ and inspect.get_annotations(obj):
                classes.append(obj)
    assert OpMatrix in classes and len(classes) >= 10
    for cls in classes:
        assert typing.get_type_hints(cls), cls


def _frozen_records():
    """One instance of each immutable record class, with a field name of it."""
    family = veronese.build_family(2)
    bundle = jc.build_bundle([1.0])
    return [
        (FockOperator.annihilation(), "terms"),
        (ANNIHILATION, "terms"),  # shared for the whole process
        (OpMatrix.identity(2), "entries"),
        (classical.SpherePoint(3.0, 4.0, 12.0), "x"),
        (spinrep.SU2Element(1.0, 0.0), "alpha"),
        (bundle, "h"),
        (bundle.charts["I"], "unitary"),
        (family, "x"),
        (veronese.lift(family, 2), "a_col"),
    ]


def test_every_frozen_record_rejects_assignment_and_deletion():
    for record, name in _frozen_records():
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert getattr(record, name) is before


def test_frozen_records_copy_and_pickle():
    # copy and pickle restore the fields without assigning them
    for record, name in _frozen_records():
        assert getattr(copy.copy(record), name) is getattr(record, name)
        assert type(copy.deepcopy(record)) is type(record)
    m = OpMatrix.build([[FockOperator.annihilation(), FockOperator.identity()]])
    back = pickle.loads(pickle.dumps(m))
    assert [[dict(op.terms).keys() for op in row] for row in back.entries] == [[{-1}, {0}]]


def test_cached_properties_of_frozen_records_are_computed_once():
    p = classical.SpherePoint(3.0, 4.0, 12.0)
    assert p.r == 13.0 and vars(p)["r"] == 13.0
    assert repr(p) == "SpherePoint(x=3.0, y=4.0, z=12.0)"  # what an AxisSingular message prints
    lifted = veronese.lift(veronese.build_family(2), 2)
    assert lifted.projector is lifted.projector and lifted.one_plus_ztz is lifted.one_plus_ztz


def test_operators_and_matrices_compare_and_hash_by_value():
    a, adag = FockOperator.annihilation(), FockOperator.creation()
    assert a == ANNIHILATION and a is not ANNIHILATION and hash(a) == hash(ANNIHILATION)
    assert a * adag == FockOperator.from_terms(dict((a * adag).terms)) and a != adag
    assert a.scale(0) == FockOperator.zero() and hash(a.scale(0)) == hash(FockOperator.zero())
    assert len({a, ANNIHILATION, adag, CREATION}) == 2
    m, n = OpMatrix.build([[a, adag]]), OpMatrix.build([[ANNIHILATION, CREATION]])
    assert m == n and hash(m) == hash(n) and len({m, n}) == 1
    assert m != OpMatrix.build([[adag, a]]) and m != a and a != m.entries
    with pytest.raises(ValueError):
        OpMatrix.build([])
    with pytest.raises(ValueError):
        OpMatrix.build([[a, adag], [a]])


def test_a_veronese_family_equals_only_itself():
    # it keys the cache of its lifts: a family with the same operators is another key
    family = veronese.build_family(2)
    twin = veronese.VeroneseFamily(family.x, family.y, family.z)
    assert family == family and family != twin and len({family, twin}) == 2
    try:
        assert veronese.lift(twin, 1) is not veronese.lift(family, 1)
    finally:
        veronese.cache_clear()  # the twin's lift would stay cached for the process
