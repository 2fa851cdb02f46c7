"""Tests for operator-valued matrices: products, kron, grid checks."""

import dataclasses
import importlib
import pkgutil
import typing

import numpy as np
import pytest

import fockbundle
from fockbundle.opmatrix import (
    OpMatrix,
    check_idempotent_hermitian,
    check_unitary,
    matrix_equal,
    matrix_grid_deviation,
)
from fockbundle.operators import FockOperator
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
    assert matrix_equal(m @ m, m, N_MAX, TOL).passed
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
    ).passed


def test_dagger_reverses_and_conjugates():
    a = FockOperator.annihilation()
    m = OpMatrix.build([[a.scale(1j), FockOperator.zero()], [FockOperator.identity(), a.dagger()]])
    md = m.dagger()
    assert matrix_equal(md.dagger(), m, N_MAX, TOL).passed
    assert matrix_equal((m @ m).dagger(), md @ md, N_MAX, TOL).passed


def test_kron_block_structure():
    x = _pauli_x()
    k = x.kron(OpMatrix.identity(2))
    assert k.rows == 4
    assert matrix_equal(k @ k, OpMatrix.identity(4), N_MAX, TOL).passed


def test_from_scalars_embeds_numeric_matrix():
    arr = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert matrix_equal(OpMatrix.from_scalars(arr), _pauli_x(), N_MAX, TOL).passed


def test_grid_deviation_reports_location_and_exclusions():
    inv = FockOperator.diagonal(guarded_div(1.0, number()))
    diff = OpMatrix.diag(inv - inv, FockOperator.identity())
    dev, where, excl = matrix_grid_deviation(diff, 8)
    assert dev == 1.0
    assert "slot2" in where
    assert excl == {1: {0}}


def test_check_unitary_and_projector_helpers():
    x = _pauli_x()
    unitary = check_unitary(x, N_MAX, TOL)
    assert unitary.passed and unitary.detail == ""  # no deviation, so no location
    p = OpMatrix.diag(FockOperator.identity(), FockOperator.zero())
    projector = check_idempotent_hermitian(p, N_MAX, TOL)
    assert projector.passed and projector.detail == ""
    not_p = OpMatrix.diag(FockOperator.identity().scale(0.5), FockOperator.zero())
    res = check_idempotent_hermitian(not_p, N_MAX, TOL)
    assert not res.passed and res.detail == "max at (slot1,0 | slot1,0)"


def test_column_singular_map():
    inv = FockOperator.diagonal(guarded_div(1.0, number(-2)))
    m = OpMatrix.build([[FockOperator.identity(), inv], [FockOperator.zero(), FockOperator.identity()]])
    assert m.column_singular_map(8) == {2: {2}}


@pytest.mark.parametrize("skip", [None, {1: {0}}])
def test_check_unitary_builds_the_adjoint_once(monkeypatch, skip):
    calls = []
    dagger = OpMatrix.dagger

    def counted(self):
        calls.append(self)
        return dagger(self)

    monkeypatch.setattr(OpMatrix, "dagger", counted)
    x = _pauli_x()
    assert check_unitary(x, N_MAX, TOL, skip=skip).passed
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
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj) or (issubclass(obj, tuple) and hasattr(obj, "_fields")):
                    classes.append(obj)
    assert OpMatrix in classes and len(classes) >= 10
    for cls in classes:
        assert typing.get_type_hints(cls), cls
