"""The three value records (``ConcreteModule``, ``CPMap``, ``ModuleMap``)
validate their matrices as one stack: the error texts match a one-at-a-time
check, and valid input never takes the per-matrix loop."""

import numpy as np
import pytest

import semiphi.cpmaps as cpmaps
import semiphi.modules as modules
import semiphi.numerics as numerics
from semiphi import BlockAlgebra, ConcreteModule, CPMap, ModuleMap, ShapeError

GOOD = np.eye(2, dtype=complex)
NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])
SHORT = np.ones((1, 2))


def column_module(rows: int) -> ConcreteModule:
    """C^rows as a module over the scalars: a domain with ``rows`` basis elements."""
    return ConcreteModule(BlockAlgebra((1,)), rows, tuple(np.eye(rows)[:, [i]] for i in range(rows)))


# Each record takes three 2x2 matrices; the name is the one its shape error uses.
RECORDS = {
    "module": (lambda values: ConcreteModule(BlockAlgebra((2,)), 2, values), "basis element"),
    "cp_map": (lambda values: CPMap(BlockAlgebra((1, 1, 1)), 2, values), "values"),
    "module_map": (lambda values: ModuleMap(column_module(3), 2, 2, values), "values"),
}

# (values, exception type, text with {what} for the record's name)
BAD_INPUTS = {
    "ragged": ((GOOD, GOOD, SHORT), ShapeError, "{what} must be 2x2, got (1, 2)"),
    "one_d": ((GOOD, [1.0, 2.0], GOOD), ShapeError, "expected a 2-d array, got shape (2,)"),
    "three_d": ((GOOD, np.zeros((1, 2, 2)), GOOD), ShapeError, "expected a 2-d array, got shape (1, 2, 2)"),
    "nan": ((GOOD, GOOD, NAN), ValueError, "matrix entries must be finite"),
    "wrong_shape_at_1": ((GOOD, np.ones((2, 3)), GOOD), ShapeError, "{what} must be 2x2, got (2, 3)"),
    "all_transposed": ((np.ones((2, 1)),) * 3, ShapeError, "{what} must be 2x2, got (2, 1)"),
    # The first bad matrix in order decides which error is raised.
    "nan_before_shape": ((GOOD, NAN, SHORT), ValueError, "matrix entries must be finite"),
    "shape_before_nan": ((GOOD, SHORT, NAN), ShapeError, "{what} must be 2x2, got (1, 2)"),
}


@pytest.mark.parametrize("record", sorted(RECORDS))
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_constructor_error_texts(record, case):
    build, what = RECORDS[record]
    values, kind, text = BAD_INPUTS[case]
    with pytest.raises(ValueError) as info:
        build(values)
    assert type(info.value) is kind
    assert str(info.value) == text.format(what=what)


@pytest.fixture
def as_matrix_calls(monkeypatch):
    """Counts ``as_matrix`` calls made by the record constructors."""
    calls = []
    original = numerics.as_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (numerics, cpmaps, modules):
        monkeypatch.setattr(module, "as_matrix", counted)
    return calls


@pytest.mark.parametrize("record", sorted(RECORDS))
def test_valid_constructor_takes_no_per_matrix_loop(record, as_matrix_calls):
    build, _ = RECORDS[record]
    values = (GOOD, 2 * GOOD, [[1.0, 0.0], [0.0, 0.0]])
    build(values)
    assert as_matrix_calls == []
    # The counter is live: a bad input does take the loop.
    with pytest.raises(ShapeError):
        build((GOOD, GOOD, SHORT))
    assert len(as_matrix_calls) == 3


def test_values_are_views_of_the_stored_stack():
    module = RECORDS["module"][0]((GOOD, 2 * GOOD, 3 * GOOD))
    phi = RECORDS["cp_map"][0]((GOOD, 2 * GOOD, 3 * GOOD))
    phi_map = RECORDS["module_map"][0]((GOOD, 2 * GOOD, 3 * GOOD))
    for items, stack in (
        (module.basis, module._basis_stack),
        (phi.values, phi._value_stack),
        (phi_map.values, phi_map._value_stack),
    ):
        assert type(items) is tuple and len(items) == 3
        assert stack.shape == (3, 2, 2) and stack.dtype == complex
        assert all(np.shares_memory(item, stack) for item in items)
        assert np.array_equal(stack, [GOOD, 2 * GOOD, 3 * GOOD])


def test_empty_records_have_empty_stacks():
    zero = ConcreteModule(BlockAlgebra((1, 2)), 2, ())
    assert zero.basis == () and zero._basis_stack.shape == (0, 2, 3)
    zero_map = ModuleMap(zero, 3, 4, ())
    assert zero_map.values == () and zero_map._value_stack.shape == (0, 4, 3)
    assert zero_map.stacked_columns().shape == (4, 0)
