"""The one intake of integer tables, ``exact_linear._int_table``: a Cayley
table, action matrices and cocycle values are read by one shape walker and
one entry rule, so the same bad input gets the same kind of message from
``GroupTable``, ``FiniteAction`` and ``Cocycle``."""

import copy
import tracemalloc

import numpy as np
import pytest

from orbitforge import cocycle_split as cs
from orbitforge import exact_linear as el
from orbitforge import group_core as gc

C2 = gc.cyclic(2)

#: (build, valid table, what its messages name, its shape) of each
#: constructor, on C2 and a module of dimension 1
BUILDERS = {
    "GroupTable": (lambda t: gc.GroupTable(t, ["e", "a"]), [[0, 1], [1, 0]], "table entries", (2, 2)),
    "FiniteAction": (lambda t: gc.FiniteAction(C2, 1, 0, t), [[[1]], [[1]]], "action matrices", (2, 1, 1)),
    "Cocycle": (lambda t: cs.Cocycle(C2, gc.trivial_action(C2, 1), t), [[[0], [0]], [[0], [0]]],
                "cocycle values", (2, 2, 1)),
}

#: Bad inputs, each a change to the last entry or the last row of a valid
#: table, or a whole table
BAD_ENTRIES = {"bool": True, "float": 0.5, "str": "1", "numpy float": np.float64(1), "2**70": 2**70}
BAD_ROWS = {
    "ragged row": lambda row: row[:-1],
    "str row": lambda row: "1" * len(row),
    "int row": lambda row: 1,
    "generator row": lambda row: (x for x in row),
}

#: The outcomes that are neither the entry message nor the shape message:
#: a table past int64 holds no element index, an action entry of 2^70 breaks
#: M_1 M_1 = M_0, and any c(1, 1) is a cocycle of C2 on Q
OTHER_OUTCOMES = {
    ("GroupTable", "empty table"): "empty table",
    ("GroupTable", "2**70"): "table entries must be element indices",
    ("FiniteAction", "2**70"): "action is not a homomorphism at pair (1, 1)",
    ("Cocycle", "2**70"): None,
}


def _outcome(build) -> str | None:
    """None if build() returns, else the message of its ValueError."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def _last_row(table: list) -> tuple[list, list]:
    """(holder, row): the last row of a nested list table and the list that
    holds it."""
    holder = table
    while isinstance(holder[-1][-1], list):
        holder = holder[-1]
    return holder, holder[-1]


def _corrupted(valid: list, case: str):
    if case == "empty table":
        return []
    table = copy.deepcopy(valid)
    holder, row = _last_row(table)
    if case in BAD_ENTRIES:
        row[-1] = BAD_ENTRIES[case]
    else:
        holder[-1] = BAD_ROWS[case](row)
    return table


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("case", [*BAD_ENTRIES, *BAD_ROWS, "empty table"])
def test_one_bad_input_gets_one_message_from_every_constructor(builder, case):
    build, valid, what, shape = BUILDERS[builder]
    if (builder, case) in OTHER_OUTCOMES:
        expected = OTHER_OUTCOMES[builder, case]
    elif case in BAD_ENTRIES:
        expected = f"{what} must be integers, got {BAD_ENTRIES[case]!r}"
    else:
        expected = f"{what} must be an integer table of shape {shape}"
    assert _outcome(lambda: build(_corrupted(valid, case))) == expected


@pytest.mark.parametrize("builder", BUILDERS)
def test_numpy_integer_entries_are_accepted_by_every_constructor(builder):
    build, valid, _, _ = BUILDERS[builder]
    as_numpy = np.vectorize(np.int64, otypes=[object])(np.array(valid, dtype=object)).tolist()
    assert type(_last_row(as_numpy)[1][-1]) is np.int64
    got, plain = build(as_numpy), build(valid)
    if builder == "GroupTable":
        assert got.table == plain.table
    elif builder == "FiniteAction":
        assert got.matrices.dtype == plain.matrices.dtype and np.array_equal(got.matrices, plain.matrices)
    else:
        assert got.to_json() == plain.to_json()


def test_the_first_bad_entry_in_row_major_order_is_named():
    table = [[0, 1, 2], [1, 2, "x"], [2.5, 0, 1]]
    with pytest.raises(ValueError, match=r"^table entries must be integers, got 'x'$"):
        gc.GroupTable(table, "abc")
    with pytest.raises(ValueError, match=r"^action matrices must be integers, got True$"):
        gc.FiniteAction(C2, 2, 0, [[[1, 0], [0, 1]], [[1, True], [0.5, 1]]])


def test_the_intake_returns_int64_or_python_ints_past_int64():
    small = el._int_table([[1, -2], (3, np.int8(4))], (2, 2), "t")
    assert small.dtype == np.int64 and small.tolist() == [[1, -2], [3, 4]]
    big = el._int_table([[1, -2], [np.uint64(2**64 - 1), 2**70]], (2, 2), "t")
    assert big.dtype == object and big.tolist() == [[1, -2], [2**64 - 1, 2**70]]
    assert all(type(x) is int for x in big.flat)
    # an integer array of the right shape is returned as it is
    arr = np.zeros((2, 2), dtype=np.int16)
    assert el._int_table(arr, (2, 2), "t") is arr


def test_an_array_that_is_not_integer_is_read_entry_by_entry():
    # its entries are Python floats by then, as in the cocycle message before
    with pytest.raises(ValueError, match=r"^t must be integers, got 0\.5$"):
        el._int_table(np.array([[0.5, 0]]), (1, 2), "t")
    with pytest.raises(ValueError, match=r"^t must be an integer table of shape \(2, 2\)$"):
        el._int_table(np.zeros((2, 3), dtype=np.int64), (2, 2), "t")


def test_reading_the_s5xc8_rows_peaks_near_the_int64_array():
    # table-certify's S5 x C8 import, 921,600 entries: the int64 array is
    # 7.03 MiB, and the row-by-row import before the intake peaked at
    # 7.07 MiB; a flat list of the entries would add another 7.2 MiB
    rows = gc.direct_product(gc.symmetric(5), gc.cyclic(8)).array.tolist()
    tracemalloc.start()
    try:
        arr = el._int_table(rows, (960, 960), "table entries")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.dtype == np.int64 and arr.shape == (960, 960)
    assert peak < 1.25 * arr.nbytes, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("dim", [2.0, True, "1", None, 0, -1], ids=repr)
def test_module_dimension_must_be_a_positive_int(dim):
    with pytest.raises(ValueError, match=r"^module dimension must be a positive int$"):
        gc.FiniteAction(C2, dim, 0, [[[1]], [[1]]])


def test_a_numpy_module_dimension_passes_as_an_int():
    action = gc.FiniteAction(C2, np.int64(1), 0, [[[1]], [[1]]])
    assert action.module_dim == 1 and type(action.module_dim) is int


def test_qmatrix_values_need_every_matrix_as_a_qmatrix():
    # QMatrix values are put over their lcm; mixed with integer rows they
    # are not a table of integers
    with pytest.raises(ValueError, match=r"^action matrices must be an integer table of shape \(2, 1, 1\)$"):
        gc.FiniteAction(C2, 1, 0, [[[1]], el.QMatrix.of([[-1]])])
    action = gc.FiniteAction(C2, 1, 0, [el.QMatrix.identity(1), el.QMatrix.of([[-1]])])
    assert action.matrices.tolist() == [[[1]], [[-1]]]
