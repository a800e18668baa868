"""`socd.cli._write`, the one JSON writer, against the spelling it promises.

The reference is `json.dumps(..., sort_keys=True, indent=2)` on plain
values (`reference_json`): exact fractions as fraction strings, dataclasses
as objects of their fields, and a table as a list of objects, each row cut
to the header.  On the values socd writes (exact scalars, `str`-keyed
mappings, lists, tuples, dataclasses and tables), nested, as table cells and
as tables inside values, the writer must give that text byte for byte; any
other type must raise a `TypeError`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socd.cli
from socd.cli import _Table, _result_json
from socd.mechanisms import MechanismKind
from socd.metrics import ParticipationRecord
from socd.model import GameParams, SwitchKind
from socd.simulation import HighwayParams, RingRoadParams

SETTINGS = dict(max_examples=150, deadline=None, derandomize=True, database=None)


# Subclasses of the exact scalar types, which the writer does not write.
class _Str(str):
    pass


class _Int(int):
    pass


class _Fraction(F):
    pass


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([3**100, -(3**100)]),
    st.floats(),  # NaN, the infinities, -0.0 and subnormals included
    st.text(),
    st.fractions(),
)

params = st.one_of(
    st.builds(GameParams, u=st.fractions(min_value=F(1, 100)),
              c=st.fractions(min_value=0)),
    st.sampled_from([HighwayParams(), HighwayParams(switch_cost=F(1, 3)),
                     RingRoadParams(), RingRoadParams(curve_step=math.pi)]),
    st.builds(ParticipationRecord, agent=st.text() | st.integers(),
              convoy=st.integers(), actual_lead=st.floats(0, 1e6),
              epps=st.floats(1e-6, 1e6)),
)

values = st.recursive(
    scalars | params,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def tables(draw):
    header = draw(st.lists(st.text(max_size=4), max_size=5))
    rows = draw(st.lists(
        st.lists(scalars, min_size=len(header), max_size=len(header) + 2),
        max_size=5,
    ))
    # some cells hold the very object of the cell above, which the writer
    # encodes once
    for above, row in zip(rows, rows[1:]):
        for i in range(len(header)):
            if draw(st.booleans()):
                row[i] = above[i]
    return _Table(tuple(header), list(map(tuple, rows)))


# Cells the writer must tell apart by identity, not by `==`.
_THIRD = F(1, 3)
_HALVES = F(1, 2), F(2, 4)  # equal, not the same object


def reference_json(value):
    """`value`'s reference text."""
    return json.dumps(_plain(_unfold(value)), sort_keys=True, indent=2) + "\n"


def _unfold(value):
    """`value` with every `_Table` a list of dicts, each row cut to the header."""
    if type(value) is _Table:
        return [dict(zip(value.header, row)) for row in value.rows]
    if isinstance(value, dict):
        return {k: _unfold(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_unfold(v) for v in value]
    return value


def _plain(value):
    """`value` in the types `json` writes as the writer does."""
    if isinstance(value, F):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@settings(**SETTINGS)
@given(values)
@example(math.nan)
@example([math.inf, -math.inf, -0.0, 1e-320, 3**100])
@example({"é": "ünïcödé ☃ 𝄞", "ctl": "\x00\x1f\x7f\n\t", "q": '"\\'})
@example({"": {}, "a": [], "b": [{}, [[]], {"c": {}}]})
@example([True, False, None, F(-7, 3), F(4), F(-4), F(0)])
@example({"params": GameParams(u=F(3, 2), c=F(1, 3)), "kind": "rotation"})
def test_writer_matches_oracle_on_values(value):
    assert _result_json(value) == reference_json(value)


@settings(**SETTINGS)
@given(tables())
@example(_Table(("a", "b"), [(1, F(1, 2), "cut"), (2, F(-3), "cut", "too")]))
@example(_Table(("b", "a", "b"), [(1, 2, 3), (4, 5, 6, 7)]))
@example(_Table(("%s", "%", "k"), [("%d", F(1, 3), "sg")]))
@example(_Table(("z",), [(math.nan,), ("front_join", "extra")]))
@example(_Table((), [(), (1,)]))
@example(_Table(("a",), []))
@example(_Table(("r", "n"), [(_THIRD, 1), (_THIRD, 2), (_THIRD, 3)]))
@example(_Table(("h",), [(_HALVES[k % 2],) for k in range(5)]))
@example(_Table(("v", "w"), [(1, 1), (True, 1), (1.0, 1), (1, True), (F(1), 1.0),
                             (True, True), (1.0, 1.0), (F(1), F(1))]))
def test_writer_matches_oracle_on_tables(table):
    assert _result_json(table) == reference_json(table)


@settings(**SETTINGS)
@given(st.dictionaries(st.text(max_size=3), tables() | values, max_size=3),
       st.lists(tables(), max_size=2))
def test_writer_matches_oracle_on_tables_inside_values(doc, listed):
    value = {"doc": doc, "listed": listed}
    assert _result_json(value) == reference_json(value)


def test_a_repeated_cell_is_encoded_once(monkeypatch):
    encoded = []

    def encode(value):
        encoded.append(value)
        return f'"{value}"'

    monkeypatch.setitem(socd.cli._SCALARS, F, encode)
    table = _Table(("r",), [(_THIRD,), (_THIRD,), (F(1, 3),), (_THIRD,)])
    assert _result_json(table) == reference_json(table)
    assert encoded == [_THIRD] * 3  # again after an equal but distinct object


@pytest.mark.parametrize(
    "value", [object(), {"a": [1, {1j}]}, _Table(("x", "y"), [(1, 2), (3, 1j)])],
    ids=["object", "nested-set", "table-cell"],
)
def test_an_unserializable_value_raises_jsons_type_error(value):
    with pytest.raises(TypeError) as want:
        json.dumps(_unfold(value))
    with pytest.raises(TypeError, match="is not JSON serializable") as got:
        _result_json(value)
    assert str(got.value) == str(want.value)


# Values the writer does not write: an enum member, subclasses of the exact
# scalar types (numpy's float64 is one of float), in a table cell a list or
# a dict, and an int key.  All but the key raise json's message.
UNWRITTEN_SCALARS = [MechanismKind.SINGLE_GAME, SwitchKind.ROTATION, _Str("s"), _Int(1),
                     _Fraction(1, 3), np.float64(0.5)]
UNWRITTEN = (
    [pytest.param({"v": [1, value]}, value, id=f"value-{type(value).__name__}")
     for value in UNWRITTEN_SCALARS]
    + [pytest.param(_Table(("v",), [(1,), (value,)]), value, id=f"cell-{type(value).__name__}")
       for value in UNWRITTEN_SCALARS + [[1], {"a": 1}]]
    + [pytest.param({"a": {1: "int key"}}, None, id="int-key")]
)


@pytest.mark.parametrize("doc, value", UNWRITTEN)
def test_an_unwritten_type_raises_type_error(doc, value):
    with pytest.raises(TypeError) as got:
        _result_json(doc)
    if value is not None:
        name = type(value).__name__
        assert str(got.value) == f"Object of type {name} is not JSON serializable"
