"""`socd.cli._write`, the one JSON writer, against the writer it replaced.

The oracle is the table model's `_jsonable` + `_json` + `json.dumps(...,
sort_keys=True, indent=2)`, kept in `tests/artifact_oracle.py`.  On nested
values, on tables and on tables inside values, the new writer must give the
oracle's text byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import artifact_oracle as oracle
import socd.cli
from socd.cli import _Table, _result_json
from socd.mechanisms import MechanismKind
from socd.metrics import ParticipationRecord
from socd.model import GameParams, SwitchKind
from socd.simulation import HighwayParams, RingRoadParams

SETTINGS = dict(max_examples=150, deadline=None, derandomize=True, database=None)

ENUMS = list(MechanismKind) + list(SwitchKind)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([3**100, -(3**100)]),
    st.floats(),  # NaN, the infinities, -0.0 and subnormals included
    st.text(),
    st.fractions(),
    st.sampled_from(ENUMS),
)

params = st.one_of(
    st.builds(GameParams, u=st.fractions(min_value=F(1, 100)),
              c=st.fractions(min_value=0)),
    st.sampled_from([HighwayParams(), HighwayParams(switch_cost=F(1, 3)),
                     RingRoadParams(), RingRoadParams(road_length=math.pi)]),
    st.builds(ParticipationRecord, agent=st.text() | st.integers(),
              convoy=st.integers(), actual_lead=st.floats(0, 1e6),
              epps=st.floats(1e-6, 1e6)),
)

values = st.recursive(
    scalars | params,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text() | st.integers(), inner, max_size=4),
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


def _want(value):
    """The oracle's text, a `_Table` anywhere in `value` written by `_json`."""
    return oracle._table_result_json(oracle._table_jsonable(_unfold(value)))


def _unfold(value):
    if type(value) is _Table:
        return oracle._table_json(value.header, value.rows)
    if isinstance(value, dict):
        return {k: _unfold(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_unfold(v) for v in value]
    return value


@settings(**SETTINGS)
@given(values)
@example(math.nan)
@example([math.inf, -math.inf, -0.0, 1e-320, 3**100])
@example({"é": "ünïcödé ☃ 𝄞", "ctl": "\x00\x1f\x7f\n\t", "q": '"\\'})
@example({"": {}, "a": [], "b": [{}, [[]], {"c": {}}]})
@example({1: "int key", "1x": "str key", 10: 2, "9": 3})
@example([True, False, None, F(-7, 3), F(4), F(-4), F(0)])
@example(ENUMS)
@example({"params": GameParams(u=F(3, 2), c=F(1, 3)), "kind": SwitchKind.ROTATION})
def test_writer_matches_oracle_on_values(value):
    assert _result_json(value) == _want(value)


@settings(**SETTINGS)
@given(tables())
@example(_Table(("a", "b"), [(1, F(1, 2), "cut"), (2, F(-3), "cut", "too")]))
@example(_Table(("b", "a", "b"), [(1, 2, 3), (4, 5, 6, 7)]))
@example(_Table(("%s", "%", "k"), [("%d", F(1, 3), MechanismKind.SINGLE_GAME)]))
@example(_Table(("z",), [(math.nan,), (SwitchKind.FRONT_JOIN, "extra")]))
@example(_Table((), [(), (1,)]))
@example(_Table(("a",), []))
@example(_Table(("r", "n"), [(_THIRD, 1), (_THIRD, 2), (_THIRD, 3)]))
@example(_Table(("h",), [(_HALVES[k % 2],) for k in range(5)]))
@example(_Table(("v", "w"), [(1, 1), (True, 1), (1.0, 1), (1, True), (F(1), 1.0),
                             (True, True), (1.0, 1.0), (F(1), F(1))]))
def test_writer_matches_oracle_on_tables(table):
    assert _result_json(table) == _want(table)


@settings(**SETTINGS)
@given(st.dictionaries(st.text(max_size=3), tables() | values, max_size=3),
       st.lists(tables(), max_size=2))
def test_writer_matches_oracle_on_tables_inside_values(doc, listed):
    value = {"doc": doc, "listed": listed}
    assert _result_json(value) == _want(value)


def test_a_repeated_cell_is_encoded_once(monkeypatch):
    encoded = []

    def encode(value):
        encoded.append(value)
        return f'"{value}"'

    monkeypatch.setitem(socd.cli._SCALARS, F, encode)
    table = _Table(("r",), [(_THIRD,), (_THIRD,), (F(1, 3),), (_THIRD,)])
    assert _result_json(table) == _want(table)
    assert encoded == [_THIRD] * 3  # again after an equal but distinct object
