"""Value semantics of the tuple-backed records and of `ZariskiResult`.

`BlowupStep`, `History`, `BoundarySplit` and `CatalogEntry` are tuple
records, as `CurveRecord` is: keyword construction and defaults, equality
and hashing over the fields, no assignment, and the repr text of the
frozen dataclasses they replace, checked here against a replica built
with `dataclasses.make_dataclass` from the same fields and defaults.
`ZariskiResult` stays a frozen dataclass in `logsurf._result`.
"""
import dataclasses
import pickle
from fractions import Fraction as Q

import pytest

import logsurf
from logsurf import (
    BlowupStep,
    BoundarySplit,
    CatalogEntry,
    History,
    ZariskiResult,
    apply_script,
    kodaira_config,
    make_config,
    sum_divisor,
    zariski_decompose,
    zariski_oracle,
)
from logsurf import birational


def _history() -> History:
    return apply_script(make_config([("C", 0, 1)]), [BlowupStep((("C", 2),), "E")])


def _split() -> BoundarySplit:
    component = frozenset({"A", "B"})
    return BoundarySplit(component, frozenset({"T"}), ((component, Q(1)),))


_NO = dataclasses.MISSING
# class, its former dataclass fields with their defaults, and field values
_RECORDS = [
    (
        BlowupStep,
        [("branches", _NO), ("exceptional_name", _NO), ("joins_boundary", False)],
        ((("C", 1), ("T", 1)), "G", True),
    ),
    (History, [("base", _NO), ("steps", _NO), ("top", _NO)], tuple(_history())),
    (BoundarySplit, [("C", _NO), ("E", _NO), ("component_genera", _NO)], tuple(_split())),
    (
        CatalogEntry,
        [("id", _NO), ("base_config", _NO), ("script", _NO), ("expected", _NO),
         ("pg_annotation", None)],
        ("k3", kodaira_config("II*"), (), {"vol_fiber": "1/42"}, 1),
    ),
]
_IDS = [cls.__name__ for cls, _, _ in _RECORDS]


def _former(cls, fields):
    """The frozen dataclass `cls` was, rebuilt from its fields and defaults."""
    specs = [(name, object, dataclasses.field(default=default)) for name, default in fields]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


@pytest.mark.parametrize("cls, fields, values", _RECORDS, ids=_IDS)
def test_construction_by_position_and_keyword(cls, fields, values):
    names = [name for name, _ in fields]
    record = cls(*values)
    assert cls._fields == tuple(names)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values
    with pytest.raises(TypeError):
        cls(*values[:-2])


def test_defaults():
    step = BlowupStep((("C", 1),), "G")
    assert step.joins_boundary is False
    assert step == BlowupStep(branches=(("C", 1),), exceptional_name="G", joins_boundary=False)
    entry = CatalogEntry("k3", kodaira_config("II*"), (), {})
    assert entry.pg_annotation is None
    for cls in (History, BoundarySplit):
        with pytest.raises(TypeError):
            cls(None, None)


@pytest.mark.parametrize("cls, fields, values", _RECORDS, ids=_IDS)
def test_equality_and_hash_over_the_fields(cls, fields, values):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    changed = cls(*values[:-1], "other")
    assert record != changed
    # tuple-backed: a record equals its plain field tuple, and hashes as it
    assert record == values
    assert record._replace(**{fields[-1][0]: "other"}) == changed
    try:
        expected = hash(values)
    except TypeError:  # CatalogEntry.expected is a dict, as it always was
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(TypeError):
            hash(_former(cls, fields)(*values))
    else:
        assert hash(record) == hash(cls(*values)) == expected
        assert hash(record) == hash(_former(cls, fields)(*values))
        assert len({record, cls(*values), changed}) == 2


@pytest.mark.parametrize("cls, fields, values", _RECORDS, ids=_IDS)
def test_assignment_raises(cls, fields, values):
    record = cls(*values)
    for name, _ in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


@pytest.mark.parametrize("cls, fields, values", _RECORDS, ids=_IDS)
def test_repr_is_the_former_dataclass_repr(cls, fields, values):
    assert repr(cls(*values)) == repr(_former(cls, fields)(*values))


def test_repr_text():
    assert repr(BlowupStep((("C", 2),), "E1")) == (
        "BlowupStep(branches=(('C', 2),), exceptional_name='E1', joins_boundary=False)"
    )


def _set_free_repr(value) -> str:
    """repr with the members of every set in sorted order.  A frozenset's
    repr follows its insertion history, which unpickling replays in the
    order of the old set's hash table, so the order of two colliding
    members can flip under some string hash seeds."""
    if isinstance(value, frozenset):
        return f"frozenset({sorted(map(_set_free_repr, value))})"
    if isinstance(value, tuple):
        return f"{type(value).__name__}({', '.join(map(_set_free_repr, value))})"
    return repr(value)


@pytest.mark.parametrize("cls, fields, values", _RECORDS, ids=_IDS)
def test_pickle_round_trip(cls, fields, values):
    record = cls(*values)
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is cls
    assert clone == record and _set_free_repr(clone) == _set_free_repr(record)
    try:
        expected = hash(record)
    except TypeError:  # CatalogEntry.expected is a dict
        with pytest.raises(TypeError):
            hash(clone)
    else:
        assert hash(clone) == expected


def test_models_store_plain_triples_and_hand_out_curve_records(monkeypatch):
    """A model stores each record as a plain (name, pa, kdeg) tuple, as
    every writer leaves it: `make_config`, `CurveConfig(...)`, a replay, a
    single step, a contraction, the contraction loops and a tower, through
    the closed-form blow-ups and the general blow-up pass alike.  `curves`
    and `record` hand out `CurveRecord`s, with their fields readable, their
    repr, and a pickle round trip that keeps their type."""
    general = []
    real = birational._blow_up_general

    def counted(*args):
        general.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(birational, "_blow_up_general", counted)
    e = logsurf.entry("I*_0")
    history = apply_script(e.base_config, list(e.script))
    top, last = history.top, e.script[-1].exceptional_name
    cls = logsurf.log_class(history, sum_divisor(e.base_config), e.base_config.names)
    low, cls, _ = logsurf.mmp_contract_log(top, cls)
    lowest, _, by_neutral = logsurf.contract_lc_trivial(low, cls)
    logged, _, by_log = logsurf.mmp_contract_log(top, logsurf.QDivisor({last: 1}))
    disjoint, by_disjoint = logsurf.mmp_contract_disjoint(top, [])
    assert by_log and by_neutral and by_disjoint
    tower_base = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    tower_top = logsurf.tower(tower_base, "C", "E", sum_divisor(tower_base), Q(1, 2), 5)[0].top
    # three branches through one point: the general blow-up pass, and an
    # exceptional meeting three curves
    triangle = make_config(
        [("A", 0, 1), ("B", 0, 0), ("C", 0, 0)], [("A", "B", 1), ("B", "C", 1), ("A", "C", 1)]
    )
    blown = logsurf.blow_up(triangle, BlowupStep((("A", 1), ("B", 1), ("C", 1)), "Z"))
    models = [
        top, low, lowest, logged, disjoint, tower_top, triangle, blown,
        logsurf.contract_minus_one(blown, "Z"),
        logsurf.blow_up(top, BlowupStep(((last, 1), ("T", 1)), "Y")),
        logsurf.contract_minus_one(top, last),
        logsurf.CurveConfig([logsurf.CurveRecord("A", 0, -1), ("B", 0, -2)], [[-1, 1], [1, 0]]),
    ]
    assert 3 in general
    for model in models:
        assert all(type(record) is tuple for record in model._records.values())
        assert model.curves == tuple(model._records.values())
        for record in model.curves:
            assert type(record) is logsurf.CurveRecord, record
            assert type(model.record(record.name)) is logsurf.CurveRecord
            assert model.record(record.name) == record
            assert (record.name, record.pa, record.kdeg) == tuple(record)
            assert repr(record) == "CurveRecord(name={!r}, pa={!r}, kdeg={!r})".format(*record)
            clone = pickle.loads(pickle.dumps(record))
            assert type(clone) is logsurf.CurveRecord and clone == record


def test_properties_and_json_of_the_records():
    history = _history()
    assert history.exceptional_names == ("E",)
    entry = logsurf.entry("25/84")
    assert entry.boundary_rule == tuple(s.joins_boundary for s in entry.script)
    assert entry.to_json()["id"] == "25/84"


def test_zariski_result_stays_a_frozen_dataclass():
    from logsurf._result import ZariskiResult as defined

    assert logsurf.ZariskiResult is defined is ZariskiResult
    assert ZariskiResult.__module__ == "logsurf._result"
    base = kodaira_config("II*")
    result = zariski_decompose(base, sum_divisor(base))
    assert result == zariski_oracle(base, sum_divisor(base))
    bad = dataclasses.replace(result, volume=result.volume + 1)
    assert (bad.volume, bad.positive) == (result.volume + 1, result.positive)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.volume = Q(0)
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result and clone.to_json() == result.to_json()
    assert hash(clone) == hash(result) and len({clone, result}) == 1
    with pytest.raises(AttributeError, match="ZariskiResult"):
        logsurf.zariski.ZariskiResult
