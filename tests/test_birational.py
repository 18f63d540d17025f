import random
from bisect import insort
from fractions import Fraction as Q
from functools import cache

import pytest
from conftest import BY_NAME, Oversize, random_config, random_effective_divisor, random_history

from logsurf import (
    BlowupStep,
    CurveConfig,
    CurveRecord,
    LatticeError,
    QDivisor,
    apply_script,
    blow_up,
    boundary_adjustment,
    catalog_ids,
    contract_lc_trivial,
    contract_minus_one,
    divisor_geq,
    entry,
    is_negative_definite,
    log_class,
    make_config,
    mmp_contract_disjoint,
    mmp_contract_log,
    pairing,
    pushforward,
    relative_canonical,
    sum_divisor,
    total_transform,
    validate,
    volume,
    zariski_decompose,
    zariski_oracle,
)
from logsurf import birational
from logsurf.birational import MAX_SCRIPT_STEPS
from logsurf.formats import (
    history_from_json,
    history_to_json,
    script_from_json,
    script_to_json,
    step_from_json,
)
from logsurf.lattice import pairings_with_curves


def test_blow_up_plane_line():
    cfg = make_config([("L", 1, 0)])
    out = blow_up(cfg, BlowupStep((("L", 1),), "E"))
    assert out.self_int("L") == 0
    assert out.record("L").kdeg == -2
    assert out.entry("L", "E") == 1
    assert out.self_int("E") == -1 and out.record("E").kdeg == -1
    assert validate(out) == []


def test_blow_up_cusp_point():
    cfg = make_config([("C", 0, 1)])
    out = blow_up(cfg, BlowupStep((("C", 2),), "E"))
    assert out.self_int("C") == -4
    assert out.record("C").pa == 0 and out.record("C").kdeg == 2
    assert out.entry("C", "E") == 2
    assert validate(out) == []


def test_blow_up_triple_point():
    cfg = make_config(
        [("C", 9, 1), ("L1", 1, 0), ("L2", 1, 0)],
        [("C", "L1", 3), ("C", "L2", 3), ("L1", "L2", 1)],
    )
    out = blow_up(cfg, BlowupStep((("C", 1), ("L1", 1), ("L2", 1)), "E"))
    assert out.entry("C", "L1") == 2
    assert out.entry("C", "L2") == 2
    assert out.entry("L1", "L2") == 0
    assert all(out.entry(n, "E") == 1 for n in ("C", "L1", "L2"))


def test_blow_up_budget_errors():
    cfg = make_config([("C", 0, 1), ("D", -2, 0)], [("C", "D", 1)])
    with pytest.raises(LatticeError) as err:
        blow_up(cfg, BlowupStep((("C", 3),), "E"))
    assert err.value.code == "pa-negative"
    with pytest.raises(LatticeError) as err:
        blow_up(cfg, BlowupStep((("C", 2), ("D", 1)), "E"))
    assert err.value.code == "intersection-negative"


def test_contract_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        cfg = random_config(rng)
        hist = random_history(rng, cfg, max_steps=1)
        if not hist.steps:
            continue
        back = contract_minus_one(hist.top, hist.steps[0].exceptional_name)
        assert back == cfg


def test_contract_cusp_inverse():
    cfg = make_config([("C", -4, 0), ("G", -1, 0)], [("C", "G", 2)])
    out = contract_minus_one(cfg, "G")
    assert out.self_int("C") == 0
    assert out.record("C").pa == 1


def test_contract_requires_minus_one():
    cfg = make_config([("C", -2, 0)])
    with pytest.raises(LatticeError) as err:
        contract_minus_one(cfg, "C")
    assert err.value.code == "not-minus-one-curve"


def test_total_transform_line():
    cfg = make_config([("L", 1, 0)])
    hist = apply_script(cfg, [BlowupStep((("L", 1),), "E")])
    assert total_transform(hist, QDivisor({"L": 1})) == QDivisor({"L": 1, "E": 1})
    # the strict transform of L is L: the total transform minus its exceptional part
    assert total_transform(hist, QDivisor({"L": 1})) - QDivisor({"E": 1}) == QDivisor({"L": 1})


def test_total_transform_cusp_square():
    cfg = make_config([("C", 0, 1)])
    hist = apply_script(cfg, [BlowupStep((("C", 2),), "E")])
    up = total_transform(hist, QDivisor({"C": 1}))
    assert up == QDivisor({"C": 1, "E": 2})
    assert pairing(hist.top, up, up) == 0


def test_pushforward_section_property():
    rng = random.Random(22)
    for _ in range(100):
        cfg = random_config(rng)
        hist = random_history(rng, cfg)
        d = random_effective_divisor(rng, cfg)
        assert pushforward(hist, total_transform(hist, d)) == d
    hist = apply_script(
        make_config([("L", 1, 0)]), [BlowupStep((("L", 1),), "E")]
    )
    assert pushforward(hist, QDivisor({"E": 5})) == QDivisor.zero()
    # dropping E/2 leaves 4L/2 = 2L, reduced
    assert pushforward(hist, QDivisor({"L": 2, "E": Q(1, 2)})) == QDivisor({"L": 2})
    # a name the top lacks: the first one in D's order is named
    for coeffs, name in (({"E": 1, "Y": 1, "X": 2}, "Y"), ({"X": 1, "L": 1, "Y": 1}, "X")):
        assert _outcome(pushforward, hist, QDivisor(coeffs)) == (
            "unknown-curve", f"unknown-curve: {name}"
        )


def test_boundary_adjustment_three_cases():
    cfg = make_config([("C", 0, 1), ("D", -2, 0)], [("C", "D", 1)])
    # smooth boundary point: crepant
    hist = apply_script(cfg, [BlowupStep((("C", 1),), "E")])
    assert boundary_adjustment(hist, {"C"}) == QDivisor.zero()
    # point away from the boundary: discrepancy one
    assert boundary_adjustment(hist, set()) == QDivisor({"E": 1})
    # boundary node absorbed into the boundary: crepant again
    hist2 = apply_script(
        cfg, [BlowupStep((("C", 1), ("D", 1)), "E", joins_boundary=True)]
    )
    assert boundary_adjustment(hist2, {"C", "D"}) == QDivisor.zero()


def test_mmp_disjoint_keeps_meeting_curve():
    cfg = make_config([("G", -1, 0), ("M", -2, 0)], [("G", "M", 1)])
    out, contracted = mmp_contract_disjoint(cfg, {"M"})
    assert contracted == [] and out == cfg


def test_mmp_disjoint_cascade():
    cfg = make_config(
        [("G1", -1, 0), ("G2", -2, 0), ("M", 0, 1)], [("G1", "G2", 1)]
    )
    out, contracted = mmp_contract_disjoint(cfg, {"M"})
    # G2 becomes a (-1)-curve after G1 goes, and then goes itself
    assert contracted == ["G1", "G2"]
    assert out.names == ("M",)


def test_mmp_disjoint_never_contracts_marked_minus_one_curve():
    cfg = make_config([("G", -1, 0)])
    assert mmp_contract_disjoint(cfg, {"G"}) == (cfg, [])
    # G comes first in name order and meets no other marked curve, yet stays;
    # the unmarked H and K go in name order
    cfg = make_config([("K", -1, 0), ("G", -1, 0), ("H", -1, 0), ("M", 0, 1)])
    out, contracted = mmp_contract_disjoint(cfg, {"G", "M"})
    assert contracted == ["H", "K"]
    assert out.names == ("G", "M")


def test_mmp_log_no_op_when_nef():
    cfg = make_config([("G", -1, 0), ("M", 0, 1)], [("G", "M", 1)])
    cls = QDivisor({"M": 1, "G": 1})
    out, cls2, contracted = mmp_contract_log(cfg, cls)
    assert contracted == [] and out == cfg and cls2 == cls


def test_mmp_log_single_contraction():
    cfg = make_config([("G", -1, 0), ("M", 0, 1)], [("G", "M", 1)])
    cls = QDivisor({"G": 1})  # pairs -1 with G
    out, cls2, contracted = mmp_contract_log(cfg, cls)
    assert contracted == ["G"]
    assert out.names == ("M",) and cls2 == QDivisor.zero()


def test_loops_contract_repeated_names_by_key():
    """A `CurveConfig` keeps repeated names (so `validate` can report them).
    Two (-1)-curves named E are contracted by the key each loop tested, in
    (name, key) order, and the name leaves `_keys` only with its last key."""
    recs = (CurveRecord("C", 0, -2), CurveRecord("E", 0, -1), CurveRecord("E", 0, -1))
    cfg = CurveConfig(recs, ((0, 0, 0), (0, -1, 0), (0, 0, -1)))
    down, contracted = mmp_contract_disjoint(cfg, ["C"])
    assert contracted == ["E", "E"]
    assert down == CurveConfig(recs[:1], ((0,),)) and down._keys == {"C": 0}
    # the two meet, so only the first in (name, key) order goes
    cfg = CurveConfig(recs, ((0, 0, 0), (0, -1, 1), (0, 1, -1)))
    down, contracted = mmp_contract_disjoint(cfg, ["C"])
    assert contracted == ["E"]
    assert list(down._records) == [0, 2] and down._keys == {"C": 0, "E": 2}
    assert down.curves == (recs[0], CurveRecord("E", 0, -2)) and down.diag == (0, 0)
    # -C meets both in -1: the log loop takes both, the first one first
    cfg = CurveConfig(recs, ((0, 1, 1), (1, -1, 0), (1, 0, -1)))
    down, cls, contracted = mmp_contract_log(cfg, QDivisor({"C": -1}))
    assert contracted == ["E", "E"] and cls == QDivisor({"C": -1})
    assert down == CurveConfig((CurveRecord("C", 0, -4),), ((2,),)) and down._keys == {"C": 0}


# -- property batches ---------------------------------------------------------

def test_adjunction_and_projection_formula():
    rng = random.Random(23)
    for _ in range(200):
        cfg = random_config(rng)
        hist = random_history(rng, cfg)
        assert validate(hist.top) == []
        d1 = random_effective_divisor(rng, cfg)
        d2 = random_effective_divisor(rng, cfg)
        assert pairing(hist.top, total_transform(hist, d1), total_transform(hist, d2)) == pairing(
            cfg, d1, d2
        )


def test_volume_under_pullback_and_pushforward():
    rng = random.Random(24)
    pulled = pushed = 0
    for _ in range(200):
        cfg = random_config(rng)
        hist = random_history(rng, cfg)
        d = random_effective_divisor(rng, cfg)
        try:
            base_vol = volume(cfg, d)
        except LatticeError:
            continue
        assert volume(hist.top, total_transform(hist, d)) == base_vol
        pulled += 1
        d_top = random_effective_divisor(rng, hist.top)
        try:
            top_vol = volume(hist.top, d_top)
            down_vol = volume(cfg, pushforward(hist, d_top))
        except LatticeError:
            continue
        assert top_vol <= down_vol
        pushed += 1
    assert pulled > 150 and pushed > 150


def _max_base_multiplicity(hist, base_names):
    best = 1
    for step in hist.steps:
        best = max(best, sum(m for name, m in step.branches if name in base_names))
    return best


def test_pull_back_inequality_on_boundary_histories():
    rng = random.Random(25)
    for _ in range(150):
        cfg = random_config(rng)
        names = sorted(rng.sample(list(cfg.names), rng.randint(1, cfg.n)))
        hist = random_history(rng, cfg, pool=names)
        e_base = sum_divisor(cfg, names)
        m = _max_base_multiplicity(hist, set(names))
        lhs = e_base + boundary_adjustment(hist, set())
        rhs = Q(1, m) * total_transform(hist, e_base)
        assert divisor_geq(lhs, rhs)


def test_pull_back_inequality_on_cusp_history():
    cfg = make_config([("C", 0, 1), ("T", -2, 0)], [("C", "T", 1)])
    from logsurf import resolution_script

    hist = apply_script(cfg, resolution_script("II"))
    e_base = sum_divisor(cfg)
    lhs = e_base + boundary_adjustment(hist, set())
    rhs = Q(1, 2) * total_transform(hist, e_base)
    assert divisor_geq(lhs, rhs)


def test_script_and_history_json_round_trip():
    rng = random.Random(26)
    for _ in range(40):
        cfg = random_config(rng)
        hist = random_history(rng, cfg)
        data = script_to_json(hist.steps)
        assert tuple(script_from_json(data)) == hist.steps
        again = history_from_json(history_to_json(hist))
        assert again == hist
    assert script_from_json(tuple(data)) == script_from_json(data)  # any sequence of steps


@pytest.mark.parametrize("read, data, message", [
    (step_from_json, {"point": [{"curve": "C"}], "name": "E"}, 'step.point[0] has no "mult"'),
    (step_from_json, {"point": [{"curve": "C", "mult": 1}]}, 'step has no "name"'),
    (step_from_json, ["point"], "step must be dict, got ['point']"),
    (script_from_json, "steps", "steps must be list, got 'steps'"),
    (script_from_json, 3, "steps must be list, got 3"),
    (history_from_json, {"base": {"curves": []}}, 'history has no "steps"'),
    (history_from_json, {"base": [], "steps": []}, "base must be dict, got []"),
    (history_from_json, {"base": {"curves": [{"name": "C", "self": 0, "pa": 1}]},
                         "steps": [{"point": [{"curve": "C"}], "name": "E"}]},
     'steps[0].point[0] has no "mult"'),
])
def test_script_and_history_json_name_an_entry_of_the_wrong_shape(read, data, message):
    with pytest.raises(LatticeError) as err:
        read(data)
    assert (err.value.code, err.value.message) == ("bad-type", message)


def test_projection_formula_on_cubic_history():
    e = entry("25/84")
    hist = apply_script(e.base_config, e.script)
    cubic = QDivisor({"C": 1})
    up = total_transform(hist, cubic)
    assert pairing(hist.top, up, up) == 9


def test_pushforward_of_minimal_model_positive_part():
    from logsurf import BlowupStep, kodaira_config, zariski_decompose

    base = kodaira_config("II*")
    hist = apply_script(base, [BlowupStep((("A6", 1), ("A5", 1)), "G")])
    cls = sum_divisor(base) + boundary_adjustment(hist, set())
    res = zariski_decompose(hist.top, cls)
    down = pushforward(hist, res.positive)
    assert down.support <= set(base.names)
    assert down.get("A6") == Q(6, 11) and down.get("A5") == Q(6, 13)


# -- one transport formula: references for the former constructions -----------

def _iterative_boundary_adjustment(history, boundary, use_joins=True):
    """The former per-step recursion: pull R back through each blow-up and
    add (1 - m_B + [joins]) times its exceptional, B the running boundary.
    With use_joins=False every joins flag is read as cleared."""
    current = set(boundary)
    coeffs = {}
    for step in history.steps:
        e = sum((m * coeffs.get(name, Q(0)) for name, m in step.branches), Q(0))
        joins = use_joins and step.joins_boundary
        a = 1 - sum(m for name, m in step.branches if name in current) + joins
        coeffs[step.exceptional_name] = e + a
        if joins:
            current.add(step.exceptional_name)
    return QDivisor(coeffs)


def _former_catalog_class(history):
    """R(empty boundary) plus the reduced base curve carried up by name."""
    return _iterative_boundary_adjustment(history, ()) + sum_divisor(history.base)


def _assert_transport_identities(history, boundary):
    assert boundary_adjustment(history, boundary) == _iterative_boundary_adjustment(
        history, boundary
    )
    rel = relative_canonical(history)
    assert rel == _iterative_boundary_adjustment(history, (), use_joins=False)
    # adjunction: (K_top - h*K_base).C = K_top.C - K_base.(h_* C)
    for curve in history.top.curves:
        below = history.base.record(curve.name).kdeg if curve.name in history.base.names else 0
        assert pairing(history.top, rel, QDivisor({curve.name: 1})) == curve.kdeg - below
    e_base = sum_divisor(history.base, boundary)
    assert log_class(history, e_base, boundary) == total_transform(
        history, e_base
    ) + _iterative_boundary_adjustment(history, boundary)


def test_transport_identities_on_seeded_scripts_with_joins():
    rng = random.Random(27)
    joined = 0
    for _ in range(150):
        cfg = random_config(rng)
        hist = random_history(rng, cfg, max_steps=6)
        steps = [
            BlowupStep(s.branches, s.exceptional_name, rng.random() < 0.5) for s in hist.steps
        ]
        hist = apply_script(cfg, steps)
        joined += sum(s.joins_boundary for s in steps)
        names = rng.sample(list(cfg.names), rng.randint(0, cfg.n))
        _assert_transport_identities(hist, names)
        _assert_transport_identities(hist, cfg.names)
    assert joined > 100


def test_transport_identities_on_every_catalog_entry():
    from logsurf import kodaira_config

    histories = [apply_script(entry(i).base_config, entry(i).script) for i in catalog_ids()]
    route_a = BlowupStep((("A6", 1), ("A5", 1)), "G")
    histories.append(apply_script(kodaira_config("II*"), [route_a]))
    assert len(histories) == 17 and any(s.joins_boundary for h in histories for s in h.steps)
    for hist in histories:
        base = hist.base
        _assert_transport_identities(hist, base.names)
        _assert_transport_identities(hist, ())
        assert log_class(hist, sum_divisor(base), base.names) == _former_catalog_class(hist)


# -- write path: the former dense blow-up and contraction as references -------


def _dense_validate_step(config, step):
    names = [name for name, _ in step.branches]
    if len(set(names)) != len(names):
        raise LatticeError("bad-step", "branch names must be distinct")
    for name, m in step.branches:
        config.index(name)
        if m < 1:
            raise LatticeError("bad-step", f"multiplicity {m} on {name}")
    if not step.exceptional_name:
        raise LatticeError("bad-step", "empty exceptional name")
    if step.exceptional_name in config.names:
        raise LatticeError("bad-step", f"name {step.exceptional_name} already tracked")


def _dense_blow_up(config, step):
    """The former blow-up: every record and every Gram cell rebuilt."""
    _dense_validate_step(config, step)
    n = config.n
    mult = {name: m for name, m in step.branches}
    records = []
    for c in config.curves:
        m = mult.get(c.name, 0)
        drop = m * (m - 1) // 2
        if c.pa - drop < 0:
            raise LatticeError("pa-negative", f"{c.name}: pa {c.pa} cannot absorb m={m}")
        records.append(CurveRecord(c.name, c.pa - drop, c.kdeg + m))
    gram = [list(row) + [0] for row in config.gram]
    gram.append([0] * (n + 1))
    for i, ci in enumerate(config.curves):
        mi = mult.get(ci.name, 0)
        if not mi:
            continue
        gram[i][i] -= mi * mi
        gram[i][n] = gram[n][i] = mi
        for j in range(i + 1, n):
            mj = mult.get(config.curves[j].name, 0)
            if mj:
                gram[i][j] -= mi * mj
                gram[j][i] = gram[i][j]
                if gram[i][j] < 0:
                    raise LatticeError(
                        "intersection-negative",
                        f"{ci.name}.{config.curves[j].name} drops below 0",
                    )
    gram[n][n] = -1
    records.append(CurveRecord(step.exceptional_name, 0, -1))
    return CurveConfig(
        tuple(records), tuple(tuple(row) for row in gram), config.assume_tracked_complete
    )


def _dense_contract_minus_one(config, name):
    """The former contraction: g_i * g_j added to all n^2 cells."""
    g = config.index(name)
    rec = config.curves[g]
    if config.gram[g][g] != -1 or rec.pa != 0 or rec.kdeg != -1:
        raise LatticeError("not-minus-one-curve", name)
    keep = [i for i in range(config.n) if i != g]
    records = []
    for i in keep:
        c = config.curves[i]
        m = config.gram[i][g]
        records.append(CurveRecord(c.name, c.pa + m * (m - 1) // 2, c.kdeg - m))
    gram = []
    for i in keep:
        row = []
        for j in keep:
            row.append(config.gram[i][j] + config.gram[i][g] * config.gram[j][g])
        gram.append(tuple(row))
    return CurveConfig(tuple(records), tuple(gram), config.assume_tracked_complete)


def _outcome(fn, *args):
    """The result, or (code, message) of the LatticeError raised."""
    try:
        return fn(*args)
    except LatticeError as exc:
        return exc.code, str(exc)


# M is marked and never blown up; the genus curves have self <= 4 pa - 2 and
# the rational ones start at <= -2, so no base curve is ever a (-1)-curve and
# the disjoint contraction loop undoes any script.
_WRITE_BASE = make_config(
    [("A", 1, 4), ("B", 3, 5), ("F", 0, 3), ("R1", -2, 0), ("R2", -3, 0), ("R3", -2, 0),
     ("M", 2, 1)],
    [("A", "B", 2), ("A", "R1", 1), ("B", "F", 3), ("B", "R2", 1), ("F", "R3", 1),
     ("R2", "R3", 1), ("R1", "F", 1), ("M", "A", 1)],
)


def _write_path_script(rng, length):
    """`length` valid steps over _WRITE_BASE, replayed with the reference:
    nodes, cusps, multiplicity-2 points met by a second branch, and
    chains of infinitely-near points; no centre lies on M."""
    cfg, steps = _WRITE_BASE, []

    def add(*branches):
        step = BlowupStep(branches, f"X{len(steps) + 1}", rng.random() < 0.3)
        steps.append(step)
        return _dense_blow_up(cfg, step)

    while len(steps) < length:
        free = [c.name for c in cfg.curves if c.name != "M"]
        pairs = [(a, b) for a in free for b in free if a < b and cfg.entry(a, b) >= 1]
        genus = [a for a in free if cfg.record(a).pa >= 1]
        kind = rng.random()
        if kind < 0.3:
            foot = rng.choice(free)
            cfg = add((foot, 1))
            for _ in range(rng.randint(1, 5)):
                prev = steps[-1].exceptional_name
                if len(steps) >= length:
                    break
                if rng.random() < 0.5 and cfg.entry(foot, prev) >= 1:
                    cfg = add((foot, 1), (prev, 1))
                else:
                    cfg = add((prev, 1))
        elif kind < 0.7:
            a, b = rng.choice(pairs)
            cfg = add((a, 1), (b, 1))
        elif kind < 0.85 and genus:
            cfg = add((rng.choice(genus), 2))
        else:
            double = [(a, b) for a in genus for b in free if b != a and cfg.entry(a, b) >= 2]
            if double:
                a, b = rng.choice(double)
                cfg = add((a, 2), (b, 1))
    return steps, cfg


def test_write_path_matches_dense_reference_on_long_scripts():
    rng = random.Random(41)
    shapes, infinitely_near = set(), 0
    for length in (200, 120, 60, 30, 12, 5, 1):
        steps, ref_top = _write_path_script(rng, length)
        assert len(steps) == length
        shapes |= {tuple(sorted(m for _, m in s.branches)) for s in steps}
        infinitely_near += sum(any(c.startswith("X") for c, _ in s.branches) for s in steps)
        cfg = ref = _WRITE_BASE
        for step in steps:
            cfg, ref = blow_up(cfg, step), _dense_blow_up(ref, step)
            assert cfg == ref
        top = apply_script(_WRITE_BASE, steps).top
        assert top == ref_top and validate(top) == []

        down, contracted = mmp_contract_disjoint(top, ["M"])
        # the loop's contractions, one by one, through the public single
        # step and the dense reference
        cfg = ref = top
        for name in contracted:
            cfg, ref = contract_minus_one(cfg, name), _dense_contract_minus_one(ref, name)
            assert cfg == ref
        assert cfg == down
        assert down == _WRITE_BASE
        assert sorted(contracted) == sorted(s.exceptional_name for s in steps)
    assert shapes >= {(1,), (1, 1), (2,), (1, 2)}
    assert infinitely_near > 100, infinitely_near


def test_write_path_errors_match_dense_reference():
    rng = random.Random(43)
    raised = {}
    for _ in range(1500):
        cfg = random_config(rng)
        hist = random_history(rng, cfg, max_steps=3)
        top = hist.top
        names = rng.sample(list(top.names), rng.randint(1, min(3, top.n)))
        step = BlowupStep(tuple((nm, rng.choice([1, 1, 2, 3])) for nm in names), "Z")
        got = _outcome(blow_up, top, step)
        assert got == _outcome(_dense_blow_up, top, step)
        name = rng.choice(top.names)
        got_contract = _outcome(contract_minus_one, top, name)
        assert got_contract == _outcome(_dense_contract_minus_one, top, name)
        for out in (got, got_contract):
            if isinstance(out, tuple):
                raised[out[0]] = raised.get(out[0], 0) + 1
    assert set(raised) == {"pa-negative", "intersection-negative", "not-minus-one-curve"}
    assert min(raised.values()) >= 50, raised


def _step_fault(code, message):
    """The check a refused step failed: its code, or for `bad-step` the
    message with the names and numbers left out."""
    if code != "bad-step":
        return code
    for kind in ("distinct", "multiplicity", "empty", "already tracked"):
        if kind in message:
            return kind
    raise AssertionError(message)


def test_malformed_steps_match_dense_reference():
    """Steps with repeated, unknown or tracked names, multiplicities below
    1 and empty exceptional names, alone and combined, are refused with
    the code and message of the dense reference's checks, in their order:
    repeated names, then per branch an unknown name before a multiplicity
    below 1, then the exceptional name."""
    rng = random.Random(45)
    faults, combined = {}, 0
    for _ in range(1500):
        top = random_history(rng, random_config(rng), max_steps=3).top
        pool = [*top.names, "Nope", "Q9"]
        branches = tuple(
            (rng.choice(pool), rng.choice([-1, 0, 1, 1, 2])) for _ in range(rng.randint(0, 3))
        )
        exceptional = rng.choice(["Z", "Z", "", rng.choice(top.names)])
        step = BlowupStep(branches, exceptional)
        got = _outcome(blow_up, top, step)
        assert got == _outcome(_dense_blow_up, top, step), step
        names = [name for name, _ in branches]
        broken = (
            len(set(names)) != len(names),
            any(name not in top for name in names),
            any(m < 1 for _, m in branches),
            exceptional not in ("Z",),
        )
        combined += sum(broken) > 1
        if isinstance(got, tuple):
            fault = _step_fault(*got)
            faults[fault] = faults.get(fault, 0) + 1
    reached = ("distinct", "unknown-curve", "multiplicity", "empty", "already tracked")
    assert min(faults.get(fault, 0) for fault in reached) >= 50, faults
    assert combined >= 300, combined


@pytest.mark.parametrize(
    "branches, want",
    [
        # the offending pair is named in configuration order, not script order
        ((("C", 1), ("A", 1)), "intersection-negative: A.C drops below 0"),
        ((("C", 1), ("B", 1), ("A", 1)), "intersection-negative: A.C drops below 0"),
        # every genus check precedes every intersection check
        ((("C", 1), ("A", 2)), "pa-negative: A: pa 0 cannot absorb m=2"),
        ((("C", 3), ("A", 2)), "pa-negative: A: pa 0 cannot absorb m=2"),
        ((("C", 3), ("B", 1)), "pa-negative: C: pa 1 cannot absorb m=3"),
    ],
)
def test_write_path_error_precedence(branches, want):
    cfg = make_config([("A", -1, 0), ("B", -2, 0), ("C", 0, 1)], [("A", "B", 1)])
    step = BlowupStep(branches, "E")
    assert _outcome(blow_up, cfg, step) == _outcome(_dense_blow_up, cfg, step)
    with pytest.raises(LatticeError) as err:
        blow_up(cfg, step)
    assert str(err.value) == want
    for name in ("B", "C"):
        want = ("not-minus-one-curve", f"not-minus-one-curve: {name}")
        assert _outcome(contract_minus_one, cfg, name) == want


def _assert_dead_keys_are_skipped(model):
    """`model` keeps a dead key in some row: decompositions, ND checks and
    pairings on it equal those on the same matrix built afresh."""
    assert any(j not in model._rows for row in model._rows.values() for j in row)
    fresh = CurveConfig(model.curves, model.gram)
    names = model.names
    for mask in range(1, 1 << len(names)):
        subset = [name for i, name in enumerate(names) if mask >> i & 1]
        assert is_negative_definite(model, subset) == is_negative_definite(fresh, subset)
        for coeff in (1, Q(1, 2), 3):
            d = QDivisor({name: coeff * (i + 1) for i, name in enumerate(subset)})
            assert pairings_with_curves(model, d) == pairings_with_curves(fresh, d)
            assert _outcome(zariski_decompose, model, d) == _outcome(zariski_decompose, fresh, d)


def test_contraction_on_an_asymmetric_matrix_drops_the_whole_column():
    """A row may list G although G's row does not: contracting G still
    drops G's column from every row, and no later curve inherits it.  The
    row keeps G's dead key, which every computation skips."""
    recs = (CurveRecord("A", 0, 0), CurveRecord("B", 0, 0), CurveRecord("G", 0, -1))
    cfg = CurveConfig(recs, ((-2, 0, 1), (0, -2, 1), (0, 1, -1)))
    down = contract_minus_one(cfg, "G")
    assert down.gram == ((-2, 0), (0, -1))
    assert down.curves == (CurveRecord("A", 0, 0), CurveRecord("B", 0, -1))
    assert down == CurveConfig(down.curves, ((-2, 0), (0, -1)))
    _assert_dead_keys_are_skipped(down)
    up = blow_up(down, BlowupStep((("B", 1),), "E"))
    assert up.gram == ((-2, 0, 0), (0, -2, 1), (0, 1, -1))
    _assert_dead_keys_are_skipped(up)
    # and the other way round: G's row outlives X, which did not list G
    recs = (CurveRecord("A", 0, 0), CurveRecord("G", 0, -1), CurveRecord("X", 0, -1))
    cfg = CurveConfig(recs, ((-2, 1, 0), (1, -1, 1), (0, 0, -1)))
    down = contract_minus_one(cfg, "X")
    assert down.gram == ((-2, 1), (1, -1))
    _assert_dead_keys_are_skipped(down)
    assert contract_minus_one(down, "G") == CurveConfig((CurveRecord("A", 0, -1),), ((-1,),))
    # a negative dead entry: A would meet the dead G negatively
    recs = (CurveRecord("A", 0, 0), CurveRecord("B", 0, 0), CurveRecord("G", 0, -1))
    cfg = CurveConfig(recs, ((-2, 1, -1), (1, -3, 0), (0, 0, -1)))
    down = contract_minus_one(cfg, "G")
    assert down.gram == ((-2, 1), (1, -3))
    _assert_dead_keys_are_skipped(down)


def test_write_path_matches_dense_reference_on_raw_matrices():
    """Symmetric matrices off the conventions (negative entries, entries
    that cancel to zero) go through the same write path."""
    from test_zariski_kernel import random_symmetric

    rng = random.Random(44)
    contracted = 0
    for _ in range(400):
        gram = random_symmetric(rng, rng.randint(2, 6), diag=(-3, 1))
        n = len(gram)
        g = rng.randrange(n)
        gram[g][g] = -1
        recs = tuple(
            CurveRecord(f"C{i}", 0, -1) if i == g else CurveRecord(f"C{i}", 1, -gram[i][i])
            for i in range(n)
        )
        cfg = CurveConfig(recs, tuple(tuple(row) for row in gram))
        down = contract_minus_one(cfg, f"C{g}")
        want = _dense_contract_minus_one(cfg, f"C{g}")
        assert down == want and down.gram == want.gram
        contracted += any(m < 0 for row in gram for m in row[:g] + row[g + 1:])
        names = rng.sample([c.name for c in down.curves], min(2, down.n))
        step = BlowupStep(tuple((name, 1) for name in names), "E")
        assert _outcome(blow_up, down, step) == _outcome(_dense_blow_up, down, step)
    assert contracted > 100, contracted


def test_script_length_is_capped_before_any_step():
    base = make_config([("C", 0, 1)])
    for run in (lambda steps: apply_script(base, steps), script_from_json):
        with pytest.raises(LatticeError) as err:
            run(Oversize(MAX_SCRIPT_STEPS + 1))
        assert err.value.code == "too-large"
        with pytest.raises(AssertionError):
            run(Oversize(MAX_SCRIPT_STEPS))


# -- write path: the closed form against the general pass ---------------------


def _draft_state(model):
    """All a blow-up writes: rows with their item order, records, `_keys`,
    `_next` and the cached premise (None when not computed)."""
    return (
        [(k, list(row.items())) for k, row in model._rows.items()],
        list(model._records.items()),
        list(model._keys.items()),
        model._next,
        vars(model).get("symmetric_nonnegative"),
    )


def _reference_blow_up_general(draft, branches, exceptional):
    """The former general pass of `_blow_up`, kept as the reference: the
    current pass and the closed forms must write what it writes, row item
    by row item, and refuse what it refuses, with the same code and
    message."""
    if len(branches) > 1 and len(dict(branches)) != len(branches):
        raise LatticeError("bad-step", "branch names must be distinct")
    rows, records, keys = draft._rows, draft._records, draft._keys
    touched = []
    for name, m in branches:
        k = keys.get(name)
        if k is None:
            raise LatticeError("unknown-curve", name)
        if m < 1:
            raise LatticeError("bad-step", f"multiplicity {m} on {name}")
        touched.append((k, m))
    if not exceptional:
        raise LatticeError("bad-step", "empty exceptional name")
    if exceptional in keys:
        raise LatticeError("bad-step", f"name {exceptional} already tracked")
    touched.sort()
    for i, m in touched:
        name, pa, _ = records[i]
        if pa < m * (m - 1) // 2:
            raise LatticeError("pa-negative", f"{name}: pa {pa} cannot absorb m={m}")
    for k, (i, mi) in enumerate(touched):
        for j, mj in touched[k + 1:]:
            if rows[i].get(j, 0) < mi * mj:
                pair = f"{records[i][0]}.{records[j][0]}"
                raise LatticeError("intersection-negative", f"{pair} drops below 0")
    g = draft._next
    for i, mi in touched:
        name, pa, kdeg = records[i]
        records[i] = (name, pa - mi * (mi - 1) // 2, kdeg + mi)
        row = rows[i].copy()
        for j, mj in touched:
            v = row.get(j, 0) - mi * mj
            if v:
                row[j] = v
            else:
                del row[j]
        row[g] = mi
        rows[i] = row
    rows[g] = dict([*touched, (g, -1)])
    records[g] = (exceptional, 0, -1)
    keys[exceptional] = g
    draft._next = g + 1


def _reference_pass(draft, step):
    _reference_blow_up_general(draft, step.branches, step.exceptional_name)


def _general_pass(draft, step):
    birational._blow_up_general(draft, step.branches, step.exceptional_name)


def _kernel_outcome(kernel, model, step):
    """The draft's state after `kernel` ran on a fresh draft of `model`, and
    the (code, message) it raised or None; a refused step writes nothing,
    and neither path mutates a row or record shared with `model`."""
    before = _draft_state(model)
    draft = birational._copy(model)
    try:
        kernel(draft, step)
        raised = None
    except LatticeError as exc:
        raised = exc.code, str(exc)
        assert _draft_state(draft) == before, step
    assert _draft_state(model) == before, step
    return _draft_state(draft), raised


def _raw_model(rng, most=5, density=0.6):
    """A model of 1 to `most` curves built straight from its dicts, off
    every convention: records as plain (name, pa, kdeg) triples, rows in
    shuffled item order, with missing, zero-sum, negative and asymmetric
    entries, dead keys (listed in rows, with no record), an absent
    diagonal, and sometimes two curves under one name (the name keeps its
    last key, as after a contraction)."""
    live = sorted(rng.sample(range(most + 4), rng.randint(1, most)))
    listed = live + [k for k in range(most + 4) if k not in live and rng.random() < 0.3]
    cell = {}
    for i in listed:
        for j in listed:
            if i <= j and rng.random() < density:
                cell[i, j] = cell[j, i] = rng.choice([-1, 1, 1, 1, 2, 2, 3, 4])
                if i < j and rng.random() < 0.5:  # asymmetric: j's side differs or is absent
                    cell[j, i] = rng.choice([0, -1, cell[i, j] + 1])
    rows = {}
    for i in live:
        items = [(j, cell[i, j]) for j in listed if cell.get((i, j))]
        rng.shuffle(items)
        rows[i] = dict(items)
    names = [f"C{k}" for k in live]
    if len(live) > 1 and rng.random() < 0.2:
        names[rng.randrange(1, len(live))] = names[0]
    records = {
        k: (name, rng.randint(0, 2), rng.randint(-2, 2)) for k, name in zip(live, names)
    }
    keys = {name: k for k, name in zip(live, names)}
    return CurveConfig._from_rows(records, rows, keys, listed[-1] + 1 + rng.randint(0, 2), False)


def _small_step(rng, model):
    """A step of one or two branches, now and then none or three, over the
    model's names and an unknown one, mostly distinct, with multiplicities
    from -1 to 3 and an exceptional name that is fresh, empty or already
    tracked."""
    pool = [*model.names, "Nope"]
    size = rng.choice([1, 1, 1, 2, 2, 2, 2, 2, 0, 3])
    if rng.random() < 0.8 and size <= len(pool):
        names = rng.sample(pool, size)
    else:
        names = [rng.choice(pool) for _ in range(size)]
    mults = [1] * 8 + [2, 2, 2, 3, 0, -1]
    branches = tuple((name, rng.choice(mults)) for name in names)
    return BlowupStep(branches, rng.choice(["E"] * 10 + ["", rng.choice(model.names)]))


def test_closed_form_blow_up_matches_the_general_pass():
    """Every step through `_blow_up` (the closed form for one or two
    branches), through the general pass alone and through the reference
    pass gives the same rows item by item, records, `_keys`, `_next`,
    cached premise, and error code and message; a refused step leaves the
    draft as it was.  Steps are drawn on raw models (asymmetric rows, dead
    keys, absent diagonals, repeated curve names) and on valid replayed
    models."""
    rng = random.Random(46)
    seen = dict.fromkeys(
        ["written", "bad-step", "unknown-curve", "pa-negative", "intersection-negative",
         "reversed pair refused", "m=2 at the pa limit", "dead key in a written row",
         "asymmetric pair written", "entry appended to a row", "premise cached"], 0)
    for trial in range(8000):
        if trial % 4:
            model = _raw_model(rng)
        else:
            model = random_history(rng, random_config(rng), max_steps=3).top
        if rng.random() < 0.5:  # computed and cached, so each draft carries it
            assert model.symmetric_nonnegative in (True, False)
            seen["premise cached"] += 1
        step = _small_step(rng, model)
        got = _kernel_outcome(birational._blow_up, model, step)
        assert got == _kernel_outcome(_reference_pass, model, step), step
        assert got == _kernel_outcome(_general_pass, model, step), step
        _, raised = got
        keys = [model._keys[name] for name, _ in step.branches if name in model]
        if raised is not None:
            seen[raised[0]] += 1
            seen["reversed pair refused"] += (
                raised[0] == "intersection-negative" and len(keys) == 2 and keys[0] > keys[1]
            )
            continue
        if len(step.branches) > 2:
            continue
        seen["written"] += 1
        rows = model._rows
        seen["m=2 at the pa limit"] += any(
            m == 2 and pa == 1
            for (_, pa, _), (_, m) in zip([model._records[k] for k in keys], step.branches)
        )
        seen["dead key in a written row"] += any(j not in rows for k in keys for j in rows[k])
        if len(keys) == 2:
            i, j = keys
            seen["asymmetric pair written"] += rows[i].get(j) != rows[j].get(i)
        # an entry the row lacked is appended before the new key, in
        # configuration order: the order the closed form must keep
        seen["entry appended to a row"] += any(t not in rows[k] for k in keys for t in keys)
    assert min(seen.values()) >= 100, seen


def test_general_pass_matches_the_reference_on_wide_steps():
    """Steps of three to five distinct branches, the only steps the general
    pass writes in a replay, on dense raw models: the general pass and the
    reference pass give the same rows item by item, records, `_keys`,
    `_next`, cached premise, and error code and message."""
    rng = random.Random(47)
    seen = dict.fromkeys(
        ["written", "pa-negative", "intersection-negative", "dead key in a written row",
         "asymmetric pair written", "premise cached"], 0)
    for _ in range(3000):
        model = _raw_model(rng, most=7, density=0.95)
        names = sorted(set(model.names))
        if len(names) < 3:
            continue
        if rng.random() < 0.5:
            assert model.symmetric_nonnegative in (True, False)
            seen["premise cached"] += 1
        picked = rng.sample(names, rng.randint(3, min(5, len(names))))
        step = BlowupStep(tuple((name, rng.choice([1, 1, 1, 1, 2])) for name in picked), "E")
        got = _kernel_outcome(_general_pass, model, step)
        assert got == _kernel_outcome(_reference_pass, model, step), step
        _, raised = got
        if raised is not None:
            seen[raised[0]] += 1
            continue
        seen["written"] += 1
        rows, keys = model._rows, [model._keys[name] for name in picked]
        seen["dead key in a written row"] += any(j not in rows for k in keys for j in rows[k])
        seen["asymmetric pair written"] += any(
            rows[i].get(j) != rows[j].get(i) for i in keys for j in keys
        )
    assert min(seen.values()) >= 100, seen


# The two-curve tower bases (C's pa, C², -E², C's coefficient) of the bench's
# `scaling` workload (bench/gen.py), each with the class C + E and C.E = 1.
TOWER_BASES = ((2, 2, 2, 1), (1, 1, 2, 1), (3, 3, 2, 1), (3, 1, 2, 1))


def test_closed_form_tower_replays_match_the_general_pass(monkeypatch):
    """A tower is a ladder: every step after the first blows up C and the
    newest exceptional, the two-branch shape the closed form writes.  Its
    replay through `_blow_up` and through the general pass alone give the
    same top, rows item by item, records, `_keys` and `_next`, and the same
    transported class, for n = 1 to 60 on every bench base; so does its
    replay through the reference pass."""
    from logsurf import tower

    def replay(pa, s, e, dc, n):
        cfg = make_config([("C", s, pa), ("E", -e, 0)], [("C", "E", 1)])
        history, cls = tower(cfg, "C", "E", QDivisor({"C": dc, "E": 1}), Q(dc, e), n)
        return _draft_state(history.top), history.steps, cls

    closed = {(base, n): replay(*base, n) for base in TOWER_BASES for n in range(1, 61)}
    for general in (_reference_pass, _general_pass):
        monkeypatch.setattr(birational, "_blow_up", general)
        for (base, n), want in closed.items():
            state, steps, _ = want
            assert replay(*base, n) == want, (base, n, general)
            assert len(steps) == n and all(len(step.branches) == 2 for step in steps)
            assert state[3] == n + 2 and len(state[0]) == n + 2


def test_one_and_two_branch_steps_never_reach_the_general_pass(monkeypatch):
    """A structural check, not a timing one: replaying towers, every
    catalog script and both routes of `example_143` sends only the steps of
    three or more branches through the general pass."""
    from logsurf import example_143, tower

    general = []
    real = birational._blow_up_general

    def counted(draft, branches, exceptional):
        general.append(len(branches))
        return real(draft, branches, exceptional)

    monkeypatch.setattr(birational, "_blow_up_general", counted)
    wide = 0
    for entry_id in catalog_ids():
        item = entry(entry_id)
        apply_script(item.base_config, item.script)
        wide += sum(len(step.branches) > 2 for step in item.script)
    base = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    for n in (1, 2, 50):
        assert tower(base, "C", "E", QDivisor({"C": 1, "E": 1}), Q(1, 2), n)[0].top.n == n + 2
    assert example_143()["routes_agree"]
    assert wide > 0 and general == [3] * wide


# -- contraction kernel: the one pass against a kept reference ---------------


def _contract_general(
    draft: CurveConfig, g: int, minus_one: list[tuple[str, int]] | None = None
) -> dict[int, int]:
    """The general pass of `_contract`, for any column.

    The check runs before anything is written, and a changed row or
    record is replaced, never mutated.  Only the live keys of the column
    are touched, in the column's order; a dead key stays in the rows
    that list it, which every reader skips.  A cached
    `symmetric_nonnegative` that is True stays so (C.C' gains
    (C.E)(C'.E) > 0 in both directions); one that is False is cleared,
    since the contraction may remove what broke it.  A repeated name
    keeps its last key in `_keys`, so the name is dropped only with it.
    """
    rows, records, keys = draft._rows, draft._records, draft._keys
    name, pa, kdeg = records[g]
    column = rows[g]
    if column.get(g, 0) != -1 or pa != 0 or kdeg != -1:
        raise LatticeError("not-minus-one-curve", name)
    del rows[g], records[g]
    if keys.get(name) == g:
        del keys[name]
    if vars(draft).get("symmetric_nonnegative") is False:
        del draft.symmetric_nonnegative
    touched = [(i, m) for i, m in column.items() if i in rows]
    for i, mi in touched:
        row = rows[i].copy()
        row.pop(g, None)
        before = row.get(i, 0)
        for j, mj in touched:
            # mi·mj != 0, so the entry is 0 only where the row listed j
            v = row.get(j, 0) + mi * mj
            if v:
                row[j] = v
            else:
                del row[j]
        rows[i] = row
        _rewrite(records, i, mi, before, row.get(i, 0), minus_one)
    return column


def _rewrite(
    records: dict[int, tuple[str, int, int]], k: int, m: int, before: int, after: int,
    minus_one: list[tuple[str, int]] | None,
) -> None:
    """Write the record of the curve with key `k`, which met the contracted
    curve m times and whose diagonal entry went from `before` to `after`.
    In `minus_one` the curve joins the list if its new record and entry
    are a (-1)-curve's, and leaves it if the old ones were; never both,
    since the entry rose by m² > 0."""
    name, pa, kdeg = records[k]
    drop = m * (m - 1) // 2
    records[k] = (name, pa + drop, kdeg - m)
    if minus_one is not None:
        if kdeg == -1 and not pa and before == -1:
            minus_one.remove((name, k))
        elif kdeg == m - 1 and pa + drop == 0 and after == -1:
            insort(minus_one, (name, k))


def _minus_one_list(model):
    """The (name, key) pairs of the model's (-1)-curves, sorted: what a
    contraction loop holds."""
    rows = model._rows
    return sorted((name, k) for k, (name, pa, kdeg) in model._records.items()
                  if kdeg == -1 and pa == 0 and rows[k].get(k) == -1)


def _contraction_case(rng):
    """A raw model (`_raw_model`, up to seven curves) with a curve G to
    contract, its key and the loop's (-1) list without it.  G is mostly a
    (-1)-curve meeting up to five other curves, in shuffled order, once,
    twice, thrice or negatively, now and then a dead key too; each
    neighbour's own row lists G with the same entry, another or none, and
    the neighbour is often a (-1)-curve (it leaves the list), a curve that
    becomes one (it joins), or one whose diagonal entry reaches 0."""
    model = _raw_model(rng, 7)
    rows, records = model._rows, model._records
    g = rng.choice(list(rows))
    dead = [k for k in range(model._next) if k not in rows]
    others = [k for k in rows if k != g]
    size = rng.choice([0, 1, 1, 2, 2, 2, 3, 3, 4, 5])
    column = {k: rng.choice([1, 1, 1, 2, 2, 3, -1])
              for k in rng.sample(others, min(len(others), size))}
    if dead and rng.random() < 0.15:
        column[rng.choice(dead)] = 1
    for k, m in list(column.items()):
        if k not in rows:
            continue
        row = dict(rows[k])
        side = rng.choice([m, m, m, m + 1, None])
        row.pop(g, None)
        if side is not None:
            row[g] = side
        name, kind = records[k][0], rng.random()
        if kind < 0.3:  # a (-1)-curve now
            records[k], row[k] = (name, 0, -1), -1
        elif kind < 0.6:  # a (-1)-curve once G is gone
            records[k], row[k] = (name, -(m * (m - 1) // 2), m - 1), -1 - m * m
        elif kind < 0.75:  # the diagonal entry reaches 0
            row[k] = -m * m
        rows[k] = row
    column[g] = -1
    items = list(column.items())
    rng.shuffle(items)
    rows[g] = dict(items)
    name = records[g][0]
    records[g] = rng.choice([(name, 0, -1)] * 8 + [(name, 1, -1), (name, 0, 0)])
    if rng.random() < 0.05:
        rows[g][g] = -2
    if rng.random() < 0.5:
        assert model.symmetric_nonnegative in (True, False)
    return model, g, [pair for pair in _minus_one_list(model) if pair[1] != g]


def _contraction_outcome(kernel, model, g, minus_one):
    """The draft's state, the (-1) list and the returned column (its
    items) after `kernel` contracted `g` on a fresh draft of `model`, and
    the (code, message) it raised or None; a refusal writes nothing, and
    no path mutates a row or record shared with `model`."""
    before = _draft_state(model)
    draft, listed = birational._copy(model), list(minus_one)
    try:
        column = list(kernel(draft, g, listed).items())
        raised = None
        assert listed == _minus_one_list(draft)
    except LatticeError as exc:
        column, raised = None, (exc.code, str(exc))
        assert _draft_state(draft) == before and listed == minus_one
    assert _draft_state(model) == before
    return _draft_state(draft), listed, column, raised


def test_contraction_matches_the_reference_pass():
    """Every contraction through `_contract` and through the reference
    (`_contract_general` and `_rewrite` above, the general pass the kernel
    replaced) gives the same rows item by item, records, `_keys`, `_next`,
    cached premise, returned column and (-1) list, or the same error code
    and message; the list is the one a rescan of the contracted draft
    gives."""
    rng = random.Random(47)
    seen = dict.fromkeys(
        ["no live neighbour", "one live neighbour", "two live neighbours",
         "three or more live neighbours", "a dead key", "not-minus-one-curve",
         "asymmetric pair", "dead key in a written row", "repeated name", "m >= 2",
         "diagonal reaches 0", "joins the list", "leaves the list", "premise cached"], 0)
    for _ in range(6000):
        model, g, minus_one = _contraction_case(rng)
        got = _contraction_outcome(birational._contract, model, g, minus_one)
        assert got == _contraction_outcome(_contract_general, model, g, minus_one)
        state, listed, _, raised = got
        seen["premise cached"] += "symmetric_nonnegative" in vars(model)
        if raised is not None:
            seen[raised[0]] += 1
            continue
        rows = model._rows
        column = rows[g]
        live = [k for k in column if k != g and k in rows]
        if len(live) + 1 < len(column):
            seen["a dead key"] += 1
        else:
            seen[("no live neighbour", "one live neighbour", "two live neighbours",
                  "three or more live neighbours")[min(len(live), 3)]] += 1
        seen["asymmetric pair"] += any(rows[k].get(g) != column[k] for k in live)
        seen["dead key in a written row"] += any(j not in rows for k in live for j in rows[k])
        seen["repeated name"] += len(model._keys) < len(rows)
        seen["m >= 2"] += any(column[k] >= 2 for k in live)
        down = {k: dict(items) for k, items in state[0]}
        seen["diagonal reaches 0"] += any(rows[k].get(k) and k not in down[k] for k in live)
        seen["joins the list"] += any(pair not in minus_one for pair in listed)
        seen["leaves the list"] += any(pair not in listed for pair in minus_one)
    assert min(seen.values()) >= 100, seen


# -- contraction loop: the former full-rescan loop as the reference -----------


def _rescan_contract_while(config, cls, qualifies):
    """The former loop: every round rescans every record for (-1)-curves,
    and `qualifies` tests configuration indices against the dense Gram."""
    contracted = []
    while True:
        test = qualifies(config, cls)
        minus_one = sorted(
            (c.name, i)
            for i, c in enumerate(config.curves)
            if c.kdeg == -1 and c.pa == 0 and config.gram[i][i] == -1
        )
        found = next((name for name, i in minus_one if test(i)), None)
        if found is None:
            return config, cls, contracted
        config = contract_minus_one(config, found)
        cls = QDivisor({k: v for k, v in cls.items() if k != found})
        contracted.append(found)


def _rescan_disjoint(config, marked):
    def qualifies(cfg, _cls):
        columns = [cfg.index(name) for name in marked]
        return lambda i: not any(cfg.gram[i][j] for j in columns)

    config, _, contracted = _rescan_contract_while(config, QDivisor.zero(), qualifies)
    return config, contracted


def _rescan_log(config, cls):
    def qualifies(cfg, cls):
        vals = pairings_with_curves(cfg, cls)
        return lambda i: vals[i] < 0

    return _rescan_contract_while(config, cls, qualifies)


def _rescan_lc_trivial(config, cls):
    def qualifies(cfg, cls):
        vals = pairings_with_curves(cfg, zariski_decompose(cfg, cls).positive)
        return lambda i: vals[i] == 0

    return _rescan_contract_while(config, cls, qualifies)


def _assert_same_contraction(fast, reference, *args):
    """Same contracted list (order included), final config (== and dense
    Gram) and class, or the same error."""
    got, want = _outcome(fast, *args), _outcome(reference, *args)
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return 0
    assert got[-1] == want[-1]
    assert got[0] == want[0] and got[0].gram == want[0].gram
    assert got[1:] == want[1:]
    return len(want[-1])


def _assert_loops_match(history, base_class, marked, neutral=("top", "after-log")):
    """All three loops against the rescan on `history.top`; the volume-neutral
    one from the top with an effective class and/or after the log loop."""
    top = history.top
    cls = log_class(history, base_class, history.base.names)
    count = _assert_same_contraction(mmp_contract_disjoint, _rescan_disjoint, top, marked)
    count += _assert_same_contraction(mmp_contract_disjoint, _rescan_disjoint, top, ())
    count += _assert_same_contraction(mmp_contract_log, _rescan_log, top, cls)
    if "top" in neutral:
        effective = total_transform(history, base_class) + relative_canonical(history)
        count += _assert_same_contraction(contract_lc_trivial, _rescan_lc_trivial, top, effective)
    if "after-log" in neutral:
        down, cls, _ = mmp_contract_log(top, cls)
        count += _assert_same_contraction(contract_lc_trivial, _rescan_lc_trivial, down, cls)
    return count


@cache
def _seeded_write_script(seed):
    """The 200-step `_write_path_script` of a seed, built once per session."""
    return tuple(_write_path_script(random.Random(seed), 200)[0])


def test_contraction_loops_match_the_rescan_on_every_catalog_entry():
    contracted = 0
    for entry_id in catalog_ids():
        e = entry(entry_id)
        history = apply_script(e.base_config, e.script)
        marked = e.base_config.names[:1]
        contracted += _assert_loops_match(history, sum_divisor(e.base_config), marked)
    assert len(catalog_ids()) == 16 and contracted > 100, contracted


def test_contraction_loops_match_the_rescan_on_long_scripts():
    contracted = 0
    for seed, neutral in ((51, "top"), (52, "after-log")):
        history = apply_script(_WRITE_BASE, _seeded_write_script(seed))
        contracted += _assert_loops_match(history, sum_divisor(_WRITE_BASE), ["M"], (neutral,))
    assert contracted > 1000, contracted


@pytest.fixture()
def dense_builds(monkeypatch):
    """The sizes of the configurations whose dense `gram` view is read."""
    built = []
    dense = CurveConfig.gram.func
    monkeypatch.setattr(CurveConfig, "gram", property(lambda cfg: built.append(cfg.n) or dense(cfg)))
    return built


def test_surgery_path_never_builds_the_dense_gram(dense_builds):
    """Replay, transport, boundary split, contraction and a decomposition
    all run on the sparse rows: O(n²) work cannot creep back unseen."""
    from logsurf import semistable_part

    steps = _seeded_write_script(51)
    dense_builds.clear()  # the reference blow-ups behind the script read it
    history = apply_script(_WRITE_BASE, steps)
    base = sum_divisor(_WRITE_BASE)
    up = total_transform(history, base)
    adjust = boundary_adjustment(history, ["A", "B", "F"])
    assert pushforward(history, up + adjust) == base
    running = ["A", "B", "F"] + [s.exceptional_name for s in steps if s.joins_boundary]
    semistable_part(history.top, running)
    down, contracted = mmp_contract_disjoint(history.top, ["M"])
    assert down == _WRITE_BASE and len(contracted) == 200
    result = zariski_decompose(history.top, up + relative_canonical(history))
    assert result.volume == volume(_WRITE_BASE, base)
    assert dense_builds == []


def test_paper_and_tower_paths_never_build_the_dense_gram(dense_builds):
    from logsurf import example_143, example_25_84, example_rational_shape, table1, tower

    table1()
    example_143()
    example_25_84()
    example_rational_shape()
    base = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    history, cls = tower(base, "C", "E", QDivisor({"C": 1, "E": 1}), Q(1, 2), 100)
    assert zariski_decompose(history.top, cls).volume == Q(502, 201)
    assert dense_builds == []


def test_validate_cli_load_and_dense_rounds_never_build_the_dense_gram(dense_builds, tmp_path):
    from logsurf import cli
    from logsurf._base import dumps
    from logsurf.formats import config_to_json, divisor_to_json

    top = apply_script(_WRITE_BASE, _seeded_write_script(51)).top
    dense_builds.clear()  # the reference blow-ups behind the script read it
    assert validate(top) == []
    cfg_path, div_path = tmp_path / "cfg.json", tmp_path / "d.json"
    cfg_path.write_text(dumps(config_to_json(top)), encoding="utf-8")
    div_path.write_text(dumps(divisor_to_json(sum_divisor(top))), encoding="utf-8")
    out = tmp_path / "out.txt"
    assert cli.run(["zariski", str(cfg_path), "-d", str(div_path), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("positive: ")
    # off the premise, a pivot >= 0 in round 2 switches the loop to dense rounds
    recs = tuple(CurveRecord(f"C{i}", 0, 0) for i in (1, 2, 3))
    raw = CurveConfig(recs, ((-4, 2, -2), (2, -2, 1), (-2, 1, 0)))
    assert zariski_decompose(raw, QDivisor({"C1": 1, "C2": 2})).volume == 0
    assert dense_builds == []


def test_the_oracle_reads_the_rows_by_key(dense_builds, positional_builds):
    """The subset oracle builds its blocks from the keyed rows, so on a
    model whose keys have a gap (E contracted) it derives no view."""
    base = make_config(
        [("C", 0, 1), ("E", -1, 0), ("T", -2, 0), ("U", -3, 0)],
        [("C", "E", 1), ("E", "T", 1), ("T", "U", 1)],
    )
    down = contract_minus_one(base, "E")
    assert list(down._rows) == [0, 2, 3]
    for d in (sum_divisor(down), QDivisor({"C": 1, "U": Q(1, 2)})):
        assert zariski_oracle(down, d) == zariski_decompose(down, d)
    assert dense_builds == [] and positional_builds == []


@pytest.fixture()
def positional_builds(monkeypatch):
    """The positional views (`_index`, `diag`, `neighbours`) built, by name."""
    built = []
    for view in ("_index", "diag", "neighbours"):
        func = getattr(CurveConfig, view).func
        monkeypatch.setattr(
            CurveConfig, view, property(lambda cfg, v=view, f=func: built.append(v) or f(cfg))
        )
    return built


def test_compute_paths_never_build_a_positional_view(positional_builds):
    """Pairings, the Zariski loop (warm, cold, dense rounds and errors) and
    the ND check read the keyed rows, on fresh models and on the drafts of
    the contraction loops, so no view is derived per model."""
    from logsurf import kodaira_config, resolution_script, tower

    rng = random.Random(81)
    base = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    history, cls = tower(base, "C", "E", QDivisor({"C": 1, "E": 1}), Q(1, 2), 50)
    n = 60
    chain = make_config(
        [(f"C{i}", rng.randint(-4, -2), 0) for i in range(n)],
        [(f"C{i}", f"C{i + 1}", 1) for i in range(n - 1)],
    )
    tree = make_config(
        [(f"T{i}", rng.randint(-4, -2), 0) for i in range(n)],
        [(f"T{rng.randrange(i)}", f"T{i}", 1) for i in range(1, n)],
    )
    raw = CurveConfig(
        tuple(CurveRecord(f"C{i}", 0, 0) for i in (1, 2, 3)), ((-4, 2, -2), (2, -2, 1), (-2, 1, 0))
    )
    singular = CurveConfig((CurveRecord("A", 0, 0), CurveRecord("B", 0, 0)), ((-1, -1), (-1, -1)))
    route_b = apply_script(kodaira_config("II*"), resolution_script("II*"))
    route_b_cls = log_class(route_b, sum_divisor(route_b.base), route_b.base.names)
    star = entry("I*_0")  # after the log loop, its volume-neutral loop takes the ND check
    star_history = apply_script(star.base_config, star.script)
    star_cls = log_class(star_history, sum_divisor(star.base_config), star.base_config.names)
    redecomposed = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("E", -1, 0)], [("C1", "E", 1), ("C2", "E", 1)]
    )

    assert zariski_decompose(history.top, cls).volume == Q(252, 101)
    for cfg in (chain, tree):
        d = QDivisor({name: rng.randint(1, 3) for name in cfg.names})
        assert zariski_decompose(cfg, d).support
        assert is_negative_definite(cfg, cfg.names)
        assert len(pairings_with_curves(cfg, d)) == n
    assert zariski_decompose(raw, QDivisor({"C1": 1, "C2": 2})).volume == 0
    assert _outcome(zariski_decompose, singular, QDivisor({"A": 1}))[0] == "gram-singular"
    assert not is_negative_definite(history.top, history.top.names)
    down, down_cls, contracted = mmp_contract_log(route_b.top, route_b_cls)
    assert contracted == []
    assert len(contract_lc_trivial(down, down_cls)[-1]) == 8
    down, down_cls, _ = mmp_contract_log(star_history.top, star_cls)
    assert contract_lc_trivial(down, down_cls)[-1]
    pushed = contract_lc_trivial(redecomposed, QDivisor({"C1": 1, "C2": 1, "E": 1}))
    assert pushed[-1] == ["E", "C1"]
    assert positional_builds == []


@pytest.fixture()
def loop_name_reads(name_reads):
    """The by-name reads (`adjacent`, `record`, `self_int`, `entry`) and
    the name lookups (`_key`) made while a contraction loop runs, that is
    after its input checks.  Its own list: the boundary guards resolve
    their input names through `_key`."""
    return name_reads(birational, "_contract_while", methods=(*BY_NAME, "_key"))


def test_contraction_loops_read_the_draft_by_key(loop_name_reads, monkeypatch):
    """The three loops, their candidate tests and their class updates read
    records and rows by key, and the kernel is handed the key the loop
    tested: no per-step name lookup creeps back."""
    histories = [apply_script(_WRITE_BASE, _seeded_write_script(51))]
    histories += [apply_script(entry(i).base_config, entry(i).script) for i in catalog_ids()]
    contracted = 0
    for history in histories:
        base, top = history.base, history.top
        cls = log_class(history, sum_divisor(base), base.names)
        contracted += len(mmp_contract_disjoint(top, base.names[:1])[-1])
        down, down_cls, done = mmp_contract_log(top, cls)
        contracted += len(done) + len(contract_lc_trivial(down, down_cls)[-1])
        effective = total_transform(history, sum_divisor(base)) + relative_canonical(history)
        contracted += len(contract_lc_trivial(top, effective)[-1])
    assert contracted > 500, contracted
    assert loop_name_reads == []
    # off the premise, where the volume-neutral loop decomposes again
    redecomposed = 0
    for cfg, _, effective in _raw_loop_cases():
        got = _outcome(contract_lc_trivial, cfg, effective)
        redecomposed += not isinstance(got[0], str) and not cfg.symmetric_nonnegative and len(got[-1])
    assert redecomposed > 50, redecomposed
    assert loop_name_reads == []
    # the counter does see a by-name read made inside a loop
    top = histories[0].top
    assert birational._contract_while(top, lambda cfg, k: cfg.self_int("M") < 0) == (top, [])
    # (`self_int` resolves its name through `_key`)
    assert loop_name_reads and set(loop_name_reads) == {"self_int", "_key"}
    # and a name handed to the kernel, one `_key` lookup per contraction
    loop_name_reads.clear()
    kernel = birational._contract

    def by_name(draft, g, minus_one):
        name, _, _ = draft._records[g]
        return kernel(draft, draft._key(name), minus_one)

    monkeypatch.setattr(birational, "_contract", by_name)
    _, done = mmp_contract_disjoint(top, ["M"])
    assert len(done) > 100 and loop_name_reads == ["_key"] * len(done)


# -- transport: the former `Fraction` walk as the reference -------------------


def _fraction_pull_step(coeffs, step):
    e = sum((Q(m) * coeffs.get(name, Q(0)) for name, m in step.branches), Q(0))
    out = dict(coeffs)
    if e:
        out[step.exceptional_name] = e
    return out


def _fraction_total_transform(history, d_on_base):
    for name in d_on_base.coeffs:
        history.base._key(name)
    coeffs = dict(d_on_base.coeffs)
    for step in history.steps:
        coeffs = _fraction_pull_step(coeffs, step)
    return QDivisor(coeffs)


def _fraction_canonical_transport(history, d_on_base):
    for name in d_on_base.coeffs:
        history.base._key(name)
    coeffs = dict(d_on_base.coeffs)
    for step in history.steps:
        coeffs = _fraction_pull_step(coeffs, step)
        coeffs[step.exceptional_name] = coeffs.get(step.exceptional_name, Q(0)) + 1
    return QDivisor(coeffs)


def _fraction_log_class(history, base_class, boundary):
    base_boundary = sum_divisor(history.base, boundary)
    joined = [s.exceptional_name for s in history.steps if s.joins_boundary]
    top_boundary = QDivisor({name: 1 for name in (*base_boundary.coeffs, *joined)})
    return _fraction_canonical_transport(history, base_class - base_boundary) + top_boundary


def _mixed_classes(rng, names):
    """Base classes over the denominators 1, 2, 3 and 7 (lcm 42), with
    negative coefficients, plus the reduced divisor on `names`."""
    fixed = [Q(1, 2), Q(2, 3), Q(5, 7), Q(-3, 2), Q(-1, 7)]
    yield QDivisor({name: 1 for name in names})
    yield QDivisor({name: fixed[i % len(fixed)] for i, name in enumerate(names)})
    yield QDivisor({name: Q(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for name in names})
    yield QDivisor.zero()


def _assert_transport_matches_fractions(history, rng):
    names = list(history.base.names)
    boundaries = [names, [], rng.sample(names, rng.randint(1, len(names)))]
    checked = 0
    for base_class in _mixed_classes(rng, names):
        want = _fraction_total_transform(history, base_class)
        assert total_transform(history, base_class) == want
        for boundary in boundaries:
            want = _fraction_log_class(history, base_class, boundary)
            assert log_class(history, base_class, iter(boundary)) == want
            checked += 1
    assert relative_canonical(history) == _fraction_canonical_transport(
        history, QDivisor.zero()
    )
    for boundary in boundaries:
        want = _fraction_log_class(history, QDivisor.zero(), boundary)
        assert boundary_adjustment(history, boundary) == want
    return checked


def _form(d):
    return d.den, list(d.num.items())


def test_transport_and_contraction_loops_leave_the_input_divisor_unchanged():
    """Transport walks a copy of the input's integer vector in place, never
    the vector itself, and the contraction loops push a class forward into
    a new divisor, reduced again: the caller's divisors stay as they were."""
    rng = random.Random(93)
    for entry_id in catalog_ids():
        e = entry(entry_id)
        base = e.base_config
        history = apply_script(base, e.script)
        for d in _mixed_classes(rng, list(base.names)):
            before = _form(d)
            total_transform(history, d)
            log_class(history, d, base.names)
            assert _form(d) == before
        cls = log_class(history, sum_divisor(base), base.names)
        before = _form(cls)
        cfg, pushed, _ = mmp_contract_log(history.top, cls)
        pushed_before = _form(pushed)
        contract_lc_trivial(cfg, pushed)
        assert _form(cls) == before and _form(pushed) == pushed_before
    cfg = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("E", -1, 0)], [("C1", "E", 1), ("C2", "E", 1)]
    )
    cls = QDivisor({"C1": 1, "C2": 1, "E": Q(5, 2)})  # meets E in -1/2
    _, pushed, contracted = mmp_contract_log(cfg, cls)
    assert contracted == ["E"] and _form(pushed) == (1, [("C1", 1), ("C2", 1)])
    assert _form(cls) == (2, [("C1", 2), ("C2", 2), ("E", 5)])
    cls = QDivisor({"C1": 1, "C2": 1, "E": 1})
    _, pushed, contracted = contract_lc_trivial(cfg, cls)
    assert contracted == ["E", "C1"] and pushed == QDivisor({"C2": 1})
    assert _form(cls) == (1, [("C1", 1), ("C2", 1), ("E", 1)])


def test_transport_matches_the_fraction_walk_on_every_catalog_entry():
    rng = random.Random(61)
    checked = 0
    for entry_id in catalog_ids():
        e = entry(entry_id)
        checked += _assert_transport_matches_fractions(apply_script(e.base_config, e.script), rng)
    assert checked == 16 * 12


def test_transport_matches_the_fraction_walk_on_long_scripts():
    rng = random.Random(62)
    for seed in (51, 52):
        history = apply_script(_WRITE_BASE, _seeded_write_script(seed))
        assert sum(s.joins_boundary for s in history.steps) > 30
        _assert_transport_matches_fractions(history, rng)


@pytest.mark.parametrize(
    "base_class, boundary, named",
    [
        ({"Z": 1}, ["A6"], "Z"),
        ({"A6": Q(1, 2), "Z": Q(2, 3), "Y": -1}, [], "Z"),
        ({"A6": 1}, ["A5", "W"], "W"),
        ({"Z": 1}, ["W", "A5"], "W"),  # the boundary is checked first
    ],
)
def test_transport_unknown_names_raise_as_the_fraction_walk(base_class, boundary, named):
    """The same `unknown-curve` error, naming the same curve, from every
    transport function, before any step is walked."""
    from logsurf import kodaira_config

    history = apply_script(kodaira_config("II*"), [BlowupStep((("A6", 1), ("A5", 1)), "G")])
    d = QDivisor(base_class)
    assert _outcome(log_class, history, d, boundary) == ("unknown-curve", f"unknown-curve: {named}")
    pairs = [
        (log_class, _fraction_log_class, (history, d, boundary)),
        (boundary_adjustment, lambda h, b: _fraction_log_class(h, QDivisor.zero(), b),
         (history, boundary)),
        (total_transform, _fraction_total_transform, (history, d)),
    ]
    for fast, reference, args in pairs:
        assert _outcome(fast, *args) == _outcome(reference, *args)


# -- contraction loops off the conventions, and the decomposition count -------


def _raw_loop_config(rng, off, asymmetric=False):
    """A random square matrix with some (-1)-curves and records by adjunction,
    so contractions can cascade; negative entries when `off` allows them."""
    from test_zariski_kernel import random_symmetric

    n = rng.randint(2, 7)
    gram = random_symmetric(rng, n, diag=(-3, 2), off=off)
    for g in rng.sample(range(n), rng.randint(1, n)):
        gram[g][g] = -1
    if asymmetric:
        i, j = rng.sample(range(n), 2)
        gram[i][j] += rng.choice([-1, 1])
    pas = [0 if rng.random() < 0.7 else rng.randint(1, 2) for _ in range(n)]
    recs = tuple(CurveRecord(f"C{i}", pa, 2 * pa - 2 - gram[i][i]) for i, pa in enumerate(pas))
    return CurveConfig(recs, tuple(tuple(row) for row in gram))


def _counting(monkeypatch, module, name):
    """Record the size of the model at each call of `module.name`."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda cfg, *args: calls.append(cfg.n) or real(cfg, *args))
    return calls


def _raw_loop_cases():
    """The 900 raw matrices of seed 63, symmetric with and without negative
    off-diagonal entries and asymmetric in turn: (config, a class with
    negative coefficients, an effective class)."""
    rng = random.Random(63)
    for case in range(900):
        off, asymmetric = [((0, 2), False), ((-2, 2), False), ((-1, 2), True)][case % 3]
        cfg = _raw_loop_config(rng, off, asymmetric)
        names = cfg.names
        signed = QDivisor({name: Q(rng.randint(-4, 4), rng.choice([1, 2, 3])) for name in names})
        effective = QDivisor({name: Q(rng.randint(0, 4), rng.choice([1, 2, 7])) for name in names})
        yield cfg, signed, effective


def test_contraction_loops_match_the_rescan_on_raw_matrices(monkeypatch):
    """Symmetric matrices with and without negative off-diagonal entries, and
    asymmetric ones: the maintained pairings give the rescan's contractions,
    and off the conventions the volume-neutral loop re-decomposes every round,
    through the kernel: one `zariski_decompose` per call, the first."""
    from logsurf import zariski

    results = _counting(monkeypatch, zariski, "zariski_decompose")
    decompositions = _counting(monkeypatch, zariski, "_decompose")
    tally = {"log": 0, "errors": 0, "kept": 0, "redecomposed": 0}
    for cfg, signed, effective in _raw_loop_cases():
        tally["log"] += _assert_same_contraction(mmp_contract_log, _rescan_log, cfg, signed)
        results.clear()
        decompositions.clear()
        got = _outcome(contract_lc_trivial, cfg, effective)
        calls = len(decompositions)
        assert results == [cfg.n]
        _assert_same_contraction(contract_lc_trivial, _rescan_lc_trivial, cfg, effective)
        gram = cfg.gram
        conventional = all(
            gram[i][j] >= 0 and gram[i][j] == gram[j][i]
            for i in range(cfg.n) for j in range(cfg.n) if i != j
        )
        if isinstance(got[0], str):
            tally["errors"] += 1
        elif conventional:
            tally["kept"] += len(got[-1]) + 1 - calls
        else:
            assert calls == len(got[-1]) + 1
            tally["redecomposed"] += len(got[-1])
    assert min(tally.values()) > 50, tally


def test_volume_neutral_loop_redecomposes_when_the_pushed_support_is_not_negative_definite(
    monkeypatch,
):
    """E meets both curves of supp N = {C1, C2} and is not in it.  Pushed
    forward, C1 and C2 become (-1)-curves meeting once, a singular block, so
    the kept pair is not certified and the contracted model is decomposed."""
    from logsurf import zariski

    cfg = make_config(
        [("C1", -2, 0), ("C2", -2, 0), ("E", -1, 0)], [("C1", "E", 1), ("C2", "E", 1)]
    )
    d = QDivisor({"C1": 1, "C2": 1, "E": 1})
    result = zariski_decompose(cfg, d)
    assert result.negative == QDivisor({"C1": Q(1, 2), "C2": Q(1, 2)})
    assert pairing(cfg, result.positive, QDivisor({"E": 1})) == 0
    results = _counting(monkeypatch, zariski, "zariski_decompose")
    decompositions = _counting(monkeypatch, zariski, "_decompose")
    checks = []
    real_check = birational._negative_definite

    def check(config, support):
        assert support == {config._keys["C1"], config._keys["C2"]}  # keys, not names
        checks.append(real_check(config, support))
        return checks[-1]

    monkeypatch.setattr(birational, "_negative_definite", check)
    down, cls, contracted = contract_lc_trivial(cfg, d)
    assert contracted == ["E", "C1"] and decompositions == [3, 2] and checks == [False]
    assert results == [3]  # the contracted model is decomposed by the kernel alone
    assert down.names == ("C2",) and down.self_int("C2") == 0 and cls == QDivisor({"C2": 1})
    assert (down, cls, contracted) == _rescan_lc_trivial(cfg, d)


def test_volume_neutral_loop_decomposes_once_on_every_catalog_entry(monkeypatch):
    """From the resolved top with an effective class and after the log loop:
    one decomposition each, every later round certified."""
    from logsurf import zariski

    decompositions = _counting(monkeypatch, zariski, "zariski_decompose")
    checked = set()
    real_check = birational._negative_definite

    def check(cfg, support):
        assert real_check(cfg, support)
        checked.add(entry_id)
        return True

    monkeypatch.setattr(birational, "_negative_definite", check)
    contracted = 0
    for entry_id in catalog_ids():
        e = entry(entry_id)
        history = apply_script(e.base_config, e.script)
        base = sum_divisor(e.base_config)
        effective = total_transform(history, base) + relative_canonical(history)
        down, cls, _ = mmp_contract_log(history.top, log_class(history, base, e.base_config.names))
        for cfg, d in ((history.top, effective), (down, cls)):
            decompositions.clear()
            contracted += len(contract_lc_trivial(cfg, d)[-1])
            assert len(decompositions) == 1, entry_id
    assert contracted > 100, contracted
    assert checked == {"I_3", "I*_0", "I*_2", "III*", "IV*"}, checked


def test_volume_neutral_loop_takes_the_callers_decomposition(monkeypatch):
    """`decomposition=(P, N)` from `zariski._parts` gives what the call
    without it gives, on every catalog top after the log loop and on the raw
    matrices on and off the premise: the same model as stored, class and
    contracted list, or the same error.  Without it, one `zariski_decompose`
    call comes before the loop, and none inside it."""
    from logsurf import zariski

    cases = []
    for entry_id in catalog_ids():
        e = entry(entry_id)
        history = apply_script(e.base_config, e.script)
        cls = log_class(history, sum_divisor(e.base_config), e.base_config.names)
        cases.append(mmp_contract_log(history.top, cls)[:2])
    cases += [(cfg, effective) for cfg, _, effective in _raw_loop_cases()]
    events = []
    real_result, real_loop = zariski.zariski_decompose, birational._contract_while
    monkeypatch.setattr(
        zariski, "zariski_decompose", lambda *args: events.append("result") or real_result(*args)
    )
    monkeypatch.setattr(
        birational, "_contract_while", lambda *args: events.append("loop") or real_loop(*args)
    )
    tally = {"contracted": 0, "errors": 0, "off-premise": 0}
    for cfg, cls in cases:
        events.clear()
        want = _outcome(contract_lc_trivial, cfg, cls)
        try:
            positive, negative, _, _ = zariski._parts(cfg, cls)
        except LatticeError:
            assert events == ["result"] and isinstance(want[0], str)
            continue
        assert events == ["result", "loop"]
        got = _outcome(
            lambda *args: contract_lc_trivial(*args, decomposition=(positive, negative)), cfg, cls
        )
        if isinstance(want[0], str):
            assert got == want
            tally["errors"] += 1
            continue
        assert _draft_state(got[0]) == _draft_state(want[0]) and got[1:] == want[1:]
        tally["contracted"] += len(want[-1])
        tally["off-premise"] += not cfg.symmetric_nonnegative and bool(want[-1])
    assert tally["contracted"] > 300 and tally["off-premise"] > 50 and tally["errors"], tally


# -- the transient write path: one private draft per call or loop --------------

_VIEWS = ("curves", "names", "_index", "diag", "neighbours", "symmetric_nonnegative")


def _deep_state(cfg):
    """A deep copy of all the write path could reach: records, every row, keys, next key."""
    rows = {k: dict(row) for k, row in cfg._rows.items()}
    return dict(cfg._records), rows, dict(cfg._keys), cfg._next


def _assert_fresh_views(cfg):
    """Every view cached on `cfg` equals one derived afresh from its rows."""
    for view in _VIEWS:
        if view in vars(cfg):
            assert vars(cfg)[view] == getattr(CurveConfig, view).func(cfg), view


def _models_in(out):
    if isinstance(out, CurveConfig):
        return [out]
    if isinstance(out, birational.History):
        return [out.base, out.top]
    if isinstance(out, tuple):
        return [model for item in out for model in _models_in(item)]
    return []


class _Watch:
    """Calls write-path functions on watched models: after each call, every
    model watched so far (rows shared with the call's input included) equals
    its deep state from before, its views read beforehand are still right,
    and no model in the result carries a stale cached view."""

    def __init__(self):
        self.models = []
        self.codes = set()

    def __call__(self, fn, cfg, *args):
        for view in _VIEWS:
            getattr(cfg, view)
        self.models.append((cfg, _deep_state(cfg)))
        out = _outcome(fn, cfg, *args)
        for model, state in self.models:
            assert _deep_state(model) == state, fn.__name__
            _assert_fresh_views(model)
        for model in _models_in(out):
            _assert_fresh_views(model)
        if isinstance(out, tuple) and isinstance(out[0], str):
            self.codes.add(out[0])
        return out


# One step per error code, refused on every model a `_write_path_script`
# reaches: R1 keeps pa 0 and never meets R2.
_BAD_STEPS = {
    "pa-negative": BlowupStep((("R1", 2),), "Z"),
    "intersection-negative": BlowupStep((("R1", 1), ("R2", 1)), "Z"),
    "bad-step": BlowupStep((("A", 1), ("A", 1)), "Z"),
    "unknown-curve": BlowupStep((("Nope", 1),), "Z"),
}


def test_no_write_path_call_changes_an_input_model(monkeypatch):
    """Drafts are private: replays and loops that succeed, fail mid-script
    or contract nothing leave every input model and the models sharing its
    rows exactly as they were, cached views included."""
    from logsurf import tower

    checks = []
    real_check = birational._negative_definite

    def check(cfg, keys):
        checks.append(cfg.n)
        return real_check(cfg, keys)

    monkeypatch.setattr(birational, "_negative_definite", check)
    call = _Watch()
    steps = list(_seeded_write_script(51))
    assert call(apply_script, _WRITE_BASE, []).top is _WRITE_BASE
    history = call(apply_script, _WRITE_BASE, steps)
    top = history.top
    for code, bad in _BAD_STEPS.items():
        assert call(apply_script, _WRITE_BASE, steps[:60] + [bad] + steps[60:])[0] == code
        assert call(blow_up, top, bad)[0] == code
    assert call(contract_minus_one, top, "A")[0] == "not-minus-one-curve"
    call(contract_minus_one, top, steps[-1].exceptional_name)
    down, _ = call(mmp_contract_disjoint, top, ["M"])
    again, none = call(mmp_contract_disjoint, down, ["M"])
    assert down == _WRITE_BASE and again is down and none == []
    base = sum_divisor(_WRITE_BASE)
    low, cls, _ = call(mmp_contract_log, top, log_class(history, base, _WRITE_BASE.names))
    call(contract_lc_trivial, low, cls)
    call(blow_up, low, BlowupStep((("A", 1),), "Y"))

    # after the log loop, the volume-neutral loop on I*_0 takes its ND check
    e = entry("I*_0")
    history = call(apply_script, e.base_config, list(e.script))
    cls = log_class(history, sum_divisor(e.base_config), e.base_config.names)
    low, cls, _ = call(mmp_contract_log, history.top, cls)
    checks.clear()
    call(contract_lc_trivial, low, cls)
    assert len(checks) == 3, checks

    tower_base = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    tower_top = call(tower, tower_base, "C", "E", QDivisor({"C": 1, "E": 1}), Q(1, 2), 40)[0].top
    call(mmp_contract_disjoint, tower_top, ["C"])
    assert call(tower, tower_base, "C", "C", QDivisor({"C": 1}), Q(1, 2), 3)[0] == "bad-tower"

    rng = random.Random(71)
    for _ in range(300):
        call.models.clear()
        hist = random_history(rng, random_config(rng), max_steps=4)
        top = hist.top
        names = rng.sample(list(top.names), rng.randint(1, min(3, top.n)))
        step = BlowupStep(tuple((nm, rng.choice([1, 1, 2, 3])) for nm in names), "Z")
        call(blow_up, top, step)
        call(apply_script, hist.base, [*hist.steps, step, BlowupStep((("Z", 1),), "Z2")])
        call(contract_minus_one, top, rng.choice(top.names))
        call(mmp_contract_disjoint, top, rng.sample(list(top.names), rng.randint(0, 2)))
        signed = QDivisor({nm: Q(rng.randint(-4, 4), rng.choice([1, 2])) for nm in top.names})
        call(mmp_contract_log, top, signed)
        call(contract_lc_trivial, top, random_effective_divisor(rng, top))
    assert call.codes >= {
        "pa-negative", "intersection-negative", "bad-step", "unknown-curve", "not-minus-one-curve",
    }, call.codes

    # raw matrices with negative or asymmetric entries: the input's
    # `symmetric_nonnegative`, read before each call, is carried into the
    # draft, and a contraction that removes what broke it must not leave it
    # False (`_Watch` checks every cached view against a fresh scan)
    scan = CurveConfig.symmetric_nonnegative.func
    rng = random.Random(63)
    healed = 0
    for case in range(400):
        call.models.clear()
        cfg = _raw_loop_config(rng, *[((-2, 2), False), ((-1, 2), True)][case % 2])
        names = cfg.names
        outs = [
            call(contract_minus_one, cfg, rng.choice(names)),
            call(mmp_contract_disjoint, cfg, rng.sample(list(names), rng.randint(0, 1))),
            call(mmp_contract_log, cfg, QDivisor({nm: rng.randint(-4, 4) for nm in names})),
            call(contract_lc_trivial, cfg, QDivisor({nm: rng.randint(0, 4) for nm in names})),
            call(blow_up, cfg, BlowupStep(((rng.choice(names), 1),), "Z")),
        ]
        if not scan(cfg):
            healed += any(scan(model) for out in outs for model in _models_in(out))
    assert healed > 100, healed


@pytest.fixture()
def model_copies(monkeypatch):
    """The sizes of the models built by `CurveConfig._from_rows`, each from
    three dicts (records, rows, keys) its caller copied or built."""
    built = []
    real = CurveConfig._from_rows

    def counted(cls, records, *rest):
        built.append(len(records))
        return real(records, *rest)

    monkeypatch.setattr(CurveConfig, "_from_rows", classmethod(counted))
    return built


def test_replay_and_contraction_loops_copy_the_model_once(model_copies):
    """A k-step replay and a k-contraction loop copy the model once, not k
    times; a single step copies once, and a loop that contracts nothing
    returns its input without a copy."""
    from logsurf import tower

    steps = _seeded_write_script(51)
    model_copies.clear()
    history = apply_script(_WRITE_BASE, steps)
    assert model_copies == [_WRITE_BASE.n]
    top = history.top
    model_copies.clear()
    down, contracted = mmp_contract_disjoint(top, ["M"])
    assert len(contracted) == 200 and model_copies == [top.n]
    cls = log_class(history, sum_divisor(_WRITE_BASE), _WRITE_BASE.names)
    model_copies.clear()
    _, _, contracted = mmp_contract_log(top, cls)
    assert len(contracted) > 10 and model_copies == [top.n]
    model_copies.clear()
    assert mmp_contract_disjoint(down, ["M"])[0] is down and model_copies == []
    blow_up(down, BlowupStep((("A", 1),), "Y"))
    contract_minus_one(top, steps[-1].exceptional_name)
    assert model_copies == [down.n, top.n]
    base = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    model_copies.clear()
    assert tower(base, "C", "E", QDivisor({"C": 1, "E": 1}), Q(1, 2), 100)[0].top.n == 102
    assert model_copies == [2]


@pytest.fixture()
def premise_scans(monkeypatch):
    """The sizes of the models `CurveConfig.symmetric_nonnegative` scanned."""
    prop = vars(CurveConfig)["symmetric_nonnegative"]
    real = prop.func
    scanned = []

    def counted(cfg):
        scanned.append(cfg.n)
        return real(cfg)

    monkeypatch.setattr(prop, "func", counted)
    return scanned


def test_a_replay_scans_the_premise_once_per_base(premise_scans, cold_models):
    """`apply_script` computes the premise on its base, where it stays
    cached, and carries it to the top, so no top is scanned: five towers
    from one base, each decomposed, scan the base once, and so do the two
    routes of `example_143`, which also decomposes its base.  That base is
    the catalog's II* model, built once per process: on a cleared table
    the first call scans its 10 curves and a second scans nothing."""
    from logsurf import example_143, tower

    base = make_config([("C", 2, 2), ("E", -2, 0)], [("C", "E", 1)])
    cls = QDivisor({"C": 1, "E": 1})
    for n in range(20, 25):
        history, transported = tower(base, "C", "E", cls, Q(1, 2), n)
        assert zariski_decompose(history.top, transported).big
    assert premise_scans == [2]
    premise_scans.clear()
    assert example_143()["routes_agree"]
    assert premise_scans == [10]
    premise_scans.clear()
    assert example_143()["routes_agree"]
    assert premise_scans == []


def test_single_contractions_do_not_rescan_a_model_off_the_premise(premise_scans):
    """A single step carries the premise only when its input has computed
    it, and a contraction clears a False: contracting a model off the
    premise one (-1)-curve at a time scans only where the flag is read."""
    k = 12
    records = [CurveRecord("A", 0, -1), CurveRecord("B", 0, -1)]
    records += [CurveRecord(f"E{i}", 0, -1) for i in range(k)]
    gram = [[0] * (k + 2) for _ in records]
    for i in range(k + 2):
        gram[i][i] = -1
    gram[0][1] = gram[1][0] = -1  # a negative off-diagonal entry: off the premise
    model = CurveConfig(records, gram)
    assert not model.symmetric_nonnegative
    for i in range(k):
        model = contract_minus_one(model, f"E{i}")
    assert model.names == ("A", "B") and premise_scans == [k + 2]
    assert not model.symmetric_nonnegative and premise_scans == [k + 2, 2]
