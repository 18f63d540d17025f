import random
from fractions import Fraction as Q

import pytest
from conftest import random_config, random_effective_divisor, random_history

from logsurf import (
    BlowupStep,
    LatticeError,
    QDivisor,
    apply_script,
    blow_up,
    boundary_adjustment,
    catalog_ids,
    contract_minus_one,
    divisor_geq,
    entry,
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
)
from logsurf.birational import history_from_json, history_to_json, script_from_json, script_to_json


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


def test_projection_formula_on_cubic_history():
    from logsurf.catalog import _config_25_84, _script_25_84

    hist = apply_script(_config_25_84(), _script_25_84())
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
