import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from conftest import hanging_config, random_config, random_history, tree_parents

from logsurf import (
    BlowupStep,
    CurveConfig,
    History,
    LatticeError,
    QDivisor,
    apply_script,
    catalog_ids,
    entry,
    example_143,
    example_25_84,
    example_rational_shape,
    glue_volumes,
    kodaira_config,
    min_volume_pipeline,
    noether_stable_bound,
    prop0_step1_bound,
    prop1_volume,
    prop2_bound,
    resolution_script,
    sum_divisor,
    table1,
    tz_bound,
    validate,
    volume,
)
from logsurf import catalog
from logsurf import shapes
from logsurf.formats import config_from_json, config_to_json, script_to_json
from logsurf.lattice import MAX_CURVES
from logsurf.shapes import branch_arms, max_point_multiplicity, minimal_model_shape, snc_certificate


ALL_KINDS = [
    ("I", 1), ("I", 2), ("I", 3), ("I", 7),
    ("II", None), ("III", None), ("IV", None),
    ("I0*", None), ("I*", 0), ("I*", 1), ("I*", 2), ("I*", 4),
    ("II*", None), ("III*", None), ("IV*", None),
]


@pytest.mark.parametrize("kind,b", ALL_KINDS)
def test_fiber_configs_validate(kind, b):
    assert validate(kodaira_config(kind, b)) == []
    assert validate(kodaira_config(kind, b, with_tail=False)) == []


@pytest.mark.parametrize("kind,b", ALL_KINDS)
def test_fiber_components_have_kdeg_zero(kind, b):
    cfg = kodaira_config(kind, b)
    assert all(c.kdeg == 0 for c in cfg.curves)


def test_fiber_class_is_isotropic():
    # the multiple-fiber class pairs to zero with every component
    from logsurf import pairing

    cfg = kodaira_config("II*", with_tail=False)
    mults = {"A1": 1, "A2": 2, "A3": 3, "A4": 4, "A5": 5, "A6": 6, "A7": 4, "A8": 2, "B": 3}
    fiber = QDivisor(mults)
    assert all(
        pairing(cfg, fiber, QDivisor({n: 1})) == 0 for n in cfg.names
    )


def test_bad_fiber_arguments():
    """One dispatch, one message: the configuration and the script agree;
    an id that `entry` does not list is `unknown-entry`."""
    for kind, b, message in (
        ("V", None, "unknown type 'V' (one of I, II, III, IV, I0*, I*, II*, III*, IV*)"),
        ("I", 0, "I_b needs b >= 1, got 0"),
        ("I*", -1, "I_b* needs b >= 0, got -1"),
    ):
        for build in (kodaira_config, resolution_script):
            with pytest.raises(LatticeError) as err:
                build(kind, b)
            assert (err.value.code, err.value.message) == ("bad-fiber", message)
    for entry_id in ("V", "I_0", "I_4", "I*_3", "I*_-1", "I0*_0", "T", ""):
        with pytest.raises(LatticeError) as err:
            entry(entry_id)
        assert (err.value.code, err.value.message) == ("unknown-entry", entry_id)


@pytest.mark.parametrize("kind,extra", [("I", 0), ("I*", 5)])
@pytest.mark.parametrize("b", [MAX_CURVES, 10**12])
def test_absurd_fiber_sizes_are_refused_before_building(monkeypatch, kind, extra, b):
    """The curve count, with the tail where there is one, is checked before
    any list is built, with `make_config`'s code and message.  A longer
    `range` in the catalog fails here rather than filling memory."""

    def short_range(*args):
        assert len(range(*args)) <= MAX_CURVES, "a fibre was built before its size check"
        return range(*args)

    monkeypatch.setattr(catalog, "range", short_range, raising=False)
    monkeypatch.setattr(catalog, "make_config", None)
    builds = [
        (lambda: kodaira_config(kind, b), b + extra + 1),
        (lambda: kodaira_config(kind, b, with_tail=False), b + extra),
        (lambda: resolution_script(kind, b), b + extra + 1),
    ]
    for build, count in builds:
        if count <= MAX_CURVES:
            continue
        with pytest.raises(LatticeError) as err:
            build()
        assert (err.value.code, err.value.message) == (
            "too-large", f"{count} curves (at most {MAX_CURVES})"
        )


def test_the_largest_fibres_are_accepted():
    assert kodaira_config("I", MAX_CURVES, with_tail=False).n == MAX_CURVES
    assert kodaira_config("I", MAX_CURVES - 1).n == MAX_CURVES
    assert kodaira_config("I*", MAX_CURVES - 6).n == MAX_CURVES
    assert len(resolution_script("I", MAX_CURVES - 1)) == MAX_CURVES


def test_fibre_configs_and_scripts_match_golden_bytes():
    """Every fibre and its resolution script, byte for byte as stored in
    tests/golden/fibres.jsonl: the kinds of `ALL_KINDS`, I_b for b <= 12
    and I_b* for b <= 10.  The tailless fibre is the same less T."""
    lines = (Path(__file__).parent / "golden" / "fibres.jsonl").read_bytes().splitlines()
    pairs = set()
    for line in lines:
        stored = json.loads(line)
        kind, b = stored["kind"], stored["b"]
        config = config_to_json(kodaira_config(kind, b))
        record = {"b": b, "config": config, "kind": kind,
                  "script": script_to_json(resolution_script(kind, b))}
        assert json.dumps(record, sort_keys=True, separators=(",", ":")).encode() == line
        fibre = config_to_json(kodaira_config(kind, b, with_tail=False))
        assert fibre["curves"] == config["curves"][:-1]
        assert fibre["edges"] == [e for e in config["edges"] if "T" not in (e["a"], e["b"])]
        pairs.add((kind, b))
    assert pairs >= set(ALL_KINDS) | {("I", b) for b in range(1, 13)} | {
        ("I*", b) for b in range(11)
    }


@pytest.mark.parametrize("kind,b", ALL_KINDS)
def test_resolution_scripts_reach_normal_crossings(kind, b):
    cfg = kodaira_config(kind, b)
    hist = apply_script(cfg, resolution_script(kind, b))
    assert validate(hist.top) == []
    assert snc_certificate(hist, cfg.names) == []
    assert all(not s.joins_boundary for s in hist.steps)


def test_snc_certificate_flags_unresolved():
    cfg = kodaira_config("II")
    hist = apply_script(cfg, [])
    problems = snc_certificate(hist, cfg.names)
    assert any("pa" in p for p in problems)


def test_catalog_ids_and_replay():
    ids = catalog_ids()
    assert "II*" in ids and "25/84" in ids and "rational" in ids and "k3" in ids
    for entry_id in ids:
        e = entry(entry_id)
        hist = apply_script(e.base_config, e.script)
        assert validate(hist.top) == []
        assert len(e.boundary_rule) == len(e.script)


def test_unknown_entry():
    with pytest.raises(LatticeError):
        entry("nope")


def test_table1_matches_stored_values_except_known_cell():
    report = table1()
    rows = {r["row"]: r for r in report["rows"]}
    assert set(rows) == {
        "I_b", "II", "III", "IV", "I_0*", "I_b*", "II*", "III*", "IV*"
    }
    for name, row in rows.items():
        for sample in row["samples"]:
            fiber_ok = sample["vol_fiber"] == row["expected_fiber"]
            assert fiber_ok, (name, sample)
            if name == "I_b*" and sample["b"] == 0:
                # the stored reference value 1/22 is not attained at b = 0:
                # the computed minimum is 1/15 (see the mismatch report)
                assert sample["vol_min"] == "1/15"
                assert not sample["match"]
            else:
                assert sample["vol_min"] == row["expected_min"], (name, sample)
    assert not report["all_match"]


def test_min_volume_never_exceeds_base_volume():
    for entry_id in ("I_1", "I_2", "I_3", "II", "III", "IV", "I0*", "I*_0",
                     "I*_1", "I*_2", "II*", "III*", "IV*"):
        e = entry(entry_id)
        base_vol = volume(e.base_config, sum_divisor(e.base_config))
        pipe_vol = min_volume_pipeline(e)
        assert pipe_vol <= base_vol
        m = max_point_multiplicity(e)
        assert pipe_vol >= base_vol / (m * m)
        if e.pg_annotation is not None:
            assert pipe_vol >= noether_stable_bound(e.pg_annotation)


def test_example_143_report():
    r = example_143()
    assert r["volume_route_a"] == Q(1, 143)
    assert r["volume_route_b"] == Q(1, 143)
    assert r["volume_route_b_resolved"] == Q(1, 143)
    assert r["base_volume"] == Q(1, 42)
    assert r["coefficients_match"]
    assert r["g_class_coefficient"] == 1
    assert r["log_contractions"] == []
    assert len(r["neutral_contractions"]) == 8
    assert r["shape_route_a"]["ok"] and r["shape_route_b"]["ok"]
    assert r["routes_agree"]


def test_contracting_surplus_exceptionals_recovers_one_blowup_model():
    # contracting the eight volume-neutral (-1)-curves by hand reproduces
    # the single-blow-up model; contracting the ninth returns to the base
    from logsurf import BlowupStep, blow_up, contract_minus_one

    base = kodaira_config("II*")
    hist = apply_script(base, resolution_script("II*"))
    cfg = hist.top
    for name in ("E1", "E2", "E3", "E4", "E5", "E7", "E8", "E9"):
        cfg = contract_minus_one(cfg, name)
    route_a = blow_up(base, BlowupStep((("A6", 1), ("A5", 1)), "G"))
    # same lattice up to the surviving exceptional's name (E6 vs G)
    for a in route_a.names:
        for b in route_a.names:
            a2 = "E6" if a == "G" else a
            b2 = "E6" if b == "G" else b
            assert cfg.entry(a2, b2) == route_a.entry(a, b)
    back = contract_minus_one(cfg, "E6")
    assert back == base


def test_example_25_84_report():
    r = example_25_84()
    assert r["volume"] == Q(25, 84)
    assert r["l3_self"] == -16
    assert r["b_l3"] == Q(7, 8)
    assert r["b_l1"] == 1 and r["b_l2"] == 1
    assert r["g_multiplicity"] == 7
    # the stored reference self-intersections for L1/L2 disagree with the
    # replayed lattice; the report flags rather than hides this
    assert set(r["mismatches"]) == {"l1_self", "l2_self"}
    assert r["l1_self"] == -3 and r["l2_self"] == -3
    b = r["boundary_coefficients"]
    assert b["F1"] == Q(1, 2) and b["B1"] == Q(2, 3) and b["B2"] == Q(1, 3)
    assert b["E1"] == Q(6, 7) and b["E6"] == Q(1, 7)


def test_example_rational_report():
    r = example_rational_shape()
    assert r["contracted"] == []
    assert r["boundary_selfs"] == [-2]
    assert r["arms"] == [1, 2, 6] == r["k3_arms"]
    assert r["kc_class_is_zero"] and r["kc_pairings_all_zero"]
    assert r["shape_ok"]


def test_branch_arms_rejects_non_trees():
    cfg = kodaira_config("IV", with_tail=False)
    assert branch_arms(cfg, cfg.names) is None  # a triangle, not a tree
    k3 = kodaira_config("II*")
    assert branch_arms(k3, k3.names) == [1, 2, 6]


def test_minimal_model_shape_rejects_wrong_graphs():
    assert not minimal_model_shape(kodaira_config("II*"))["ok"]


# -- the shape checks against their former name-keyed bodies ------------------


def _former_induced_edges(config, names):
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            m = config.entry(a, b)
            if m:
                out.append((a, b, m))
    return out


def _former_branch_arms(config, names):
    names = list(names)
    edges = _former_induced_edges(config, names)
    if any(m != 1 for _, _, m in edges):
        return None
    if len(edges) != len(names) - 1:
        return None
    adj = {n: [] for n in names}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {names[0]}
    frontier = [names[0]]
    while frontier:
        for o in adj[frontier.pop()]:
            if o not in seen:
                seen.add(o)
                frontier.append(o)
    if len(seen) != len(names):
        return None
    degrees = {n: len(adj[n]) for n in names}
    branches = [n for n, d in degrees.items() if d == 3]
    if len(branches) != 1 or any(d > 3 for d in degrees.values()):
        return None
    root = branches[0]
    arms = []
    for start in adj[root]:
        length = 1
        prev, cur = root, start
        while degrees[cur] == 2:
            nxt = next(o for o in adj[cur] if o != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    return sorted(arms)


def _former_minimal_model_shape(config):
    minus_one = [name for name, s in zip(config.names, config.diag) if s == -1]
    report = {"minus_one_curves": minus_one, "ok": False}
    if len(minus_one) != 1:
        return report
    g = minus_one[0]
    neighbors = config.adjacent(g)
    report["flanking_selfs"] = sorted(config.self_int(n) for n in neighbors)
    others = [name for name in config.names if name != g and name not in neighbors]
    report["other_selfs"] = sorted({config.self_int(n) for n in others})
    report["arms"] = _former_branch_arms(config, list(config.names))
    report["ok"] = (
        len(neighbors) == 2
        and report["flanking_selfs"] == [-3, -3]
        and report["other_selfs"] == [-2]
        and report["arms"] == [1, 2, 7]
    )
    return report


def _former_snc_certificate(history, boundary):
    top = history.top
    names = sorted(boundary)
    out = []
    for i, a in enumerate(names):
        if top.record(a).pa > 0:
            out.append(f"{a}: pa > 0 after resolution")
        for b in names[i + 1 :]:
            if top.entry(a, b) > 1:
                out.append(f"{a}.{b} = {top.entry(a, b)} > 1")
    return out


def _minimal_model():
    """Example 143's route A: the eleven-curve model the shape check accepts."""
    return apply_script(kodaira_config("II*"), [BlowupStep((("A6", 1), ("A5", 1)), "G")]).top


def _shape_cases():
    """(history, boundary) pairs: every catalog entry's top with its
    boundary, the minimal model and seeded edits of it, and seeded random
    configurations, trees, histories and trees with an asymmetric entry."""
    for entry_id in catalog_ids():
        e = entry(entry_id)
        hist = apply_script(e.base_config, e.script)
        yield hist, set(e.base_config.names) | {
            s.exceptional_name for s in e.script if s.joins_boundary
        }
    rng = random.Random(35)
    model = config_to_json(_minimal_model())
    for _ in range(60):
        data = {**model, "curves": [dict(c) for c in model["curves"]]}
        data["edges"] = [dict(e) for e in model["edges"]]
        edit = rng.choice(["self", "edge", "drop"])
        if edit == "self":
            rng.choice(data["curves"])["self"] = rng.choice([-1, -2, -3, -4])
        elif edit == "edge":
            a, b = rng.sample([c["name"] for c in data["curves"]], 2)
            edge = {"a": a, "b": b, "m": rng.choice([1, 2])}
            # a file lists a pair once: a listed pair takes the new entry in place
            listed = [e for e in data["edges"] if {e["a"], e["b"]} == {a, b}]
            for e in listed:
                e["m"] = edge["m"]
            if not listed:
                data["edges"].append(edge)
        else:
            data["edges"].pop(rng.randrange(len(data["edges"])))
        cfg = config_from_json(data)
        yield History(cfg, (), cfg), set(cfg.names)
    for _ in range(100):
        cfg = random_config(rng, 8)
        yield History(cfg, (), cfg), {n for n in cfg.names if rng.random() < 0.8}
        cfg, _ = hanging_config(rng, tree_parents(rng, rng.randint(3, 14)))
        yield History(cfg, (), cfg), set(cfg.names)
        hist = random_history(rng, random_config(rng, 4), max_steps=5)
        yield hist, set(hist.top.names)
        # a tree with one entry changed on one side only: which row a
        # pair is read from decides the graph
        tree, _ = hanging_config(rng, tree_parents(rng, rng.randint(3, 10)))
        gram = [list(row) for row in tree.gram]
        i, j = rng.sample(range(tree.n), 2)
        gram[i][j] = rng.choice([0, 2, -1]) if gram[i][j] else 1
        cfg = CurveConfig(tree.curves, tuple(map(tuple, gram)))
        yield History(cfg, (), cfg), set(cfg.names)


def test_shape_checks_match_their_former_bodies():
    """On symmetric and asymmetric rows the keyed checks give what the
    former name-keyed bodies gave: each pair is read from the row of the
    curve that comes first, in `names` order or in name order."""
    rng = random.Random(36)
    arms = accepted = flagged = 0
    for hist, boundary in _shape_cases():
        top = hist.top
        assert snc_certificate(hist, boundary) == _former_snc_certificate(hist, boundary)
        assert minimal_model_shape(top) == _former_minimal_model_shape(top)
        names = list(top.names)
        for order in (names, rng.sample(names, len(names)), sorted(boundary)):
            assert branch_arms(top, order) == _former_branch_arms(top, order)
            arms += branch_arms(top, order) is not None
        accepted += minimal_model_shape(top)["ok"]
        flagged += bool(snc_certificate(hist, boundary))
    assert arms > 100 and accepted > 0 and flagged > 100, (arms, accepted, flagged)


def test_shape_checks_read_the_model_by_key(name_reads):
    """Past their input names, the three shape checks make no by-name read
    (`adjacent`, `record`, `self_int`, `entry`)."""
    reads = name_reads(shapes, "branch_arms", "minimal_model_shape", "snc_certificate")
    for hist, boundary in _shape_cases():
        shapes.snc_certificate(hist, boundary)
        shapes.minimal_model_shape(hist.top)
        shapes.branch_arms(hist.top, sorted(boundary))
    assert shapes.minimal_model_shape(_minimal_model())["ok"]
    assert reads == []
    # the counter does see the by-name reads of the former bodies
    name_reads(sys.modules[__name__], "_former_minimal_model_shape", "_former_snc_certificate")
    hist, boundary = next(_shape_cases())
    _former_minimal_model_shape(_minimal_model())
    _former_snc_certificate(hist, boundary)
    assert set(reads) == {"adjacent", "self_int", "entry", "record"}


# -- closed-form evaluators ---------------------------------------------------

def test_tz_bound():
    assert tz_bound(1) == 0
    assert tz_bound(2) == Q(1, 3)
    assert tz_bound(3) == 1
    with pytest.raises(LatticeError):
        tz_bound(0)


def test_prop1_volume():
    assert prop1_volume(1, []) == Q(1, 3)
    assert prop1_volume(2, []) == 1
    assert prop1_volume(1, [2]) == Q(4, 5)
    with pytest.raises(LatticeError):
        prop1_volume(0, [])
    with pytest.raises(LatticeError):
        prop1_volume(1, [1])


def test_prop2_and_step1_bounds():
    assert prop2_bound(5) == 3
    assert prop2_bound(0) == 1
    assert prop0_step1_bound(4) == Q(1, 4)
    assert prop0_step1_bound(3) == Q(2, 9)
    assert prop0_step1_bound(12) == Q(3, 4)
    with pytest.raises(LatticeError) as err:
        prop2_bound(-1)
    assert str(err.value) == "bad-pg: pg = -1 < 0"
    with pytest.raises(LatticeError) as err:
        prop0_step1_bound(0)
    assert str(err.value) == "bad-argument: m = 0 < 1"


def test_noether_stable_bound():
    assert noether_stable_bound(1) == Q(1, 143)
    assert noether_stable_bound(0) == 0
    assert noether_stable_bound(143) == 1


def test_glue_volumes():
    vol, pg, ok, violated = glue_volumes([(Q(25, 84), 1)] * 5)
    assert vol == Q(125, 84) and pg == 5 and ok
    assert violated == Q(8, 3)
    assert glue_volumes([]) == (0, 0, True, None)
    vol, pg, ok, violated = glue_volumes([(1, 1), (2, 2)])
    assert violated is None and ok
    with pytest.raises(LatticeError):
        glue_volumes([(-1, 0)])


def test_volume_neutral_contractions_preserve_volume_on_all_rows():
    from logsurf import boundary_adjustment, contract_lc_trivial
    from logsurf.birational import apply_script as apply_

    for entry_id in ("I_1", "I_2", "I_3", "II", "III", "IV", "I0*", "I*_0",
                     "I*_1", "I*_2", "II*", "III*", "IV*"):
        e = entry(entry_id)
        hist = apply_(e.base_config, e.script)
        cls = boundary_adjustment(hist, frozenset()) + sum_divisor(e.base_config)
        before = volume(hist.top, cls)
        cfg, cls2, contracted = contract_lc_trivial(hist.top, cls)
        assert volume(cfg, cls2) == before
        assert cfg.n == hist.top.n - len(contracted)


def test_each_fibre_base_is_built_once(monkeypatch, cold_models):
    """A catalog model is built once per process, on first use, each
    fibre's base and script from one `_resolved` call: on a cleared table
    the first `table1` builds its 13 models, a second builds none, and both
    routes of 1/143 read the II* model it built."""
    built, made = [], []
    real, real_make = catalog._resolved, catalog.make_config
    monkeypatch.setattr(catalog, "_resolved", lambda *a: built.append(a) or real(*a))
    monkeypatch.setattr(catalog, "make_config", lambda *a, **k: made.append(a) or real_make(*a, **k))
    assert table1()["rows"]
    assert len(built) == len(made) == len(cold_models) == 13
    built.clear()
    made.clear()
    assert table1()["rows"]
    assert example_143()["routes_agree"]
    assert built == made == [] and len(cold_models) == 13


def _counted(monkeypatch, name: str) -> list:
    """The calls of `catalog.<name>`, by its binding in the module."""
    calls, real = [], getattr(catalog, name)
    monkeypatch.setattr(catalog, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_each_report_builds_each_value_once(monkeypatch):
    """`table1` reads the model table, not `entry`, and builds one fibre
    class per sample for both columns; `example_143` builds the II* fibre
    class once for route A, route B and the base volume."""
    want = table1()
    entries, fibres = _counted(monkeypatch, "entry"), _counted(monkeypatch, "sum_divisor")
    assert table1() == want
    assert (len(entries), len(fibres)) == (0, 13)
    fibres.clear()
    assert example_143()["routes_agree"]
    assert len(fibres) == 1


def test_one_log_model_step_serves_every_pipeline(monkeypatch):
    """`min_volume_pipeline`, each `table1` sample and route B of
    `example_143` take their contracted log model from `_log_model`."""
    steps = _counted(monkeypatch, "_log_model")
    assert table1()["rows"] and len(steps) == 13
    steps.clear()
    assert example_143()["routes_agree"] and len(steps) == 1
    steps.clear()
    assert min_volume_pipeline(entry("II*")) == Q(1, 143) and len(steps) == 1


def test_the_shared_models_are_never_written(monkeypatch, capsys):
    """Every pipeline, loop and command over the catalog leaves each
    shared model as a fresh build has it: a draft shares the rows of its
    base, so a row mutated in place would show here."""
    from logsurf import cli, contract_lc_trivial, log_class, mmp_contract_disjoint, mmp_contract_log

    assert table1()["rows"] and example_143()["routes_agree"]
    assert example_25_84()["volume"] and example_rational_shape()["shape_ok"]
    for entry_id in catalog_ids():
        e = entry(entry_id)
        base = e.base_config
        assert min_volume_pipeline(e) >= 0
        history = apply_script(base, e.script)
        log = log_class(history, sum_divisor(base), base.names)
        for model, cls in ((base, sum_divisor(base)), (history.top, log)):
            mmp_contract_log(model, cls)
            contract_lc_trivial(model, cls)
            mmp_contract_disjoint(model, base.names[:1])
        assert cli.run(["catalog", entry_id]) == 0
    capsys.readouterr()
    shared = dict(catalog._MODELS)
    assert sorted(shared) == sorted(catalog_ids())
    monkeypatch.setattr(catalog, "_MODELS", {})
    for entry_id, (base, script) in shared.items():
        fresh, fresh_script = catalog._model(entry_id)
        assert script == fresh_script, entry_id
        for attr in ("_rows", "_records", "_keys", "_next"):
            assert getattr(base, attr) == getattr(fresh, attr), (entry_id, attr)


def test_public_views_of_the_models_are_new_objects():
    """A caller's list or dict is its own: editing the script that
    `resolution_script` returns, or an entry's `expected`, changes no
    later call."""
    script = resolution_script("II*")
    want = list(script)
    script.clear()
    assert resolution_script("II*") == want == list(entry("II*").script)
    for entry_id in catalog_ids():
        e = entry(entry_id)
        want = dict(e.expected)
        e.expected.clear()
        e.expected["edited"] = "1"
        assert entry(entry_id).expected == want


def test_the_model_table_holds_only_catalog_ids():
    """The public builders take any b and never enter the table, nor does
    an unknown id: it holds at most one model per catalog id."""
    for entry_id in catalog_ids():
        entry(entry_id)
    size = len(catalog._MODELS)
    assert size == len(catalog_ids())
    assert kodaira_config("I", 500).n == 501 and len(resolution_script("I*", 300)) > 300
    for bad in ("I_500", "I*_300", "", "k3 "):
        with pytest.raises(LatticeError, match="unknown-entry"):
            entry(bad)
    assert len(catalog._MODELS) == size


@pytest.fixture()
def coefficient_reads(monkeypatch):
    """The `Fraction` reads of a divisor (`coeffs`, `items`, `get`), by name."""
    read = []
    for view in ("coeffs", "items", "get"):
        attr = QDivisor.__dict__[view]
        if isinstance(attr, property):
            wrapped = property(lambda d, v=view, f=attr.fget: read.append(v) or f(d))
        else:
            wrapped = lambda d, *args, v=view, f=attr: read.append(v) or f(d, *args)  # noqa: E731
        monkeypatch.setattr(QDivisor, view, wrapped)
    return read


def test_volumes_never_read_a_coefficient_as_a_fraction(coefficient_reads):
    """Transport, the contraction loop and the Zariski loop pass divisors
    along as integer vectors: no `Fraction` coefficient is built for them."""
    volumes = []
    for entry_id in catalog_ids():
        e = entry(entry_id)
        volumes.append(volume(e.base_config, sum_divisor(e.base_config)))
        volumes.append(min_volume_pipeline(e))
    assert coefficient_reads == []
    assert len(volumes) == 32 and all(v >= 0 for v in volumes)
    assert QDivisor({"A": 1}).get("A") == 1 and coefficient_reads == ["get"]
