"""Named builders and scripted pipelines for the reference computations.

The catalog covers the reduced Kodaira fiber configurations with a (-2)-tail,
their minimal embedded resolutions, the minimal-volume pipelines behind the
bundled reference table and the two worked examples (the 1/143 dual route and
the 25/84 glued surface).  Each kind's configuration and resolution come from
one dispatch, `_fiber`, and each sampled table entry from one table,
`_SAMPLES`.  Each catalog entry's base and script are built once per
process, on first use, by `_model`, and shared after: `entry`, `table1`
and the three examples read them there, and rerun every replay,
transport, contraction and decomposition on each call; no result is
cached.  The closed-form bound evaluators live in
`bounds`; the 25/84 report imports its gluing check when it runs, so no
other pipeline compiles `bounds`.  Likewise the dual-graph shape checks live
in `shapes`, which `example_143` and `example_rational_shape` import
when they run, and `CatalogEntry.to_json` imports `formats` when called:
`table1` compiles neither, and no example or id list compiles `formats`.
The examples read their decompositions as the plain tuple of
`zariski._parts`, so no pipeline builds a `ZariskiResult`.

Expected values live in data/expected.json with provenance tags; pipelines
compare against them and report mismatches rather than patching them.
"""
from __future__ import annotations

import json
import os
from collections import namedtuple
from fractions import Fraction as Q

from .birational import (
    BlowupStep,
    apply_script,
    contract_lc_trivial,
    log_class,
    mmp_contract_disjoint,
    mmp_contract_log,
    relative_canonical,
    total_transform,
)
from .lattice import (
    MAX_CURVES,
    CurveConfig,
    LatticeError,
    check_size,
    QDivisor,
    make_config,
    rational,
    rational_str,
    sum_divisor,
)
from .zariski import _parts, volume


FIBER_KINDS = ("I", "II", "III", "IV", "I0*", "I*", "II*", "III*", "IV*")


def _expected() -> dict:
    # Read through the module's loader, from a directory or a zip alike;
    # `importlib.resources` would load `inspect` on Python 3.12 and later.
    path = os.path.join(os.path.dirname(__file__), "data", "expected.json")
    return json.loads(__loader__.get_data(path))


_EXPECTED = _expected()

# The stored values the pipelines compare against, parsed once, here: each
# table row with its two volumes, and each example's rationals by key.
_TABLE = [
    (row, rational(row["vol_fiber"]), rational(row["vol_min"]))
    for row in _EXPECTED["table1"]["rows"]
]
_WANT_143 = {
    "volume": rational(_EXPECTED["example_143"]["volume"]),
    "coefficients": {
        k: rational(v) for k, v in _EXPECTED["example_143"]["coefficients"].items()
    },
}
_WANT_25_84 = {k: rational(_EXPECTED["example_25_84"][k]) for k in ("volume", "l1_self", "l2_self")}


# ---------------------------------------------------------------------------
# Fiber configurations and their resolutions, each kind defined once in
# `_fiber`.  All components have canonical degree 0; the tail is a
# (-2)-curve named T attached at the conventional position.
# ---------------------------------------------------------------------------

# A blown-up point: the branches through it, each a (curve, multiplicity).
_Point = tuple[tuple[str, int], ...]


def _fiber(
    kind: str, b: int | None, with_tail: bool = True
) -> tuple[list[tuple[str, int, int]], list[tuple[str, str, int]], list[_Point] | None]:
    """Curves and edges of one Kodaira kind, with the tail if `with_tail`,
    and the points that the minimal embedded resolution of the
    fiber-plus-tail curve blows up, in order: None for the star kinds,
    which blow every node once in configuration order.

    I_b and I_b* refuse a curve count over `MAX_CURVES` as `too-large`
    before building anything.
    """
    points = None
    edges: list[tuple[str, str, int]] = []
    if kind == "I":
        if b is None or b < 1:
            raise LatticeError("bad-fiber", f"I_b needs b >= 1, got {b}")
        check_size("curves", b + with_tail, MAX_CURVES)
        if b == 1:
            curves = [("C", 0, 1)]
            tail_on = "C"
            points = [(("C", 2),), (("C", 1), ("T", 1))]
        elif b == 2:
            curves = [("C1", -2, 0), ("C2", -2, 0)]
            edges = [("C1", "C2", 2)]
            tail_on = "C1"
            points = [(("C1", 1), ("C2", 1))] * 2 + [(("C1", 1), ("T", 1))]
        else:
            curves = [(f"C{i}", -2, 0) for i in range(1, b + 1)]
            edges = [(f"C{i}", f"C{i + 1}", 1) for i in range(1, b)]
            edges.append((f"C{b}", "C1", 1))
            tail_on = "C1"
            points = [((p, 1), (q, 1)) for p, q, _ in edges + [("C1", "T", 1)]]
    elif kind == "II":
        curves = [("C", 0, 1)]
        tail_on = "C"
        points = [
            (("C", 2),),
            (("C", 1), ("E1", 1)),
            (("C", 1), ("E1", 1), ("E2", 1)),
            (("C", 1), ("T", 1)),
        ]
    elif kind == "III":
        curves = [("A", -2, 0), ("B", -2, 0)]
        edges = [("A", "B", 2)]
        tail_on = "A"
        points = [(("A", 1), ("B", 1)), (("A", 1), ("B", 1), ("E1", 1)), (("A", 1), ("T", 1))]
    elif kind == "IV":
        curves = [("C1", -2, 0), ("C2", -2, 0), ("C3", -2, 0)]
        edges = [("C1", "C2", 1), ("C2", "C3", 1), ("C1", "C3", 1)]
        tail_on = "C1"
        points = [(("C1", 1), ("C2", 1), ("C3", 1)), (("C1", 1), ("T", 1))]
    elif kind == "I0*":
        curves = [("Z", -2, 0)] + [(f"P{i}", -2, 0) for i in range(1, 5)]
        edges = [("Z", f"P{i}", 1) for i in range(1, 5)]
        tail_on = "Z"
    elif kind == "I*":
        if b is None or b < 0:
            raise LatticeError("bad-fiber", f"I_b* needs b >= 0, got {b}")
        check_size("curves", b + 5 + with_tail, MAX_CURVES)
        curves = [(f"Z{i}", -2, 0) for i in range(b + 1)]
        curves += [("P1", -2, 0), ("P2", -2, 0), ("Q1", -2, 0), ("Q2", -2, 0)]
        edges = [(f"Z{i}", f"Z{i + 1}", 1) for i in range(b)]
        edges += [("Z0", "P1", 1), ("Z0", "P2", 1), (f"Z{b}", "Q1", 1), (f"Z{b}", "Q2", 1)]
        tail_on = "Q2"
    elif kind == "II*":
        curves = [(f"A{i}", -2, 0) for i in range(1, 9)] + [("B", -2, 0)]
        edges = [(f"A{i}", f"A{i + 1}", 1) for i in range(1, 8)]
        edges.append(("A6", "B", 1))
        tail_on = "A1"
    elif kind == "III*":
        curves = [(f"A{i}", -2, 0) for i in range(1, 8)] + [("B", -2, 0)]
        edges = [(f"A{i}", f"A{i + 1}", 1) for i in range(1, 7)]
        edges.append(("A4", "B", 1))
        tail_on = "A7"
    elif kind == "IV*":
        curves = [("Z", -2, 0)]
        for arm in ("A", "B", "C"):
            curves += [(f"{arm}1", -2, 0), (f"{arm}2", -2, 0)]
            edges += [("Z", f"{arm}1", 1), (f"{arm}1", f"{arm}2", 1)]
        tail_on = "A2"
    else:
        raise LatticeError("bad-fiber", f"unknown type {kind!r} (one of {', '.join(FIBER_KINDS)})")
    if with_tail:
        curves.append(("T", -2, 0))
        edges.append((tail_on, "T", 1))
    return curves, edges, points


def _resolved(kind: str, b: int | None) -> tuple[CurveConfig, list[BlowupStep]]:
    """The fiber-plus-tail configuration and its resolution script, from one
    `_fiber` call.  The script blows up the fiber's points in order, or for
    a star kind every node once, row by row of the configuration; the
    exceptionals are E1, E2, ... and none joins the boundary."""
    curves, edges, points = _fiber(kind, b)
    base = make_config(curves, edges, assume_tracked_complete=True)
    if points is None:  # keys ascend in configuration order
        records = base._records
        points = [
            ((records[k][0], 1), (records[j][0], 1))
            for k, row in base._rows.items()
            for j in sorted(row)
            if j > k
        ]
    return base, [BlowupStep(point, f"E{k}") for k, point in enumerate(points, 1)]


def kodaira_config(kind: str, b: int | None = None, with_tail: bool = True) -> CurveConfig:
    """Reduced fiber configuration of the given Kodaira type, plus tail.

    I_b needs b >= 1, I_b* needs b >= 0 (tail on a far fork leaf); I0* is
    the four-leaf star with the tail on the centre.
    """
    curves, edges, _ = _fiber(kind, b, with_tail)
    return make_config(curves, edges, assume_tracked_complete=True)


def resolution_script(kind: str, b: int | None = None) -> list[BlowupStep]:
    """Minimal embedded resolution of the fiber-plus-tail curve.

    Every node is blown once; the cusp of II takes the three-step ladder,
    the tangency of III two steps, and the common point of IV one triple
    step.  All exceptionals stay out of the boundary.
    """
    return _resolved(kind, b)[1]


# ---------------------------------------------------------------------------
# Catalog entries.
# ---------------------------------------------------------------------------

class CatalogEntry(
    namedtuple("CatalogEntry", "id base_config script expected pg_annotation", defaults=(None,))
):
    """A named scripted pipeline: base config, blow-up script, expectations.

    A tuple-backed record, as `CurveRecord` is.
    """

    __slots__ = ()

    @property
    def boundary_rule(self) -> tuple[bool, ...]:
        return tuple(s.joins_boundary for s in self.script)

    def to_json(self) -> dict:
        from .formats import config_to_json, script_to_json

        return {
            "id": self.id,
            "base_config": config_to_json(self.base_config),
            "script": script_to_json(self.script),
            "expected": self.expected,
            "pg_annotation": self.pg_annotation,
        }


def _sample_id(row: dict, b: int | None) -> str:
    return row["kind"] if b is None else f"{row['kind']}_{b}"


# Each sampled table entry, by id (`I_1`, `I*_0`, `II`, ...): its table row
# and b, in table order.
_SAMPLES = {
    _sample_id(row, b): (row, b)
    for row in _EXPECTED["table1"]["rows"]
    for b in row["samples"] or [None]
}


def catalog_ids() -> list[str]:
    return [*_SAMPLES, "k3", "rational", "25/84"]


# The catalog's models by id: each entry's base and script, built by
# `_model` on first use and shared by every call after.  No replay or
# contraction writes a model (each edits a private draft), so sharing one
# is safe.  `kodaira_config` and `resolution_script` take any b and always
# build afresh, so the table holds at most one model per catalog id.
_MODELS: dict[str, tuple[CurveConfig, tuple[BlowupStep, ...]]] = {}


def _model(entry_id: str) -> tuple[CurveConfig, tuple[BlowupStep, ...]]:
    """The base configuration and blow-up script of a catalog entry.

    `rational` is a plane cubic C and a line L, with a ladder on C over
    each of their three points, of depth 2, 3 and 7.  `25/84` is the
    cubic and three lines: the common point of C, L1, L2 goes first; each
    remaining C-line point gets a ladder with its infinitely-near points
    on C; each line-L3 point gets a depth-7 ladder along L3; the three
    C-L3 points are plain nodes.  A ladder's steps all join the boundary
    but its last.
    """
    model = _MODELS.get(entry_id)
    if model is not None:
        return model
    if entry_id in _SAMPLES:
        row, b = _SAMPLES[entry_id]
        base, script = _resolved(row["kind"], b)
    elif entry_id == "k3":
        base, script = kodaira_config("II*"), []
    elif entry_id == "rational":
        base = make_config([("C", 9, 1), ("L", 1, 0)], [("C", "L", 3)])
        script = [
            BlowupStep((("C", 1), (f"{stem}{k - 1}" if k > 1 else "L", 1)), f"{stem}{k}", k < depth)
            for stem, depth in (("A", 2), ("B", 3), ("D", 7))
            for k in range(1, depth + 1)
        ]
    elif entry_id == "25/84":
        base = make_config(
            [("C", 9, 1), ("L1", 1, 0), ("L2", 1, 0), ("L3", 1, 0)],
            [("C", "L1", 3), ("C", "L2", 3), ("C", "L3", 3),
             ("L1", "L2", 1), ("L1", "L3", 1), ("L2", "L3", 1)],
        )
        script = [BlowupStep((("C", 1), ("L1", 1), ("L2", 1)), "T0")]
        for side, line in (("", "L1"), ("r", "L2")):
            script += [
                BlowupStep((("C", 1), (f"{stem}{k - 1}{side}" if k > 1 else line, 1)),
                           f"{stem}{k}{side}", k < depth)
                for stem, depth in (("B", 3), ("F", 2))
                for k in range(1, depth + 1)
            ]
            script += [
                BlowupStep(((f"E{k - 1}{side}" if k > 1 else line, 1), ("L3", 1)), f"E{k}{side}", k < 7)
                for k in range(1, 8)
            ]
        script += [BlowupStep((("C", 1), ("L3", 1)), f"M{i}") for i in (1, 2, 3)]
    else:
        raise LatticeError("unknown-entry", entry_id)
    model = _MODELS[entry_id] = base, tuple(script)
    return model


def entry(entry_id: str) -> CatalogEntry:
    """Look up a catalog entry by id (see `catalog_ids`).  Its base and
    script are the shared models of `_model`; `expected` is a new dict."""
    base, script = _model(entry_id)
    if entry_id in _SAMPLES:
        row = _SAMPLES[entry_id][0]
        expected = {"vol_fiber": row["vol_fiber"], "vol_min": row["vol_min"]}
    elif entry_id == "k3":
        expected = {"vol_fiber": "1/42"}
    else:
        expected = dict(_EXPECTED["example_rational" if entry_id == "rational" else "example_25_84"])
    return CatalogEntry(entry_id, base, script, expected, pg_annotation=1)


def min_volume_pipeline(entry: CatalogEntry) -> Q:
    """Resolve, transport the log class, contract, and take the volume.

    The class is the log class with the full fiber-plus-tail curve as
    boundary, transported from the reduced base curve: the base pairs to
    zero with every tracked curve (all canonical degrees vanish there), so
    the reduced curve represents K + B downstairs.
    """
    base = entry.base_config
    history = apply_script(base, entry.script)
    cls = log_class(history, sum_divisor(base), base.names)
    cfg, cls, _ = mmp_contract_log(history.top, cls)
    return volume(cfg, cls)


def table1() -> dict:
    """Both volume columns for all rows, checked against the stored values."""
    rows_out = []
    for row, want_fiber, want_min in _TABLE:
        samples = []
        for b in row["samples"] or [None]:
            sample = entry(_sample_id(row, b))
            cfg = sample.base_config
            vol_fiber = volume(cfg, sum_divisor(cfg))
            vol_min = min_volume_pipeline(sample)
            samples.append(
                {
                    "b": b,
                    "vol_fiber": rational_str(vol_fiber),
                    "vol_min": rational_str(vol_min),
                    "match": vol_fiber == want_fiber and vol_min == want_min,
                }
            )
        rows_out.append(
            {
                "row": row["row"],
                "expected_fiber": row["vol_fiber"],
                "expected_min": row["vol_min"],
                "samples": samples,
                "match": all(s["match"] for s in samples),
            }
        )
    return {
        "rows": rows_out,
        "all_match": all(r["match"] for r in rows_out),
        "provenance": _EXPECTED["table1"]["provenance"],
    }


def table1_text(report: dict | None = None) -> str:
    report = report or table1()
    lines = [f"{'row':<8} {'vol(fiber)':<12} {'min vol':<12} {'samples':<16} status"]
    for row in report["rows"]:
        samples = ",".join(str(s["b"]) for s in row["samples"] if s["b"] is not None) or "-"
        computed_min = sorted({s["vol_min"] for s in row["samples"]})
        status = "ok" if row["match"] else "MISMATCH(computed " + "|".join(computed_min) + ")"
        lines.append(
            f"{row['row']:<8} {row['expected_fiber']:<12} {row['expected_min']:<12} "
            f"{samples:<16} {status}"
        )
    lines.append("all rows match" if report["all_match"] else "some rows mismatch")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Worked examples.
# ---------------------------------------------------------------------------

def example_143() -> dict:
    """Both routes to the minimal volume 1/143 over the II*-plus-tail base.

    Route A blows up the single node between the branch carrier A6 and its
    neighbour A5 and decomposes directly.  Route B resolves every node,
    runs the log contraction loop (which finds nothing to contract: the
    class meets every exceptional positively), takes the volume there, and
    then contracts the volume-neutral (-1)-curves to reach the same
    eleven-curve model as route A.  Each route's model is decomposed once,
    as the plain tuple of `zariski._parts`: route B hands its (P, N) to
    `contract_lc_trivial`, and no result record is built.
    """
    from .shapes import minimal_model_shape

    base, script = _model("II*")

    step = BlowupStep((("A6", 1), ("A5", 1)), "G")
    hist_a = apply_script(base, [step])
    cls_a = log_class(hist_a, sum_divisor(base), base.names)
    positive_a, _, _, vol_a = _parts(hist_a.top, cls_a)
    coefficients = {name: positive_a.get(name) for name in base.names}
    expected_coeffs = dict(_WANT_143["coefficients"])

    hist_b = apply_script(base, script)
    cls_b = log_class(hist_b, sum_divisor(base), base.names)
    cfg_b, cls_b, contracted_log = mmp_contract_log(hist_b.top, cls_b)
    positive_b, negative_b, _, vol_b_resolved = _parts(cfg_b, cls_b)
    cfg_b, cls_b, contracted_neutral = contract_lc_trivial(
        cfg_b, cls_b, decomposition=(positive_b, negative_b)
    )
    vol_b = volume(cfg_b, cls_b)

    shape_a = minimal_model_shape(hist_a.top)
    shape_b = minimal_model_shape(cfg_b)
    return {
        "volume_route_a": vol_a,
        "volume_route_b": vol_b,
        "volume_route_b_resolved": vol_b_resolved,
        "base_volume": volume(base, sum_divisor(base)),
        "expected_volume": _WANT_143["volume"],
        "coefficients": coefficients,
        "expected_coefficients": expected_coeffs,
        "coefficients_match": coefficients == expected_coeffs,
        "g_class_coefficient": cls_a.get("G"),
        "log_contractions": contracted_log,
        "neutral_contractions": contracted_neutral,
        "shape_route_a": shape_a,
        "shape_route_b": shape_b,
        "routes_agree": vol_a == vol_b == vol_b_resolved
        and shape_a["ok"]
        and shape_b["ok"],
    }


def example_25_84() -> dict:
    """The glued stable surface with volume 25/84 per component.

    Builds the plane configuration, replays the blow-up script, forms the
    log class from the line classes (the cubic cancels against the
    canonical class) and reports the decomposition data along with the
    gluing arithmetic for n components.
    """
    from .bounds import glue_volumes

    expected = _EXPECTED["example_25_84"]
    hist = apply_script(*_model("25/84"))
    lines = QDivisor({"L1": 1, "L2": 1, "L3": 1})
    cls = log_class(hist, lines, {"C", "L1", "L2", "L3"})
    positive, _, _, vol = _parts(hist.top, cls)
    cubic = QDivisor({"C": 1})
    kc_adjust = relative_canonical(hist) + cubic - total_transform(hist, cubic)
    boundary = {"C", "L1", "L2", "L3"} | {
        s.exceptional_name for s in hist.steps if s.joins_boundary
    }
    b_coeffs = {name: positive.get(name) - kc_adjust.get(name) for name in boundary}
    computed = {
        "volume": vol,
        "l3_self": hist.top.self_int("L3"),
        "l1_self": hist.top.self_int("L1"),
        "l2_self": hist.top.self_int("L2"),
        "b_l3": b_coeffs["L3"],
        "b_l1": b_coeffs["L1"],
        "b_l2": b_coeffs["L2"],
    }
    mismatches = {
        key: {"computed": computed[key], "expected": _WANT_25_84[key]}
        for key in ("l1_self", "l2_self")
        if computed[key] != _WANT_25_84[key]
    }
    return {
        **computed,
        "expected_volume": _WANT_25_84["volume"],
        "boundary_coefficients": b_coeffs,
        "g_multiplicity": cls.get("E7"),
        "mismatches": mismatches,
        "gluing_5": glue_volumes([(vol, expected["pg_per_component"])] * 5),
    }


def example_rational_shape() -> dict:
    """Plane cubic + line model of the minimal-volume boundary shape.

    Successive blow-ups over the three cubic-line points leave no
    (-1)-curve disjoint from the cubic; the surviving boundary curves are
    (-2)-curves forming the chain-of-nine-with-one-branch graph, and the
    transported canonical-plus-cubic class pairs to zero with everything.
    """
    from .shapes import branch_arms

    hist = apply_script(*_model("rational"))
    cfg, contracted = mmp_contract_disjoint(hist.top, {"C"})
    blacks = {"A2", "B3", "D7"}
    whites = [name for name in cfg.names if name != "C" and name not in blacks]
    selfs = sorted({cfg.self_int(name) for name in whites})
    arms = branch_arms(cfg, whites)
    k3 = _model("k3")[0]
    k3_arms = branch_arms(k3, list(k3.names))
    c_div = QDivisor({"C": 1})
    kc_class = relative_canonical(hist) + c_div - total_transform(hist, c_div)
    # (K + C).X for every curve X, read off the records and C's row
    c_row = cfg._rows[cfg._key("C")]
    kc_pairings = [kdeg + c_row.get(k, 0) for k, (_, _, kdeg) in cfg._records.items()]
    return {
        "contracted": contracted,
        "boundary": sorted(whites),
        "boundary_selfs": selfs,
        "arms": arms,
        "k3_arms": k3_arms,
        "k3_selfs": sorted({k3.self_int(n) for n in k3.names}),
        "kc_class_is_zero": kc_class == QDivisor.zero(),
        "kc_pairings_all_zero": all(v == 0 for v in kc_pairings),
        "shape_ok": selfs == [-2]
        and arms is not None
        and arms == k3_arms,
    }
