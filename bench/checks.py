"""Exact output checks, run outside the timed interval.

Every expected value here comes from the paper or from the benchmark's
own reference arithmetic (``gen.RefLattice``); nothing is read back from
the package's data files.  A check returns normally when the output is
right and raises ``CheckError`` otherwise.
"""
from __future__ import annotations

import json
from fractions import Fraction as Q
from pathlib import Path

from gen import RefLattice

GOLDEN = Path(__file__).resolve().parent / "golden"


class CheckError(Exception):
    pass


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# Paper numbers.
# ---------------------------------------------------------------------------

# row -> (samples, vol(fiber), minimal volume), as published.
TABLE1 = {
    "I_b": ((1, 2, 3), "1/2", "1/7"),
    "II": ((None,), "1/2", "1/7"),
    "III": ((None,), "1/2", "1/7"),
    "IV": ((None,), "1/2", "1/15"),
    "I_0*": ((None,), "1/2", "5/21"),
    "I_b*": ((0, 1, 2), "1/6", "1/22"),
    "II*": ((None,), "1/42", "1/143"),
    "III*": ((None,), "1/20", "1/63"),
    "IV*": ((None,), "1/12", "1/35"),
}

# Cells where the program's computed value differs from the stored one.
# They are checked against the computed value and listed in every run
# record, so they stay visible and are never passed silently.
KNOWN_DISCREPANCIES = [
    {"where": "table1 I_b* b=0 vol_min", "stored": "1/22", "computed": "1/15"},
    {"where": "example_25_84 l1_self", "stored": "-2", "computed": "-3"},
    {"where": "example_25_84 l2_self", "stored": "-2", "computed": "-3"},
]

COEFFS_143 = {
    "A8": Q(2, 11), "A7": Q(4, 11), "A6": Q(6, 11), "B": Q(3, 11),
    "A5": Q(6, 13), "A4": Q(5, 13), "A3": Q(4, 13), "A2": Q(3, 13),
    "A1": Q(2, 13), "T": Q(1, 13),
}


def check_table1(report: dict) -> None:
    rows = report["rows"]
    require([r["row"] for r in rows] == list(TABLE1), "table1 row order")
    for row in rows:
        samples, fiber, minimal = TABLE1[row["row"]]
        require(tuple(s["b"] for s in row["samples"]) == samples, f"{row['row']} samples")
        for s in row["samples"]:
            want_min = "1/15" if (row["row"], s["b"]) == ("I_b*", 0) else minimal
            require(s["vol_fiber"] == fiber, f"{row['row']} b={s['b']} vol_fiber")
            require(s["vol_min"] == want_min, f"{row['row']} b={s['b']} vol_min")
            require(s["match"] == (want_min == minimal), f"{row['row']} b={s['b']} match")
    require(report["all_match"] is False, "table1 all_match hides the I_b* discrepancy")


def check_143(r: dict) -> None:
    want = Q(1, 143)
    require(r["volume_route_a"] == want, "1/143 route A")
    require(r["volume_route_b"] == want, "1/143 route B")
    require(r["volume_route_b_resolved"] == want, "1/143 route B resolved")
    require(r["base_volume"] == Q(1, 42), "II* base volume")
    require(r["coefficients"] == COEFFS_143, "1/143 coefficients")
    require(r["coefficients_match"] is True, "1/143 coefficients_match")
    require(r["routes_agree"] is True, "1/143 routes_agree")


def check_25_84(r: dict) -> None:
    require(r["volume"] == Q(25, 84), "25/84 volume")
    require(r["b_l3"] == Q(7, 8) and r["b_l1"] == 1 and r["b_l2"] == 1, "25/84 boundary")
    require(r["l3_self"] == -16, "25/84 L3 self-intersection")
    require(r["l1_self"] == r["l2_self"] == -3, "25/84 L1/L2 self (known discrepancy)")
    require(r["gluing_5"] == (Q(125, 84), 5, True, Q(8, 3)), "25/84 gluing of five")


def check_rational(r: dict) -> None:
    require(r["shape_ok"] is True, "rational shape_ok")
    require(r["arms"] == r["k3_arms"] == [1, 2, 6], "rational arms")
    require(r["boundary_selfs"] == [-2] and r["contracted"] == [], "rational boundary")
    require(r["kc_pairings_all_zero"] is True, "rational K+C pairings")


def check_paper(out) -> None:
    table, e143, e2584, rational = out
    check_table1(table)
    check_143(e143)
    check_25_84(e2584)
    check_rational(rational)


# ---------------------------------------------------------------------------
# Zariski certificates from the benchmark's own pairing loop.
# ---------------------------------------------------------------------------

def check_certificate(ref: RefLattice, d: dict, result) -> None:
    """P + N = D, N >= 0, P.C >= 0, P.N_j = 0, vol = P^2 when big.

    With a negative definite support these determine the decomposition
    uniquely; callers establish definiteness (diagonal dominance) or
    compare the volume against a golden value.
    """
    p = dict(result.positive.items())
    n = dict(result.negative.items())
    names = set(ref.order)
    require(set(p) <= names and set(n) <= names, "unknown curve in result")
    for name in names | set(d):
        require(p.get(name, 0) + n.get(name, 0) == d.get(name, 0), f"P + N != D at {name}")
    require(all(x > 0 for x in n.values()), "N not effective")
    require(set(result.support) == set(n), "support != supp N")
    for name in ref.order:
        dot = ref.pairing(p, {name: 1})
        require(dot >= 0, f"P.{name} < 0")
        if name in n:
            require(dot == 0, f"P.{name} != 0 on the support")
    square = ref.pairing(p, p)
    require(result.big == (square > 0), "big flag")
    require(result.volume == (square if square > 0 else 0), "vol != P^2")


def tower_steps(n: int):
    """The tower script: G1 at C.E, then Gk at C.G(k-1); all but Gn join."""
    steps, prev = [], "E"
    for k in range(1, n + 1):
        steps.append(((("C", 1), (prev, 1)), f"G{k}", k < n))
        prev = f"G{k}"
    return steps


def load_tower_golden() -> dict:
    data = json.loads((GOLDEN / "towers.json").read_text("utf-8"))
    return {key: Q(value) for key, value in data.items()}


def check_tower(golden: dict, key: str, base, n: int, out) -> None:
    curves, edges, d, b, base_volume = base
    history, cls, result = out
    got = [(s.branches, s.exceptional_name, s.joins_boundary) for s in history.steps]
    require(got == tower_steps(n), "tower script")
    ref = RefLattice(curves, edges)
    for branches, name, _ in got:
        ref.blow_up(branches, name)
    records, gram = ref.curves_and_gram()
    require(tuple((c.name, c.pa, c.kdeg) for c in history.top.curves) == records, "tower records")
    require(history.top.gram == gram, "tower Gram matrix")
    check_certificate(ref, dict(cls.items()), result)
    v = result.volume
    require(base_volume - b * b / n <= v < base_volume, "tower volume outside criterion 7 bounds")
    require(v == golden[key], f"tower volume {v} != golden {golden[key]}")


# ---------------------------------------------------------------------------
# Surgery round trip.
# ---------------------------------------------------------------------------

def reference_semistable(ref: RefLattice, delta) -> set:
    """Largest subset where every rational member meets the rest >= 2 times."""
    current = set(delta)
    while True:
        doomed = {
            a for a in current
            if ref.pa[a] == 0 and sum(ref.meet(a, b) for b in current if b != a) < 2
        }
        if not doomed:
            return current
        current -= doomed


def _components(ref: RefLattice, names: set) -> list[frozenset]:
    left, out = set(names), []
    while left:
        comp, frontier = set(), [min(left)]
        while frontier:
            a = frontier.pop()
            if a in comp:
                continue
            comp.add(a)
            frontier += [b for b, m in ref.adj[a].items() if m and b in left]
        out.append(frozenset(comp))
        left -= comp
    return sorted(out, key=min)


def check_surgery(case, out) -> None:
    """Write path, transport, semistable part and the exact round trip."""
    base_config, steps, ref, d, boundary, marked = case
    history, up, adjust, down, split, contracted_config, contracted = out
    records, gram = ref.curves_and_gram()
    top = history.top
    require(tuple((c.name, c.pa, c.kdeg) for c in top.curves) == records, "top records")
    require(top.gram == gram, "top Gram matrix")
    exceptional = [name for _, name, _ in steps]
    # total transform: same base coefficients, orthogonal to exceptionals
    up = dict(up.items())
    require({k: v for k, v in up.items() if k not in exceptional} == {k: v for k, v in d.items() if v},
            "total transform changes base coefficients")
    for e in exceptional:
        require(ref.pairing(up, {e: 1}) == 0, f"total transform meets {e}")
    # boundary adjustment R: K + B = pullback + R, tested against each exceptional
    adjust = dict(adjust.items())
    require(set(adjust) <= set(exceptional), "adjustment off the exceptionals")
    running = set(boundary) | {name for _, name, joins in steps if joins}
    b_top = dict.fromkeys(running, 1)
    for e in exceptional:
        require(ref.pairing(adjust, {e: 1}) == ref.kdeg[e] + ref.pairing(b_top, {e: 1}),
                f"boundary adjustment wrong on {e}")
    require(dict(down.items()) == {k: v for k, v in d.items() if v}, "pushforward")
    semistable = reference_semistable(ref, running)
    require(set(split.C) == semistable, "semistable part")
    require(set(split.E) == running - semistable, "semistable complement")
    genera = []
    for comp in _components(ref, semistable):
        ones = dict.fromkeys(comp, 1)
        square = ref.pairing(ones, ones)
        kd = sum(ref.kdeg[a] for a in comp)
        genera.append((comp, 1 + Q(square + kd, 2)))
    require(list(split.component_genera) == genera, "component genera")
    require(contracted_config == base_config, "round trip does not return to the base")
    require(sorted(contracted) == sorted(exceptional), "round trip contracted set")
    require(marked not in contracted, "marked curve contracted")


# ---------------------------------------------------------------------------
# CLI golden bytes.
# ---------------------------------------------------------------------------

def dumps(obj) -> str:
    """The CLI's JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_zariski(result) -> str:
    def coeffs(div):
        return {"coeffs": {k: str(v) for k, v in sorted(div.items())}}

    return dumps({
        "positive": coeffs(result.positive),
        "negative": coeffs(result.negative),
        "support": sorted(result.support),
        "big": result.big,
        "volume": str(result.volume),
    })


def render_noether(pg: int) -> str:
    return dumps({"pg": pg, "bound": str(Q(pg, 143))})


def static_golden(name: str) -> str:
    return (GOLDEN / name).read_text("utf-8")
