"""The JSON file formats, their readers and writers, and `validate`.

CurveConfig: {"curves": [{"name", "self", "pa"}], "edges": [{"a","b","m"}],
              "assume_tracked_complete": bool}; kdeg is recomputed on load.
QDivisor:    {"coeffs": {name: "p/q"}} with fractions in lowest terms.
Script:      [{"point": [{"curve", "mult"}], "name", "joins_boundary"}, ...]
History:     {"base": <config>, "steps": <script>}; the top is replayed.
Decomposition: {"positive", "negative": <divisor>, "support": [name],
                "big": bool, "volume": "p/q"}.

Every reader checks each JSON type (`json_typed`, `_fields`), so a
malformed file is one coded error, never a traceback; `validate` reports
what a loaded configuration breaks.  Only the commands that read or
write these files load this module, and `CatalogEntry.to_json` and
`ZariskiResult.to_json` import it when called, so `table1`, the
examples, a bare `catalog` and `noether` never compile it.  It imports
`birational` only inside the step, script and history functions, so
reading a configuration or a divisor compiles no blow-up code.
"""
from __future__ import annotations

from fractions import Fraction as Q
from typing import TYPE_CHECKING, Mapping, Sequence

from ._base import LatticeError, check_size, rational_str
from .lattice import CurveConfig, QDivisor, make_config

if TYPE_CHECKING:
    from .birational import BlowupStep, History


def validate(config: CurveConfig) -> list[str]:
    """Return invariant violations (empty list = clean).  Never raises.

    Symmetry and the signs of off-diagonal entries are read off the
    sparse rows in O(nnz), in the row-major (i, j) order of the matrix;
    the dense `gram` view is never built.
    """
    out: list[str] = []
    seen: set[str] = set()
    curves = config.curves
    for c in curves:
        if not c.name:
            out.append("curve with empty name")
        if c.name in seen:
            out.append(f"{c.name}: duplicate name")
        seen.add(c.name)
        if c.pa < 0:
            out.append(f"{c.name}: pa {c.pa} is negative")
    cells = [dict(row) for row in config.neighbours]
    unmatched: list[list[int]] = [[] for _ in cells]  # j with gram[j][i] != 0 == gram[i][j]
    for j, row in enumerate(cells):
        for i in row:
            if j not in cells[i]:
                unmatched[i].append(j)
    for i, row in enumerate(cells):
        for j in sorted([*row, *unmatched[i]]):
            m = row.get(j, 0)
            if cells[j].get(i, 0) != m:
                out.append(f"gram[{i}][{j}] != gram[{j}][{i}] (not symmetric)")
            if m < 0:
                a, b = curves[i].name, curves[j].name
                out.append(f"gram[{a}][{b}] = {m} is negative off-diagonal")
    for c, self_int in zip(curves, config.diag):
        want = 2 * c.pa - 2 - self_int
        if c.kdeg != want:
            out.append(f"{c.name}: kdeg {c.kdeg} violates adjunction (expected {want})")
    return out


def json_typed(value, kind: type, field: str):
    """`value` itself if its type is exactly `kind` (so a bool is no int and
    a float or string is neither), else LatticeError("bad-type")."""
    if type(value) is not kind:
        raise LatticeError("bad-type", f"{field} must be {kind.__name__}, got {value!r}")
    return value


def _fields(entry: Mapping, where: str, fields: tuple[tuple[str, type], ...]) -> tuple:
    """The values of `fields`, (key, type) pairs, in the JSON object `entry`,
    each checked by `json_typed`; no object or a missing key is `bad-type` too,
    naming the entry (and the key)."""
    json_typed(entry, dict, where)
    try:
        return tuple([json_typed(entry[key], kind, key) for key, kind in fields])
    except KeyError as missing:
        raise LatticeError("bad-type", f'{where} has no "{missing.args[0]}"') from None


def config_to_json(config: CurveConfig) -> dict:
    """Curves in configuration order; one edge per nonzero entry above the
    diagonal, row by row."""
    names = config.names
    curves = [
        {"name": c.name, "self": self_int, "pa": c.pa}
        for c, self_int in zip(config.curves, config.diag)
    ]
    edges = [
        {"a": names[i], "b": names[j], "m": m}
        for i, row in enumerate(config.neighbours)
        for j, m in row
        if j > i
    ]
    return {
        "curves": curves,
        "edges": edges,
        "assume_tracked_complete": config.assume_tracked_complete,
    }


def config_from_json(data: Mapping, unique_names: bool = True) -> CurveConfig:
    """A configuration from its JSON form.  A missing field, or an entry or
    list of the wrong JSON type, is `bad-type`, naming its entry
    (`curves[0] has no "self"`, `curves[0] must be dict, got 5`).  An edge
    naming a curve the file does not list is malformed input, `bad-edge`,
    as a self edge is, and so is a pair of curves listed twice, in either
    orientation: `make_config` lets a later edge replace an earlier one,
    but a file that lists both contradicts itself.  The pair is named in
    configuration order."""
    (listed,) = _fields(data, "configuration", (("curves", list),))
    curve = (("name", str), ("self", int), ("pa", int))
    edge = (("a", str), ("b", str), ("m", int))
    curves = [_fields(c, f"curves[{i}]", curve) for i, c in enumerate(listed)]
    edges = [_fields(e, f"edges[{i}]", edge)
             for i, e in enumerate(json_typed(data.get("edges", []), list, "edges"))]
    position = {name: i for i, (name, _, _) in enumerate(curves)}
    unlisted = [x for a, b, _ in edges for x in (a, b) if x not in position]
    if unlisted:
        raise LatticeError("bad-edge", f"{unlisted[0]} is not a listed curve")
    seen = set()
    for a, b, _ in edges:
        if a == b:  # `make_config` refuses it, after the edges before it
            break
        pair = (a, b) if position[a] < position[b] else (b, a)
        if pair in seen:
            raise LatticeError("bad-edge", "{}.{} is listed twice".format(*pair))
        seen.add(pair)
    flag = "assume_tracked_complete"
    return make_config(curves, edges, json_typed(data.get(flag, False), bool, flag), unique_names)


def divisor_to_json(d: QDivisor) -> dict:
    return {"coeffs": {name: rational_str(v) for name, v in sorted(d.items())}}


def divisor_from_json(data: Mapping, config: CurveConfig | None = None) -> QDivisor:
    coeffs = json_typed(json_typed(data, dict, "divisor").get("coeffs", {}), dict, "coeffs")
    d = QDivisor(coeffs)
    if config is not None:
        for name in d.num:
            config._key(name)
    return d


def decomposition_to_json(
    positive: QDivisor, negative: QDivisor, support: frozenset[str], big: bool, volume: Q
) -> dict:
    """A Zariski decomposition's form: `ZariskiResult.to_json` and the CLI."""
    return {
        "positive": divisor_to_json(positive),
        "negative": divisor_to_json(negative),
        "support": sorted(support),
        "big": big,
        "volume": rational_str(volume),
    }


def step_to_json(step: BlowupStep) -> dict:
    return {
        "point": [{"curve": name, "mult": m} for name, m in step.branches],
        "name": step.exceptional_name,
        "joins_boundary": step.joins_boundary,
    }


def step_from_json(data: Mapping) -> BlowupStep:
    from .birational import BlowupStep

    return BlowupStep(*_step_fields(data, "step"))


def _step_fields(data: Mapping, where: str) -> tuple[tuple[tuple[str, int], ...], str, bool]:
    """A step's (branches, name, joins_boundary), read through `_fields`:
    `steps[0].point[0] has no "mult"`."""
    (point,) = _fields(data, where, (("point", list),))
    branch = (("curve", str), ("mult", int))
    branches = tuple(_fields(p, f"{where}.point[{i}]", branch) for i, p in enumerate(point))
    joins = json_typed(data.get("joins_boundary", False), bool, "joins_boundary")
    (name,) = _fields(data, where, (("name", str),))
    return branches, name, joins


def script_to_json(steps: Sequence[BlowupStep]) -> list[dict]:
    return [step_to_json(s) for s in steps]


def script_from_json(data: Sequence[Mapping]) -> list[BlowupStep]:
    """Any sequence of step objects, capped (`too-large`) before any is read."""
    from .birational import MAX_SCRIPT_STEPS, BlowupStep

    if isinstance(data, str) or not isinstance(data, Sequence):
        json_typed(data, list, "steps")
    check_size("steps", len(data), MAX_SCRIPT_STEPS)
    return [BlowupStep(*_step_fields(s, f"steps[{i}]")) for i, s in enumerate(data)]


def history_to_json(history: History) -> dict:
    return {"base": config_to_json(history.base), "steps": script_to_json(history.steps)}


def history_from_json(data: Mapping) -> History:
    from .birational import apply_script

    base, steps = _fields(data, "history", (("base", dict), ("steps", list)))
    return apply_script(config_from_json(base), script_from_json(steps))
