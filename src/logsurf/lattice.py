"""Exact intersection lattices for curve configurations on surfaces.

A configuration is a finite list of named curve classes together with a
symmetric integer Gram matrix of intersection numbers.  Each curve carries
its arithmetic genus and canonical degree, tied together by adjunction
(kdeg = 2*pa - 2 - self).  Divisors are maps from curve names to exact
rationals.  All arithmetic is exact, in `fractions.Fraction`s or, inside
the pairing and factorization loops, in integers over one common
denominator; there are no floats anywhere in this package.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

Rational = int | Q | str


class LatticeError(Exception):
    """Domain error with a stable machine-readable code."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


def rational(x: Rational) -> Q:
    """Coerce ints, Fractions and "p/q" strings to an exact rational.

    A bool is an int to Python but not a rational here: a JSON `true`
    coefficient is malformed input, not 1.
    """
    if isinstance(x, Q):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Q(x)
    if isinstance(x, str):
        try:
            return Q(x)
        except ZeroDivisionError:
            raise LatticeError("bad-rational", f"{x!r} has a zero denominator") from None
    raise LatticeError("bad-rational", repr(x))


def rational_str(x: Q) -> str:
    """Reduced "p/q" form; integers print without a denominator."""
    return str(Q(x))


@dataclass(frozen=True)
class CurveRecord:
    """One tracked curve class: name, arithmetic genus, canonical degree."""

    name: str
    pa: int
    kdeg: int


@dataclass(frozen=True)
class CurveConfig:
    """Curve classes plus their symmetric intersection matrix.

    `assume_tracked_complete` records the modelling assumption that nefness
    against the tracked curves suffices; it is carried into reports but
    never consulted by any computation.
    """

    curves: tuple[CurveRecord, ...]
    gram: tuple[tuple[int, ...], ...]
    assume_tracked_complete: bool = False

    @cached_property
    def _index(self) -> dict[str, int]:
        return {c.name: i for i, c in enumerate(self.curves)}

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per curve, (index, entry) for every nonzero off-diagonal Gram entry."""
        return tuple(
            tuple((j, m) for j, m in enumerate(row) if m and j != i)
            for i, row in enumerate(self.gram)
        )

    @property
    def n(self) -> int:
        return len(self.curves)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.curves)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LatticeError("unknown-curve", name) from None

    def record(self, name: str) -> CurveRecord:
        return self.curves[self.index(name)]

    def self_int(self, name: str) -> int:
        i = self.index(name)
        return self.gram[i][i]

    def entry(self, a: str, b: str) -> int:
        return self.gram[self.index(a)][self.index(b)]


class QDivisor:
    """A formal rational combination of named curves (absent name = 0)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, Rational] | None = None):
        clean: dict[str, Q] = {}
        for name, value in (coeffs or {}).items():
            q = rational(value)
            if q != 0:
                clean[name] = q
        self.coeffs = clean

    @staticmethod
    def zero() -> "QDivisor":
        return QDivisor({})

    def get(self, name: str) -> Q:
        return self.coeffs.get(name, Q(0))

    def items(self):
        return self.coeffs.items()

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def is_effective(self) -> bool:
        return all(v >= 0 for v in self.coeffs.values())

    def __add__(self, other: "QDivisor") -> "QDivisor":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Q(0)) + v
        return QDivisor(out)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Q(0)) - v
        return QDivisor(out)

    def __rmul__(self, scalar: Rational) -> "QDivisor":
        s = rational(scalar)
        return QDivisor({k: s * v for k, v in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, QDivisor) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {rational_str(v)}" for k, v in sorted(self.coeffs.items()))
        return f"QDivisor({{{body}}})"


def make_config(
    curves: Sequence[tuple[str, int, int]],
    edges: Sequence[tuple[str, str, int]] = (),
    assume_tracked_complete: bool = False,
    unique_names: bool = True,
) -> CurveConfig:
    """Build a configuration from (name, self-intersection, pa) triples.

    Canonical degrees are derived from adjunction.  Edges are (a, b,
    multiplicity).  Repeated names raise `duplicate-curve` unless
    `unique_names` is False, which keeps them (an edge then attaches to
    the last curve of that name) so that `validate` can report them.
    """
    names = [name for name, _, _ in curves]
    if unique_names and len(set(names)) != len(names):
        raise LatticeError("duplicate-curve", "curve names must be unique")
    index = {name: i for i, name in enumerate(names)}
    n = len(curves)
    gram = [[0] * n for _ in range(n)]
    records = []
    for i, (name, self_int, pa) in enumerate(curves):
        gram[i][i] = self_int
        records.append(CurveRecord(name, pa, 2 * pa - 2 - self_int))
    for a, b, m in edges:
        if a not in index or b not in index:
            raise LatticeError("unknown-curve", a if a not in index else b)
        if a == b:
            raise LatticeError("bad-edge", f"self edge on {a}")
        gram[index[a]][index[b]] = m
        gram[index[b]][index[a]] = m
    return CurveConfig(tuple(records), tuple(tuple(row) for row in gram), assume_tracked_complete)


def validate(config: CurveConfig) -> list[str]:
    """Return invariant violations (empty list = clean).  Never raises."""
    out: list[str] = []
    n = len(config.curves)
    seen: set[str] = set()
    for c in config.curves:
        if not c.name:
            out.append("curve with empty name")
        if c.name in seen:
            out.append(f"{c.name}: duplicate name")
        seen.add(c.name)
        if c.pa < 0:
            out.append(f"{c.name}: pa {c.pa} is negative")
    if len(config.gram) != n or any(len(row) != n for row in config.gram):
        out.append(f"gram matrix is not {n}x{n}")
        return out
    for i in range(n):
        for j in range(n):
            if config.gram[i][j] != config.gram[j][i]:
                out.append(f"gram[{i}][{j}] != gram[{j}][{i}] (not symmetric)")
            if i != j and config.gram[i][j] < 0:
                a, b = config.curves[i].name, config.curves[j].name
                out.append(f"gram[{a}][{b}] = {config.gram[i][j]} is negative off-diagonal")
    for i, c in enumerate(config.curves):
        want = 2 * c.pa - 2 - config.gram[i][i]
        if c.kdeg != want:
            out.append(f"{c.name}: kdeg {c.kdeg} violates adjunction (expected {want})")
    return out


def _check_names(config: CurveConfig, d: QDivisor) -> None:
    for name in d.coeffs:
        config.index(name)


def pairing(config: CurveConfig, d1: QDivisor, d2: QDivisor) -> Q:
    """Bilinear extension of the Gram matrix."""
    _check_names(config, d1)
    _check_names(config, d2)
    total = Q(0)
    for a, x in d1.items():
        row = config.gram[config.index(a)]
        for b, y in d2.items():
            total += x * y * row[config.index(b)]
    return total


def _scaled_pairings(
    config: CurveConfig, d: QDivisor
) -> tuple[int, dict[int, int], dict[int, int]]:
    """(s, s·D, s·D . C_j) in integers, s the lcm of D's denominators.

    s·D maps config indices to coefficients; the pairings are summed over
    the Gram diagonal and the sparse adjacency lists, so they list only
    the curves D meets.  An unknown name raises `unknown-curve`.
    """
    adjacent, gram, index = config.neighbours, config.gram, config.index
    scale = lcm(*(c.denominator for c in d.coeffs.values()))
    coeffs: dict[int, int] = {}
    vals: dict[int, int] = {}
    for name, c in d.items():
        i = index(name)
        a = c.numerator * (scale // c.denominator)
        coeffs[i] = a
        vals[i] = vals.get(i, 0) + a * gram[i][i]
        for j, m in adjacent[i]:
            vals[j] = vals.get(j, 0) + a * m
    return scale, coeffs, vals


def pairings_with_curves(config: CurveConfig, d: QDivisor) -> list[Q]:
    """d . C_i for every tracked curve, in configuration order."""
    scale, _, vals = _scaled_pairings(config, d)
    out = [Q(0)] * config.n
    for j, v in vals.items():
        out[j] = Q(v, scale)
    return out


def kdot(config: CurveConfig, d: QDivisor) -> Q:
    """K . D, the linear extension of the stored canonical degrees."""
    _check_names(config, d)
    return sum((x * config.record(a).kdeg for a, x in d.items()), Q(0))


def pa_of(config: CurveConfig, d: QDivisor) -> Q:
    """Arithmetic genus 1 + (D^2 + K.D)/2 of a divisor class."""
    return 1 + Q(pairing(config, d, d) + kdot(config, d), 2)


def is_negative_definite(config: CurveConfig, subset: Iterable[str]) -> bool:
    """Exact negative-definiteness of the Gram block on `subset`.

    Decided by Sylvester's criterion on the integer leading minors of
    `_solve.BorderedLDL`, bordered one curve at a time: each must be
    nonzero with the sign opposite to the one before (Δ₋₁ = 1), that is,
    every pivot Δₖ/Δₖ₋₁ is negative.  The empty subset counts as negative
    definite.
    """
    from . import _solve

    idx = sorted(config.index(name) for name in set(subset))
    factor = _solve.BorderedLDL()
    for k, i in enumerate(idx):
        row = config.gram[i]
        if not factor.border({j: row[idx[j]] for j in range(k) if row[idx[j]]}, row[i]):
            return False
    return True


def is_nef_on_tracked(config: CurveConfig, d: QDivisor) -> bool:
    """True iff D . C_i >= 0 for every tracked curve (relative nefness)."""
    return all(v >= 0 for v in pairings_with_curves(config, d))


def divisor_geq(d1: QDivisor, d2: QDivisor) -> bool:
    """Componentwise effectivity of d1 - d2."""
    diff = d1 - d2
    return diff.is_effective()


def sum_divisor(config: CurveConfig, names: Iterable[str] | None = None) -> QDivisor:
    """The reduced divisor with coefficient 1 on the given curves (default all)."""
    use = config.names if names is None else tuple(names)
    for name in use:
        config.index(name)
    return QDivisor({name: 1 for name in use})


# ---------------------------------------------------------------------------
# JSON formats.
#
# CurveConfig: {"curves": [{"name", "self", "pa"}], "edges": [{"a","b","m"}],
#               "assume_tracked_complete": bool}; kdeg is recomputed on load.
# QDivisor:    {"coeffs": {name: "p/q"}} with fractions in lowest terms.
# ---------------------------------------------------------------------------

def config_to_json(config: CurveConfig) -> dict:
    curves = [
        {"name": c.name, "self": config.gram[i][i], "pa": c.pa}
        for i, c in enumerate(config.curves)
    ]
    edges = []
    for i in range(config.n):
        for j in range(i + 1, config.n):
            if config.gram[i][j]:
                edges.append(
                    {"a": config.curves[i].name, "b": config.curves[j].name, "m": config.gram[i][j]}
                )
    return {
        "curves": curves,
        "edges": edges,
        "assume_tracked_complete": config.assume_tracked_complete,
    }


def json_typed(value, kind: type, field: str):
    """`value` itself if its type is exactly `kind` (so a bool is no int and
    a float or string is neither), else LatticeError("bad-type")."""
    if type(value) is not kind:
        raise LatticeError("bad-type", f"{field} must be {kind.__name__}, got {value!r}")
    return value


def config_from_json(data: Mapping, unique_names: bool = True) -> CurveConfig:
    curves = [
        (c["name"], json_typed(c["self"], int, "self"), json_typed(c["pa"], int, "pa"))
        for c in data["curves"]
    ]
    edges = [(e["a"], e["b"], json_typed(e["m"], int, "m")) for e in data.get("edges", [])]
    flag = "assume_tracked_complete"
    return make_config(curves, edges, json_typed(data.get(flag, False), bool, flag), unique_names)


def divisor_to_json(d: QDivisor) -> dict:
    return {"coeffs": {name: rational_str(v) for name, v in sorted(d.items())}}


def divisor_from_json(data: Mapping, config: CurveConfig | None = None) -> QDivisor:
    coeffs = json_typed(json_typed(data, dict, "divisor").get("coeffs", {}), dict, "coeffs")
    d = QDivisor({name: rational(v) for name, v in coeffs.items()})
    if config is not None:
        _check_names(config, d)
    return d


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
