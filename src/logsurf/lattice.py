"""Exact intersection lattices for curve configurations on surfaces.

A configuration is a finite list of named curve classes together with a
symmetric integer Gram matrix of intersection numbers.  Each curve carries
its arithmetic genus and canonical degree, tied together by adjunction
(kdeg = 2*pa - 2 - self).  A divisor maps curve names to exact rationals,
stored as one integer vector over one common denominator; pairings,
transport and the factorization loops run on those integers, and
`fractions.Fraction`s are built only where a coefficient or a result is
read.  There are no floats anywhere in this package.

The error type and the rational coercion live in the leaf module
`_base`.  The JSON forms of a configuration and a divisor, and
`validate`, the check on what their readers load, live in `formats`;
this module reads no JSON.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, TypeVar

from ._base import LatticeError, Rational, check_size, rational, rational_str

K = TypeVar("K")

# Largest accepted configuration; a larger one is refused as `too-large`
# before any row is built.
MAX_CURVES = 10_000


class CurveRecord(namedtuple("CurveRecord", "name pa kdeg")):
    """One tracked curve class: name, arithmetic genus, canonical degree.

    The record a model hands out (`CurveConfig.curves`, `record`): an
    immutable tuple of the three fields, so assigning a field raises
    `AttributeError`.  It compares and hashes as the tuple of its fields,
    so it also equals that plain tuple, which is what a model stores: a
    tuple subclass costs about three times a plain tuple to build, and
    the write kernels build one per changed curve.
    """

    __slots__ = ()


class CurveConfig:
    """Curve classes plus their symmetric intersection matrix, stored sparsely.

    Every curve has a stable integer key, ascending in configuration
    order; a new curve takes a key never used before, and removing a
    curve renumbers nothing.  A curve's row maps keys to its nonzero Gram
    entries, the self-intersection included.  The records (plain (name,
    pa, kdeg) triples, wrapped as `CurveRecord`s by `curves` and
    `record`), the rows and the name-to-key map are dicts in
    configuration order.  The write path in `birational` copies them once
    into a private draft, edits the draft in place, replacing (never
    mutating) the rows it changes, and hands it out as the new model: one
    copy per single step, replay or contraction loop.  Every computation
    (pairings, Zariski, the ND check) reads the rows by key.  The
    positional views (`index`, `neighbours`, `diag`, and `gram`, a dense
    tuple-of-tuples built only on request) serve output, equality and
    validation; each is derived on first use, in one pass over the rows.

    `assume_tracked_complete` records the modelling assumption that nefness
    against the tracked curves suffices; it is carried into reports but
    never consulted by any computation.
    """

    def __init__(
        self,
        curves: Sequence[CurveRecord | tuple[str, int, int]],
        gram: Sequence[Sequence[int]],
        assume_tracked_complete: bool = False,
    ):
        """From (name, pa, kdeg) records, `CurveRecord`s or plain tuples, and
        any square integer matrix, conventions or not: `validate` reports
        what breaks them.  A record without three fields is `bad-type`."""
        n = len(curves)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise LatticeError("bad-gram", f"gram matrix is not {n}x{n}")
        self._records = {}
        for i, c in enumerate(curves):
            record = tuple(c) if isinstance(c, (tuple, list)) else ()
            if len(record) != 3:
                raise LatticeError("bad-type", f"curves[{i}] must be (name, pa, kdeg), got {c!r}")
            self._records[i] = record
        self._rows = {i: {j: m for j, m in enumerate(row) if m} for i, row in enumerate(gram)}
        self._keys = {name: i for i, (name, _, _) in self._records.items()}
        self._next = n
        self.assume_tracked_complete = assume_tracked_complete

    @classmethod
    def _from_rows(
        cls,
        records: dict[int, tuple[str, int, int]],
        rows: dict[int, dict[int, int]],
        keys: dict[str, int],
        next_key: int,
        assume_tracked_complete: bool,
    ) -> "CurveConfig":
        """Adopt the given dicts (not copied), in O(1).  Copying them, three
        O(n) dict copies, is the caller's choice: `birational` copies once
        per step, replay or contraction loop.  A row may still list the key
        of a removed curve; every reader skips it."""
        config = cls.__new__(cls)
        config._records, config._rows, config._keys = records, rows, keys
        config._next = next_key
        config.assume_tracked_complete = assume_tracked_complete
        return config

    @cached_property
    def curves(self) -> tuple[CurveRecord, ...]:
        return tuple(map(CurveRecord._make, self._records.values()))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple([name for name, _, _ in self._records.values()])

    @property
    def n(self) -> int:
        return len(self._rows)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, (name, _, _) in enumerate(self._records.values())}

    @cached_property
    def diag(self) -> tuple[int, ...]:
        """Self-intersections in configuration order."""
        return tuple(row.get(k, 0) for k, row in self._rows.items())

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per curve, (index, entry) for every nonzero off-diagonal Gram entry,
        by ascending index."""
        position = {k: i for i, k in enumerate(self._rows)}
        return tuple(
            tuple(sorted((position[j], m) for j, m in row.items() if j != k and j in position))
            for k, row in self._rows.items()
        )

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix, read only; O(n²) on first use."""
        n = self.n
        out = []
        for i, (self_int, row) in enumerate(zip(self.diag, self.neighbours)):
            dense = [0] * n
            dense[i] = self_int
            for j, m in row:
                dense[j] = m
            out.append(tuple(dense))
        return tuple(out)

    @cached_property
    def symmetric_nonnegative(self) -> bool:
        """Symmetric with no negative off-diagonal entry, in O(nnz).

        The premise under which a pair (P, N) that passes the Zariski
        conditions is the decomposition (Zariski 1962; Fujita 1979), read
        by the warm start of `zariski` and by `birational.contract_lc_trivial`.
        `validate` reports every entry that breaks it.  Contractions keep
        both: C.C' gains (C.E)(C'.E) >= 0.  A replay computes it once on
        its base; the write path in `birational` carries a computed value
        to its drafts and keeps it right there, so no replayed top is
        scanned again, and a contracted one only after a False is cleared.
        """
        rows = self._rows
        return all(
            m > 0 and rows[j].get(k) == m
            for k, row in rows.items()
            for j, m in row.items()
            if j != k and j in rows
        )

    def _sparse(self) -> tuple:
        return self.curves, self.diag, self.neighbours, self.assume_tracked_complete

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveConfig):
            return NotImplemented
        return self._sparse() == other._sparse()

    def __hash__(self) -> int:
        return hash(self._sparse())

    def __repr__(self) -> str:
        return (
            f"CurveConfig(curves={self.curves!r}, diag={self.diag!r}, "
            f"neighbours={self.neighbours!r}, "
            f"assume_tracked_complete={self.assume_tracked_complete!r})"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._keys

    def _key(self, name: str) -> int:
        try:
            return self._keys[name]
        except KeyError:
            raise LatticeError("unknown-curve", name) from None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LatticeError("unknown-curve", name) from None

    def record(self, name: str) -> CurveRecord:
        return CurveRecord._make(self._records[self._key(name)])

    def self_int(self, name: str) -> int:
        k = self._key(name)
        return self._rows[k].get(k, 0)

    def entry(self, a: str, b: str) -> int:
        return self._rows[self._key(a)].get(self._key(b), 0)

    def adjacent(self, name: str) -> dict[str, int]:
        """The curves `name` meets, with the nonzero off-diagonal entries of its row."""
        k = self._key(name)
        records = self._records
        return {records[j][0]: m for j, m in self._rows[k].items() if j != k and j in records}


class QDivisor:
    """A formal rational combination of named curves (absent name = 0).

    Stored as one scaled integer vector: D = num / den, with `den` a
    positive int, `num` a dict from curve name to a nonzero int in
    insertion order, and gcd(den, *num) = 1, so equal divisors have equal
    forms.  Support, effectivity, the arithmetic, equality and hashing
    work on the integers; `Fraction`s are built only when coefficients are
    read (`coeffs`, `get`, `items`), and `coeffs` is a fresh dict each
    time.  `num` is never mutated: code that walks it in place copies it.
    """

    __slots__ = ("den", "num")

    def __init__(self, coeffs: Mapping[str, Rational] | None = None):
        values = {name: rational(value) for name, value in (coeffs or {}).items()}
        # over reduced Fractions the lcm leaves gcd(den, *num) = 1
        self.den, self.num = _scaled({name: q for name, q in values.items() if q})

    @staticmethod
    def zero() -> "QDivisor":
        return QDivisor({})

    @classmethod
    def _from_scaled(cls, scale: int, coeffs: dict[str, int]) -> "QDivisor":
        """D from s·D given in integers (s > 0; a dict the caller gives up,
        kept as `num` if it has no zero and no common factor with s): zeros
        dropped, then reduced by their gcd with s."""
        num = {name: v for name, v in coeffs.items() if v} if 0 in coeffs.values() else coeffs
        g = gcd(scale, *num.values())
        if g > 1:
            scale //= g
            num = {name: v // g for name, v in num.items()}
        d = cls.__new__(cls)
        d.den, d.num = scale, num
        return d

    @property
    def coeffs(self) -> dict[str, Q]:
        den = self.den
        return {name: Q(v, den) for name, v in self.num.items()}

    def get(self, name: str) -> Q:
        return Q(self.num.get(name, 0), self.den)

    def items(self):
        return self.coeffs.items()

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.num)

    def is_effective(self) -> bool:
        return min(self.num.values(), default=1) > 0

    def _combine(self, other: "QDivisor", sign: int) -> "QDivisor":
        """self + sign·other over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {k: v * a for k, v in self.num.items()}
        for k, v in other.num.items():
            out[k] = out.get(k, 0) + v * b
        return QDivisor._from_scaled(den, out)

    def __add__(self, other: "QDivisor") -> "QDivisor":
        return self._combine(other, 1)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return self._combine(other, -1)

    def __rmul__(self, scalar: Rational) -> "QDivisor":
        s = rational(scalar)
        return QDivisor._from_scaled(
            self.den * s.denominator, {k: v * s.numerator for k, v in self.num.items()}
        )

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, QDivisor) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

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
    multiplicity); a later edge between the same curves replaces an
    earlier one.  Repeated names raise `duplicate-curve` unless
    `unique_names` is False, which keeps them (an edge then attaches to
    the last curve of that name) so that `validate` can report them.
    More than `MAX_CURVES` curves raise `too-large`.
    """
    check_size("curves", len(curves), MAX_CURVES)
    names = [name for name, _, _ in curves]
    if unique_names and len(set(names)) != len(names):
        raise LatticeError("duplicate-curve", "curve names must be unique")
    keys = {name: i for i, name in enumerate(names)}
    records = {}
    rows: dict[int, dict[int, int]] = {}
    for i, (name, self_int, pa) in enumerate(curves):
        records[i] = (name, pa, 2 * pa - 2 - self_int)
        rows[i] = {i: self_int} if self_int else {}
    for a, b, m in edges:
        if a not in keys or b not in keys:
            raise LatticeError("unknown-curve", a if a not in keys else b)
        if a == b:
            raise LatticeError("bad-edge", f"self edge on {a}")
        i, j = keys[a], keys[b]
        if m:
            rows[i][j] = rows[j][i] = m
        else:
            rows[i].pop(j, None)
            rows[j].pop(i, None)
    return CurveConfig._from_rows(records, rows, keys, len(curves), assume_tracked_complete)


def pairing(config: CurveConfig, d1: QDivisor, d2: QDivisor) -> Q:
    """Bilinear extension of the Gram matrix: d2 summed against the integer
    pairings of s·d1 (`_scaled_pairings`), divided by both denominators."""
    _, _, vals = _scaled_pairings(config, d1)
    total = sum(vals.get(config._key(b), 0) * y for b, y in d2.num.items())
    return Q(total, d1.den * d2.den)


def _scaled(values: Mapping[K, Q]) -> tuple[int, dict[K, int]]:
    """(s, s·v for each value v) in integers, s the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in values.values()))
    return scale, {k: v.numerator * (scale // v.denominator) for k, v in values.items()}


def _scaled_pairings(
    config: CurveConfig, d: QDivisor
) -> tuple[int, dict[int, int], dict[int, int]]:
    """(s, s·D, s·D . C_j) in integers, s = D's denominator `den`.

    s·D and the pairings both map curve keys to integers.  The pairings
    are summed over the sparse rows of D's curves, so they list only the
    curves D meets; a dead key (a removed curve a row still lists) is
    skipped.  An unknown name raises `unknown-curve`.
    """
    rows, keys = config._rows, config._keys
    coeffs: dict[int, int] = {}
    vals: dict[int, int] = {}
    for name, a in d.num.items():
        k = keys.get(name)
        if k is None:
            raise LatticeError("unknown-curve", name)
        coeffs[k] = a
        for j, m in rows[k].items():
            if j in rows:
                vals[j] = vals.get(j, 0) + a * m
    return d.den, coeffs, vals


def pairings_with_curves(config: CurveConfig, d: QDivisor) -> list[Q]:
    """d . C_i for every tracked curve, in configuration order."""
    scale, _, vals = _scaled_pairings(config, d)
    zero = Q(0)
    return [Q(vals[k], scale) if k in vals else zero for k in config._rows]


def kdot(config: CurveConfig, d: QDivisor) -> Q:
    """K . D, the linear extension of the stored canonical degrees."""
    return Q(sum(x * config.record(a).kdeg for a, x in d.num.items()), d.den)


def pa_of(config: CurveConfig, d: QDivisor) -> Q:
    """Arithmetic genus 1 + (D^2 + K.D)/2 of a divisor class."""
    return 1 + Q(pairing(config, d, d) + kdot(config, d), 2)


def is_negative_definite(config: CurveConfig, subset: Iterable[str]) -> bool:
    """Exact negative-definiteness of the Gram block on `subset`.

    The empty subset counts as negative definite.  An unknown name raises
    `unknown-curve` for the first one in `subset`'s order.
    """
    return _negative_definite(config, {config._key(name) for name in subset})


def _negative_definite(config: CurveConfig, keys: Iterable[int]) -> bool:
    """`is_negative_definite` on curve keys, bordered in ascending key order.

    Decided by Sylvester's criterion on the integer leading minors of
    `_solve.BorderedLDL`, bordered one curve at a time: each must be
    nonzero with the sign opposite to the one before (Δ₋₁ = 1), that is,
    every pivot Δₖ/Δₖ₋₁ is negative.
    """
    from . import _solve

    rows, factor = config._rows, _solve.BorderedLDL()
    return all(factor.border(rows[k], k, 0) for k in sorted(keys))


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
        config._key(name)
    return QDivisor._from_scaled(1, dict.fromkeys(use, 1))
