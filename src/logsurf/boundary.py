"""Semistable part of a boundary curve and the volume-decreasing tower.

The semistable part is the fixpoint of discarding genus-0 members that
meet the rest of the boundary in fewer than two points.  Self-nodes of an
irreducible member (pa > 0) never disqualify it; only the sum of Gram
entries against the rest is consulted.  The split resolves the boundary's
names to curve keys once, at input, walks the model's rows and records by
key, and names the curves again only in its result.

The tower blows up a chosen boundary intersection point and then walks up
the semistable curve, excluding the last exceptional from the boundary;
it returns the history together with the transported log class.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from typing import Iterable

from .birational import BlowupStep, History, apply_script
from .birational import log_class as transport
from .lattice import CurveConfig, LatticeError, QDivisor, Rational, check_size, rational

# Largest accepted tower; a larger n is refused as `too-large` before any
# step is built.
MAX_TOWER_N = 10_000


class BoundarySplit(namedtuple("BoundarySplit", "C E component_genera")):
    """Semistable part C, complement E, and genera of C's components.

    A tuple-backed record, as `CurveRecord` is.
    """

    __slots__ = ()


def _components(config: CurveConfig, members: list[tuple[str, int]]) -> tuple:
    """(component, genus 1 + (D² + K·D)/2 of its reduced sum D) for the
    curves `members`, (name, key) pairs.  Each walk starts from the least
    name not yet reached, so on asymmetric rows that seed decides the
    component, and the components come in order of least name."""
    rows, records = config._rows, config._records
    remaining = {k for _, k in members}
    out = []
    for _, seed in sorted(members):
        if seed not in remaining:
            continue
        remaining.remove(seed)
        comp, frontier = {seed}, [seed]
        while frontier:
            for j, m in rows[frontier.pop()].items():
                if m > 0 and j in remaining:
                    remaining.remove(j)
                    comp.add(j)
                    frontier.append(j)
        twice = sum(records[k][2] + sum(m for j, m in rows[k].items() if j in comp) for k in comp)
        out.append((frozenset(records[k][0] for k in comp), 1 + Q(twice, 2)))
    return tuple(out)


def semistable_part(config: CurveConfig, delta: Iterable[str]) -> BoundarySplit:
    """Discard rational members meeting the rest in < 2 points, to a fixpoint.

    A heap of (name, key) pairs yields the unchecked rational member of
    least name; a discard puts back the rational members whose rows list
    it, the only ones whose contact it changes.  So each discard is the
    one a rescan in name order would find, and a row is read again only
    when a member it lists is discarded.
    """
    from heapq import heappop, heappush  # here, not at import: CLI start-up

    delta = list(delta)
    current = {config._key(name) for name in delta}  # in input order: the first unknown raises
    rows, records = config._rows, config._records
    unchecked = sorted((records[k][0], k) for k in current if records[k][1] == 0)  # a heap
    meeting: dict[int, list] = {k: [] for k in current}  # rational members whose rows list it
    for member in unchecked:
        for j in rows[member[1]]:
            if j in meeting:
                meeting[j].append(member)
    while unchecked:
        k = heappop(unchecked)[1]
        if k in current and sum(m for j, m in rows[k].items() if j in current and j != k) < 2:
            current.remove(k)
            for member in meeting[k]:
                if member[1] in current:
                    heappush(unchecked, member)
    kept = [(records[k][0], k) for k in current]
    C = frozenset(name for name, _ in kept)
    return BoundarySplit(C, frozenset(delta) - C, _components(config, kept))


def tower(
    config: CurveConfig,
    c_name: str,
    e_name: str,
    log_class: QDivisor,
    b: Rational,
    n: int,
) -> tuple[History, QDivisor]:
    """Blow up C meet E, then n-1 times the newest exceptional on C.

    All exceptionals except the last join the boundary, so the returned
    class transports K + (strict boundary + G_1..G_{n-1}); it equals the
    pullback of `log_class` minus the final exceptional.  `b`, the caller's
    coefficient of `e_name` in P, is read as `rational` reads it (no float,
    bool or decimal string), must lie in [0, 1] and is otherwise unused.
    """
    if n < 1:
        raise LatticeError("bad-tower", f"n = {n}")
    check_size("tower steps", n, MAX_TOWER_N)
    if c_name == e_name:
        raise LatticeError("bad-tower", f"{c_name} cannot meet itself at a point")
    if config.entry(c_name, e_name) < 1:
        raise LatticeError("bad-tower", f"{c_name} does not meet {e_name}")
    q = rational(b)
    if not 0 <= q.numerator <= q.denominator:
        raise LatticeError("bad-tower", f"coefficient b = {b} outside [0, 1]")
    # G1, ..., Gn, each primed until it names no curve of `config`.  Two
    # stems never meet: a prime follows the stem's last digit.
    keys, on_c, new = config._keys, (c_name, 1), tuple.__new__
    steps = []
    prev = e_name
    for k in range(1, n + 1):
        name = f"G{k}"
        while name in keys:
            name += "'"
        steps.append(new(BlowupStep, ((on_c, (prev, 1)), name, k < n)))
        prev = name
    history = apply_script(config, steps)
    return history, transport(history, log_class, {c_name, e_name})
