"""Closed-form bound evaluators and gluing arithmetic.

The Noether-type bounds (pg/143 for stable log surfaces, pg - 3 + 4/(pg + 1)
for the normal region), the volume formulas behind them, and the check
that sums glued components against both.  Pure rational arithmetic: this
module needs only the error and the rational coercion of the leaf module
`_base`, so the `noether` command compiles no lattice.
"""
from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

from ._base import LatticeError, rational


def tz_bound(pg: int) -> Q:
    """Noether-type lower bound pg - 3 + 4/(pg + 1) for normal log surfaces."""
    if pg < 1:
        raise LatticeError("bad-pg", f"pg = {pg} < 1")
    return Q(pg) - 3 + Q(4, pg + 1)


def prop1_volume(m: int, mults: Sequence[int]) -> Q:
    """Exact volume formula m - 2 + 4/(2 + m + sum m_j) + sum (m_j - 1)."""
    if m < 1:
        raise LatticeError("bad-argument", f"m = {m} < 1")
    if any(mj < 2 for mj in mults):
        raise LatticeError("bad-argument", f"multiplicities {list(mults)} must be >= 2")
    s = sum(mults)
    return Q(m) - 2 + Q(4, 2 + m + s) + sum(mj - 1 for mj in mults)


def noether_stable_bound(pg: int) -> Q:
    """Lower volume bound pg/143 for stable log surfaces."""
    if pg < 0:
        raise LatticeError("bad-pg", f"pg = {pg} < 0")
    return Q(pg, 143)


def prop2_bound(pg: int) -> Q:
    """max(1, pg - 2): the bound in the big semistable-part case."""
    if pg < 0:
        raise LatticeError("bad-pg", f"pg = {pg} < 0")
    return Q(max(1, pg - 2))


def prop0_step1_bound(m: int) -> Q:
    """Lower bound for high-genus images: 2/9 for m <= 3, else 1 - 3/m."""
    if m < 1:
        raise LatticeError("bad-argument", f"m = {m} < 1")
    if m <= 3:
        return Q(2, 9)
    return 1 - Q(3, m)


def glue_volumes(
    components: Sequence[tuple[Q | int | str, int]]
) -> tuple[Q, int, bool, Q | None]:
    """Sum volumes and genera of glued components and run both checks.

    Returns (total volume, total pg, noether check, threshold): the last
    entry is the normal-region bound when the total volume falls below it
    (the glued surface then escapes the normal/Gorenstein region), else None.
    """
    total_vol = Q(0)
    total_pg = 0
    for vol, pg in components:
        vol = rational(vol)
        if vol < 0 or pg < 0:
            raise LatticeError("bad-component", f"({vol}, {pg})")
        total_vol += vol
        total_pg += pg
    noether_ok = total_vol >= noether_stable_bound(total_pg)
    threshold = tz_bound(total_pg) if total_pg >= 1 else None
    violated = threshold if threshold is not None and total_vol < threshold else None
    return total_vol, total_pg, noether_ok, violated
