"""Zariski decomposition and volume of effective rational divisors.

The decomposition D = P + N is computed by growing the support of the
negative part (Bauer 2009): solve the exact linear system
(D - N) . C_j = 0 on the current support, then adjoin any curve the
remainder still meets negatively.  The support only grows, so the loop
terminates; ties (pairing exactly zero) never enter.

The loop runs in integers, on the rows by curve key.  D is read as its
integer vector s·D (`QDivisor.num` over `QDivisor.den` = s), and
s·D . C_j is summed over the rows of D's curves; a dead key (a removed
curve that a row of an asymmetric matrix still lists) is never admitted.
Each round yields X = Δ·s·N on the support, for one integer Δ, so
coefficient and remainder signs are integer sign tests multiplied by
sign(Δ).  A round borders the right-hand side with its new rows only, and
sums Δ·s·N . C_j only for the curves C_j off the support, the only ones
the admission test and the final pairing read.  vol = P . D comes from
those pairings, since P . C_j = 0 on the support.

The kernel (`_decompose`, with `_warm` and the loop `_grow`) runs every
check and ends with its integer state: the support keys, X, Δ and the
integer s²Δ·P².  Three readers take it.  `_parts` builds P and N as integer
vectors over s·Δ, reduced, and the volume, as a plain tuple, which
`zariski_decompose` wraps in a `ZariskiResult`; `volume` builds only the
one `Fraction` s²Δ·P² / s²Δ, and no divisor; and
`birational._decompose_by_key` reads supp N and the pairings of P by key.

While every pivot is negative, one fraction-free LDLᵀ without pivoting
(`_solve.BorderedLDL`) serves the whole loop: each admitted curve
borders the factor with its row and its entry of s·D . C, and takes the
next place on the support (the factor's `position`); each round is one
back pass, with Δ the leading minor of the whole support (Cramer); and
the leading minors, alternating in sign, are the negative-definiteness
certificate.

Warm start.  On a configuration that is symmetric with no negative
off-diagonal entry (`CurveConfig.symmetric_nonnegative`, the premise),
the loop starts from a predicted support: the curves D meets
negatively, closed through neighbours D meets in zero or less, and the
added curves the same walk reaches through neighbours D meets
positively with a diagonally dominant row.  It is bordered in key order
if none was added, else leaves first, with no fill on a forest
(Rose 1970), and solved once; the ordinary rounds continue from there.
So a tower, or a chain or tree of diagonally dominant curves, takes one
solve.  Where a warm run stops, at a pivot that is not negative or a
negative coefficient, it drops the added curves it stopped at (or all
of them) and borders the rest again from the first row that moved; with
none left it is dropped for the cold loop, the only one off the premise.

Cold start.  The loop starts from the curves D meets negatively.  A
negative coefficient is `negative-part-not-effective`.  From the first
pivot that is zero or positive on, each round instead solves the
support's dense block, read off the sparse rows at the factor's places
(copied once), with
`_solve.solve_symmetric` (Bareiss), in integers too: it returns X and
Δ = ±det of the block.  A singular block is `gram-singular`, and the
final support is checked once at the end (`not-negative-definite`).  So
every error code, message and dense round comes from the cold loop.

Why the warm start is exact.  A warm run that exits has checked a full
certificate: its pivots make the support negative definite, N >= 0,
P . C = 0 on the support by the exact solve, and P . C >= 0 on every
tracked curve (the guess holds every curve D meets negatively, and the
exit test covers every curve meeting the support; N may be 0 on a
guessed curve).  On the premise such a pair is unique (Zariski 1962;
Fujita 1979): if (P', N') is another, Y = N - N' has Y² >= 0, and split
into effective parts without a common curve it has Y² <= 0, so Y = 0.
The cold loop's supports stay inside that support: the inverse of a
negative definite block with no negative off-diagonal entry has no
positive entry, so each round's N is at least the one before, and a
curve outside supp N is never admitted.  So the cold loop would return
the same P, N, support, bigness and volume.

On the premise no warm run is dropped: at worst it shrinks to the guess
without added curves, which by Perron-Frobenius is negative definite
(D is positive on it, meets each of its curves in zero or less, and each
component holds a curve D meets negatively), as is each later support
(P restricted to it is effective, meets the admitted curves negatively
and the previous, negative definite support in zero); N >= 0 follows as
above.  The fallback keeps the results the cold loop's even so.

A brute-force oracle enumerating all supports is provided for testing.

The result record, `ZariskiResult`, lives in the leaf module `_result`
and is imported by the two functions that build one, so `volume` and
the pipelines that read only volumes never load `dataclasses` (about
10 ms of start-up, most of it `inspect`).  Nor do the callers that read
the decomposition through `_parts`: the CLI's `zariski` command, text
and `--json` (rendered by `formats.decomposition_to_json`, the one JSON
form, which `ZariskiResult.to_json` returns too), `catalog.example_25_84` and
`catalog.example_143`, which hands its route B's (P, N) to
`birational.contract_lc_trivial`.  So no CLI command loads
`dataclasses`.  The record stays a frozen dataclass while callers (the
bench's corrupted-result check) still apply `dataclasses.replace` to a
result; the other records are tuple-backed.
"""
from __future__ import annotations

from fractions import Fraction as Q
from heapq import heappop, heappush
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from . import _solve
from .lattice import (
    CurveConfig,
    LatticeError,
    QDivisor,
    _negative_definite,
    _scaled_pairings,
    is_negative_definite,
    pairing,
    pairings_with_curves,
)

if TYPE_CHECKING:
    from ._result import ZariskiResult


def _require_effective(d: QDivisor) -> None:
    if not d.is_effective():
        raise LatticeError("not-effective", "divisor has a negative coefficient")


def _support_error(code: str, config: CurveConfig, support: Iterable[int]) -> LatticeError:
    return LatticeError(code, f"support {[config._records[k][0] for k in sorted(support)]}")


def _predicted_support(
    config: CurveConfig, dvals: dict[int, int], negative: list[int]
) -> tuple[list[int], set[int]]:
    """(order, added): the curves D meets negatively closed through those it meets in <= 0,
    then the added curves the walk reaches through rows with D.C > 0, C² <= -2, -C² >= the
    sum of the other entries and no dead key.  Key order if none was added, else leaves
    first: of the curves with one neighbour left at most, fewest entries outside, then key."""
    rows, dget = config._rows, dvals.get
    seen, guess, added = set(negative), list(negative), []
    for grown in (guess, added):  # today's closure first, then the added curves
        for i in grown:
            for j in rows[i]:
                if j not in seen and j in rows:
                    seen.add(j)
                    if dget(j, 0) <= 0:
                        grown.append(j)
                    elif rows[j].get(j, 0) <= -2 and sum(rows[j].values()) <= 0:
                        if rows[j].keys() <= rows.keys():  # no dead key
                            added.append(j)
    if not added:
        return sorted(guess), set()
    guess += added
    inside, left, rank = set(guess), {}, {}
    for i in guess:
        shared = len(inside.intersection(rows[i]))
        left[i] = shared - (i in rows[i])  # neighbours not yet taken
        rank[i] = (len(rows[i]) - shared, i)  # entries outside the guess, then key
    heap = sorted([rank[i] for i, n in left.items() if n <= 1])  # a sorted list is a heap
    order = []
    while heap:
        i = heappop(heap)[1]
        order.append(i)
        del left[i]
        for j in rows[i]:
            if j in left:
                n = left[j] = left[j] - 1
                if n == 1:
                    heappush(heap, rank[j])
    return order + sorted(left), set(added)


def _grow(
    config: CurveConfig,
    coeffs: dict[int, int],
    dvals: dict[int, int],
    new: list[int],
    factor: _solve.BorderedLDL,
    warm: bool,
) -> tuple[dict[int, int], list[int], int, int] | set[int]:
    """The support-growth loop on integers from the curves `new`, bordered onto
    `factor` while every pivot is negative: (support, X, Δ, square), the support
    a dict of its keys in the order it grew, X = Δ·s·N on it, Δ > 0 and square =
    s²Δ·P²; a warm run returns instead the curve refused, or those with X < 0."""
    rows, dget = config._rows, dvals.get
    position = factor.position  # curve key -> place on the support, in the order it grew
    xs: list[int] = []  # det s N, coefficientwise on `position`
    det = 1
    nvals: dict[int, int] = {}  # det s N . C_j for the curves j off the support
    while new:
        for i in new:
            if factor is not None and not factor.border(rows[i], i, dget(i, 0)):
                if warm:
                    return {i}
                factor, position = None, dict(position)  # None from the first pivot >= 0
            if factor is None:
                position[i] = len(position)
        if factor is not None:
            xs, det = factor.solve()
        else:
            block = [[0] * len(position) for _ in position]
            for dense, i in zip(block, position):
                for j, m in rows[i].items():
                    if j in position:
                        dense[position[j]] = m
            solution = _solve.solve_symmetric(block, [dget(i, 0) for i in position])
            if solution is None:
                raise _support_error("gram-singular", config, position)
            xs, det = solution
        if det < 0:  # every sign test below is multiplied by sign(det)
            xs, det = [-x for x in xs], -det
        if min(xs) < 0:
            if warm:
                return {i for i, x in zip(position, xs) if x < 0}
            raise _support_error("negative-part-not-effective", config, position)
        nvals = {}
        for i, x in zip(position, xs):
            if x:
                for j, m in rows[i].items():
                    if j not in position:
                        nvals[j] = nvals.get(j, 0) + x * m
        new = sorted([j for j, v in nvals.items() if j in rows and det * dget(j, 0) < v])
    if factor is None:
        support = [i for i, x in zip(position, xs) if x]
        if not _negative_definite(config, support):
            raise _support_error("not-negative-definite", config, support)
    # P . C_j = 0 on the support, so P^2 = P . D = sum of d_j (P . C_j) off it
    square = 0
    for j, a in coeffs.items():
        if j not in position:
            square += a * (det * dget(j, 0) - nvals.get(j, 0))
    return position, xs, det, square


def _warm(
    config: CurveConfig, coeffs: dict[int, int], dvals: dict[int, int], negative: list[int]
) -> tuple[dict[int, int], list[int], int, int] | None:
    """`_grow` from the predicted support, less the added curves it stops at; None if none left."""
    guess, added = _predicted_support(config, dvals, negative)
    factor = _solve.BorderedLDL()
    state = _grow(config, coeffs, dvals, guess, factor, warm=True)
    while type(state) is set:
        if not added:
            return None
        gone = state & added or added
        added = added - gone
        guess = [i for i in guess if i not in gone]
        position = factor.position  # the rows before the first dropped one stay; one goes again
        keep = min([position[i] for i in gone if i in position] + [len(position), len(guess) - 1])
        factor.truncate(keep)
        state = _grow(config, coeffs, dvals, guess[keep:], factor, warm=True)
    return state


def _decompose(
    config: CurveConfig, d: QDivisor
) -> tuple[int, dict[int, int], dict[int, int], list[int], int, int]:
    """The kernel, with every check: (s, s·D by key, then `_grow`'s state).
    Warm from the predicted support on the premise, else (or on failure) cold."""
    _require_effective(d)
    scale, coeffs, dvals = _scaled_pairings(config, d)
    negative = [j for j, v in dvals.items() if v < 0]
    state = None
    if config.symmetric_nonnegative:
        state = _warm(config, coeffs, dvals, negative)
    if state is None:
        state = _grow(config, coeffs, dvals, sorted(negative), _solve.BorderedLDL(), warm=False)
    return scale, coeffs, *state


def _parts(config: CurveConfig, d: QDivisor) -> tuple[QDivisor, QDivisor, bool, Q]:
    """The decomposition as a plain tuple (P, N, big, vol), with supp N =
    `N.support`: the finisher that builds P and N, and no result record."""
    scale, _, support, xs, det, square = _decompose(config, d)
    # det s P and det s N by name, P in D's order and then N's other curves
    records, den = config._records, scale * det
    neg = {records[i][0]: x for i, x in zip(support, xs) if x}
    pos = {name: a * det for name, a in d.num.items()}
    for name, x in neg.items():
        pos[name] = pos.get(name, 0) - x
    big = square > 0
    volume = Q(square, scale * den) if big else Q(0)
    return QDivisor._from_scaled(den, pos), QDivisor._from_scaled(den, neg), big, volume


def zariski_decompose(config: CurveConfig, d: QDivisor) -> ZariskiResult:
    """Unique decomposition of an effective divisor relative to the lattice."""
    from ._result import ZariskiResult

    positive, negative, big, volume = _parts(config, d)
    return ZariskiResult(positive, negative, negative.support, big, volume)


def volume(config: CurveConfig, d: QDivisor) -> Q:
    """vol(D): square of the positive part when big, else 0; the kernel's
    integer P² over s²Δ, with no divisor built."""
    scale, _, _, _, det, square = _decompose(config, d)
    return Q(square, scale * scale * det) if square > 0 else Q(0)


def zariski_oracle(config: CurveConfig, d: QDivisor) -> ZariskiResult:
    """Subset-enumeration reference implementation (test use only).

    Tries every support, keeps the candidates satisfying all four result
    invariants, and insists there is exactly one.
    """
    from ._result import ZariskiResult

    if config.n > 12:
        raise LatticeError("oracle-too-large", f"{config.n} curves (max 12)")
    _require_effective(d)
    scale, _, dvals = _scaled_pairings(config, d)
    candidates: dict[QDivisor, ZariskiResult] = {}
    rows, records = config._rows, config._records
    for size in range(config.n + 1):
        for subset in combinations(rows, size):
            block = [[rows[i].get(j, 0) for j in subset] for i in subset]
            solution = _solve.solve_symmetric(block, [dvals.get(i, 0) for i in subset])
            if solution is None:
                continue
            xs, det = solution
            if any(x * det < 0 for x in xs):
                continue
            negative = QDivisor({records[i][0]: Q(x, det * scale) for i, x in zip(subset, xs)})
            positive = d - negative
            if not all(v >= 0 for v in pairings_with_curves(config, positive)):
                continue
            # P.C = 0 on supp N: P.C_i = ((A-Aᵀ)n)_i >= 0 here, n >= 0 and nᵀ(A-Aᵀ)n = 0
            if not is_negative_definite(config, negative.support):
                continue
            if negative not in candidates:
                square = pairing(config, positive, positive)
                big = square > 0
                candidates[negative] = ZariskiResult(
                    positive, negative, negative.support, big, square if big else Q(0)
                )
    if not candidates:
        raise LatticeError("no-valid-decomposition", "no support yields a valid result")
    if len(candidates) > 1:
        raise LatticeError("ambiguous", f"{len(candidates)} distinct valid decompositions")
    return next(iter(candidates.values()))
