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

The kernel (`_decompose`, with the loop `_grow`) runs every check and
ends with its integer state: the support keys, X, Δ and the integer
s²Δ·P².  Two finishers read it.  `_parts` builds P and N as integer
vectors over s·Δ, reduced, and the volume, as a plain tuple, which
`zariski_decompose` wraps in a `ZariskiResult`; `volume` builds only the
one `Fraction` s²Δ·P² / s²Δ, and no divisor.

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
negatively, closed through neighbouring curves D meets in zero or less.
The whole guess borders the factor in ascending configuration order and
is solved once, and the ordinary rounds continue from that state.  On a
tower the guess is the whole support, so one solve replaces a round for
every two curves.  A warm run that meets a pivot that is not negative or
a negative coefficient is dropped, and the cold loop below runs from the
start; off the premise only the cold loop runs.

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
exit test covers every curve meeting the support).  On the premise such
a pair is unique (Zariski 1962; Fujita 1979): if (P', N') is another,
Y = N - N' has Y² >= 0, and split into effective parts without a common
curve it has Y² <= 0, so Y = 0.  The cold loop's supports stay inside
that support: the inverse of a negative definite block with no negative
off-diagonal entry has no positive entry, so each round's N is at least
the one before, and a curve outside supp N is never admitted.  So the
cold loop would return the same P, N, support, bigness and volume.

On the premise a warm run is in fact never dropped, and nothing fails.
By Perron-Frobenius the guess is negative definite (D is positive on
it, meets each of its curves in zero or less, and each component of the
guess holds a curve D meets negatively), and so is each later support
(P restricted to it is effective, meets the admitted curves negatively
and the previous, negative definite support in zero); N >= 0 follows as
above.  The fallback keeps the results the cold loop's even so.

A brute-force oracle enumerating all supports is provided for testing.

The result record, `ZariskiResult`, lives in the private module `_result`
and is imported by the two functions that build one, so `volume` and
the pipelines that read only volumes never load `dataclasses` (about
10 ms of start-up, most of it `inspect`).  Nor do the callers that read
the decomposition through `_parts` and render it through `_json` (the
one JSON form, which `ZariskiResult.to_json` returns too): the CLI's
`zariski` command, text and `--json`, and `catalog.example_25_84`.  Of
the CLI commands only `example 143` still loads `dataclasses`: its route
B runs `birational.contract_lc_trivial`, which calls `zariski_decompose`
(a call the bench's tracer test pins), so route A builds its result too.
This module re-exports the record on first access (PEP 562), so
`from logsurf.zariski import ZariskiResult` and pickling work as before.
It stays a frozen dataclass while callers (the bench's corrupted-result
check) still apply `dataclasses.replace` to a result; the other records
are tuple-backed.
"""
from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from . import _solve
from .lattice import (
    CurveConfig,
    LatticeError,
    QDivisor,
    _negative_definite,
    _scaled_pairings,
    divisor_to_json,
    is_negative_definite,
    pairing,
    pairings_with_curves,
    rational_str,
)

if TYPE_CHECKING:
    from ._result import ZariskiResult


def __getattr__(name: str):
    if name == "ZariskiResult":
        from ._result import ZariskiResult

        return ZariskiResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_effective(d: QDivisor) -> None:
    if not d.is_effective():
        raise LatticeError("not-effective", "divisor has a negative coefficient")


def _support_error(code: str, config: CurveConfig, support: Iterable[int]) -> LatticeError:
    return LatticeError(code, f"support {[config._records[k][0] for k in sorted(support)]}")


def _predicted_support(
    config: CurveConfig, dvals: dict[int, int], negative: list[int]
) -> list[int]:
    """The curves D meets negatively, closed through neighbours D meets in <= 0."""
    rows = config._rows
    guess, stack = set(negative), list(negative)
    while stack:
        for j in rows[stack.pop()]:
            if j not in guess and j in rows and dvals.get(j, 0) <= 0:
                guess.add(j)
                stack.append(j)
    return sorted(guess)


def _grow(
    config: CurveConfig,
    coeffs: dict[int, int],
    dvals: dict[int, int],
    new: list[int],
    warm: bool,
) -> tuple[dict[int, int], list[int], int, int] | None:
    """The support-growth loop on integers from the curves `new`, bordered
    while every pivot is negative: (support, X, Δ, square), the support a
    dict of its keys in the order it grew, X = Δ·s·N on it, Δ > 0 and
    square = s²Δ·P².  A warm run returns None at the first pivot that is
    not negative or the first negative coefficient."""
    rows, dget = config._rows, dvals.get
    factor: _solve.BorderedLDL | None = _solve.BorderedLDL()  # None from the first pivot >= 0
    position = factor.position  # curve key -> place on the support, in the order it grew
    xs: list[int] = []  # det s N, coefficientwise on `position`
    det = 1
    nvals: dict[int, int] = {}  # det s N . C_j for the curves j off the support
    while new:
        for i in new:
            if factor is not None and not factor.border(rows[i], i, dget(i, 0)):
                if warm:
                    return None
                factor, position = None, dict(position)
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
                return None
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


def _decompose(
    config: CurveConfig, d: QDivisor
) -> tuple[int, dict[int, int], dict[int, int], list[int], int, int]:
    """The kernel, with every check: (s, s·D by key, then `_grow`'s state).
    Warm from the predicted support on the premise, else (or on failure) cold."""
    _require_effective(d)
    scale, coeffs, dvals = _scaled_pairings(config, d)
    negative = sorted([j for j, v in dvals.items() if v < 0])
    state = None
    if config.symmetric_nonnegative:
        guess = _predicted_support(config, dvals, negative)
        state = _grow(config, coeffs, dvals, guess, warm=True)
    if state is None:
        state = _grow(config, coeffs, dvals, negative, warm=False)  # never None
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


def _json(
    positive: QDivisor, negative: QDivisor, support: frozenset[str], big: bool, volume: Q
) -> dict:
    """The JSON form of a decomposition: `ZariskiResult.to_json` and the CLI."""
    return {
        "positive": divisor_to_json(positive),
        "negative": divisor_to_json(negative),
        "support": sorted(support),
        "big": big,
        "volume": rational_str(volume),
    }


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
            if any(
                pairing(config, positive, QDivisor({name: 1})) != 0
                for name in negative.support
            ):
                continue
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
