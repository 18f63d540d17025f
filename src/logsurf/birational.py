"""Class-level blow-ups and contractions with history bookkeeping.

A blow-up is specified purely by branch multiplicities: the curves through
the centre and how often each passes.  Tangencies and infinitely-near
points are expressed as sequences of steps whose branches include earlier
exceptionals.  Intersection classes determine every number computed here,
so no analytic local data is carried.

Conventions: the exceptional of a blow-up is a (-1)-curve of genus 0;
strict transforms keep their names; contraction pushes canonical degrees
forward (K downstairs is the pushforward of K upstairs).

Divisor classes travel as their integer vectors (`QDivisor.num` over
`QDivisor.den`): a pull-back walks a copy of the vector and keeps the
denominator, and a pushforward drops coefficients and reduces the rest
again, since dropping can leave a common factor.

The JSON forms of a step, a script and a history live in `formats`.
"""
from __future__ import annotations

from bisect import insort
from collections import namedtuple
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .lattice import (
    CurveConfig,
    LatticeError,
    QDivisor,
    _negative_definite,
    _scaled_pairings,
    check_size,
    sum_divisor,
)

# Longest accepted blow-up script; a longer one is refused as `too-large`
# before any step is built or replayed.
MAX_SCRIPT_STEPS = 10_000


class BlowupStep(
    namedtuple("BlowupStep", "branches exceptional_name joins_boundary", defaults=(False,))
):
    """One blow-up: branch (curve, multiplicity) pairs and the new name.

    `joins_boundary` marks whether the new exceptional is adjoined to the
    running boundary divisor; only `log_class` (and so `boundary_adjustment`)
    consults it.  A tuple-backed record, as `CurveRecord` is.
    """

    __slots__ = ()


class History(namedtuple("History", "base steps top")):
    """An ordered sequence of blow-ups from `base` up to `top`.

    A tuple-backed record, as `CurveRecord` is.
    """

    __slots__ = ()

    @property
    def exceptional_names(self) -> tuple[str, ...]:
        return tuple(s.exceptional_name for s in self.steps)


def _copy(config: CurveConfig, scan: bool = False) -> CurveConfig:
    """A model with its own records, rows and key dicts, the rows themselves
    shared: the private draft the in-place kernels edit.  Three O(n) dict
    copies at C level.  `symmetric_nonnegative` is carried if computed (with
    `scan`, computed first, cached on `config`); the kernels keep it right
    (`_blow_up` keeps it, `_contract` keeps True and clears False)."""
    draft = CurveConfig._from_rows(
        dict(config._records), dict(config._rows), dict(config._keys),
        config._next, config.assume_tracked_complete,
    )
    if scan or "symmetric_nonnegative" in vars(config):
        draft.symmetric_nonnegative = config.symmetric_nonnegative
    return draft


def _blow_up(draft: CurveConfig, step: BlowupStep) -> None:
    """Blow up one point of the draft, in place; `blow_up` has the rules.

    A step with one or two (name, multiplicity) branches that passes
    every check is written here in closed form: no duplicate dict, no
    sort, no pair loop, no row copied before the checks pass, and each
    changed entry written inline, not from a tuple of triples (1.9 µs a
    tower step; Intel Xeon, Python 3.11.7).  Any other step,
    and any step that a check would refuse, goes to `_blow_up_general`
    with nothing written, so every refusal comes from there, with its
    code, message and precedence.
    Both paths write the same records, plain (name, pa, kdeg) triples,
    the same rows with their items in the same order (`CurveConfig.adjacent`
    exposes it), and the same `_keys` and `_next`; neither touches a
    cached `symmetric_nonnegative`, and dead keys stay where they were.
    """
    branches, exceptional, _ = step
    rows, records, keys = draft._rows, draft._records, draft._keys
    if len(branches) == 1:
        (name, m), = branches
        i = keys.get(name)
        if i is not None and m >= 1 and exceptional and exceptional not in keys:
            name, pa, kdeg = records[i]
            drop = m * (m - 1) // 2
            if pa >= drop:
                g = draft._next
                records[i] = (name, pa - drop, kdeg + m)
                row = rows[i].copy()
                v = row.get(i, 0) - m * m
                if v:
                    row[i] = v
                else:
                    del row[i]
                row[g] = m
                rows[i] = row
                rows[g] = {i: m, g: -1}
                records[g] = (exceptional, 0, -1)
                keys[exceptional] = g
                draft._next = g + 1
                return
    elif len(branches) == 2:
        (a, ma), (b, mb) = branches
        i, j = keys.get(a), keys.get(b)
        if (a != b and i is not None and j is not None and ma >= 1 and mb >= 1
                and exceptional and exceptional not in keys):
            if i > j:
                i, j, ma, mb = j, i, mb, ma
            a, pa, ka = records[i]
            b, pb, kb = records[j]
            da, db, p = ma * (ma - 1) // 2, mb * (mb - 1) // 2, ma * mb
            row, col = rows[i], rows[j]
            if pa >= da and pb >= db and row.get(j, 0) >= p:
                g = draft._next
                records[i] = (a, pa - da, ka + ma)
                records[j] = (b, pb - db, kb + mb)
                row, col = row.copy(), col.copy()  # entries drop by > 0: 0 only if listed
                v = row.get(i, 0) - ma * ma
                if v:
                    row[i] = v
                else:
                    del row[i]
                if row[j] - p:
                    row[j] -= p
                else:
                    del row[j]
                v = col.get(i, 0) - p
                if v:
                    col[i] = v
                else:
                    del col[i]
                v = col.get(j, 0) - mb * mb
                if v:
                    col[j] = v
                else:
                    del col[j]
                row[g], col[g] = ma, mb
                rows[i], rows[j], rows[g] = row, col, {i: ma, j: mb, g: -1}
                records[g] = (exceptional, 0, -1)
                keys[exceptional] = g
                draft._next = g + 1
                return
    _blow_up_general(draft, branches, exceptional)


def _blow_up_general(
    draft: CurveConfig, branches: Sequence[tuple[str, int]], exceptional: str
) -> None:
    """The general pass of `_blow_up`, for any number of branches.

    Every check runs before anything is written: distinct branch names,
    each branch in the step's order (known name, multiplicity >= 1), the
    new name, then `pa-negative` and `intersection-negative` in ascending
    key order.  A changed row or record is replaced, never mutated, since
    rows are shared with the model the draft was copied from.  A cached
    `symmetric_nonnegative` stays right: both sides of a touched entry drop
    by the same mi·mj and stay >= 0, and the new row is symmetric and
    positive off the diagonal.
    """
    if len(branches) > 1 and len(dict(branches)) != len(branches):
        raise LatticeError("bad-step", "branch names must be distinct")
    rows, records, keys = draft._rows, draft._records, draft._keys
    for name, m in branches:
        if name not in keys:
            raise LatticeError("unknown-curve", name)
        if m < 1:
            raise LatticeError("bad-step", f"multiplicity {m} on {name}")
    if not exceptional:
        raise LatticeError("bad-step", "empty exceptional name")
    if exceptional in keys:
        raise LatticeError("bad-step", f"name {exceptional} already tracked")
    touched = sorted((keys[name], m) for name, m in branches)
    for i, m in touched:
        name, pa, _ = records[i]
        if pa < m * (m - 1) // 2:
            raise LatticeError("pa-negative", f"{name}: pa {pa} cannot absorb m={m}")
    for (i, mi), (j, mj) in combinations(touched, 2):
        if rows[i].get(j, 0) < mi * mj:
            pair = f"{records[i][0]}.{records[j][0]}"
            raise LatticeError("intersection-negative", f"{pair} drops below 0")
    g = draft._next
    for i, mi in touched:
        name, pa, kdeg = records[i]
        records[i] = (name, pa - mi * (mi - 1) // 2, kdeg + mi)
        rows[i] = row = rows[i].copy()
        for j, mj in touched:  # mi·mj > 0, so 0 only where the row listed j
            if v := row.get(j, 0) - mi * mj:
                row[j] = v
            else:
                del row[j]
        row[g] = mi
    rows[g] = dict([*touched, (g, -1)])
    records[g] = (exceptional, 0, -1)
    keys[exceptional] = g
    draft._next = g + 1


def _contract(
    draft: CurveConfig, g: int, minus_one: list[tuple[str, int]] | None = None
) -> dict[int, int]:
    """Contract the (-1)-curve with key `g` of the draft, in place;
    `contract_minus_one` has the rules.  Returns its row from before the
    contraction.

    The check runs before anything is written, and a changed row or
    record is replaced, never mutated.  One pass over the column writes
    the row and record of each live key, in the column's order; a dead
    key is skipped where it is met and stays in the rows that list it,
    which every reader skips.  A cached `symmetric_nonnegative` that is
    True stays so (C.C' gains (C.G)(C'.G) > 0 in both directions); one
    that is False is cleared, since the contraction may remove what
    broke it.  A repeated name keeps its last key in `_keys`, so the
    name is dropped only with it.

    `minus_one`, when given, is the contraction loop's sorted list of
    (name, key) pairs of the draft's (-1)-curves, `g` already taken out.
    A written neighbour joins it if its new record and diagonal entry are
    a (-1)-curve's, and leaves it if the old ones were; never both, since
    the entry rose by m² > 0.
    """
    rows, records, keys = draft._rows, draft._records, draft._keys
    name, pa, kdeg = records[g]
    column = rows[g]
    if column.get(g, 0) != -1 or pa != 0 or kdeg != -1:
        raise LatticeError("not-minus-one-curve", name)
    del rows[g], records[g]
    if keys.get(name) == g:
        del keys[name]
    if vars(draft).get("symmetric_nonnegative") is False:
        del draft.symmetric_nonnegative
    for i, mi in column.items():
        if i not in rows:
            continue
        row = rows[i].copy()
        row.pop(g, None)
        before = row.get(i, 0)
        for j, mj in column.items():
            if j in rows:
                # mi·mj != 0, so the entry is 0 only where the row listed j
                v = row.get(j, 0) + mi * mj
                if v:
                    row[j] = v
                else:
                    del row[j]
        rows[i] = row
        name, pa, kdeg = records[i]
        drop = mi * (mi - 1) // 2
        records[i] = (name, pa + drop, kdeg - mi)
        if minus_one is not None:
            if kdeg == -1 and not pa and before == -1:
                minus_one.remove((name, i))
            elif kdeg == mi - 1 and pa + drop == 0 and before + mi * mi == -1:
                insort(minus_one, (name, i))
    return column


def blow_up(config: CurveConfig, step: BlowupStep) -> CurveConfig:
    """Blow up one point with the given branch multiplicities.

    Each branch (C, m) loses m^2 from its self-intersection, m(m-1)/2 from
    its genus, gains m on its canonical degree and meets the new
    exceptional m times; branch pairs lose m*m' intersection.

    One copy of `config`'s three dicts (`_copy`), then O(deg²) Python
    work in the step kernel, which rebuilds only the branch rows and
    records; every other row and record is shared with `config`.  A
    valid step with one or two branches, the common case (nodes, ladder
    steps, tower steps), is written in closed form; every other step,
    and every refused one, takes the general pass, with the same result.
    Branches are handled in configuration order, so every `pa-negative`
    check precedes every `intersection-negative` check and the first
    offending pair in configuration order is the one named.
    """
    top = _copy(config)
    _blow_up(top, step)
    return top


def contract_minus_one(config: CurveConfig, name: str) -> CurveConfig:
    """Contract a (-1)-curve; exact inverse of `blow_up`.

    Contracting G adds (C.G)(C'.G) to C.C' and raises the genus of C by
    m(m-1)/2 and lowers its canonical degree by m, with m = C.G.  The
    name is resolved once (`unknown-curve`); the kernel takes its key
    and refuses any other curve as `not-minus-one-curve`, naming it.  One
    copy of `config`'s three dicts, then one O(deg²) pass of the kernel
    over G's row: only the rows and records of curves meeting G are
    rebuilt, every other row and record is shared, and no key changes.
    No (-1) list is kept: that is the contraction loops' work.
    A row that lists G although G's row does not list it (possible only
    in an asymmetric matrix) keeps the dead key, which every reader skips.
    """
    g = config._key(name)
    down = _copy(config)
    _contract(down, g)
    return down


def apply_script(config: CurveConfig, steps: Sequence[BlowupStep]) -> History:
    """Replay a blow-up script, returning the full history.  More than
    `MAX_SCRIPT_STEPS` steps raise `too-large` before the first one.

    The top is one draft, copied from `config` once and edited in place
    by every step, so a k-step replay costs one O(n) copy plus O(deg²)
    per step; with no steps the top is `config` itself.  The premise is
    scanned once per base, cached on `config`, and carried to the top; the
    catalog's bases are built once per process, so each is scanned once
    per process.
    """
    check_size("steps", len(steps), MAX_SCRIPT_STEPS)
    top = _copy(config, scan=True) if steps else config
    for step in steps:
        _blow_up(top, step)
    return History(config, tuple(steps), top)


# ---------------------------------------------------------------------------
# Divisor transport along a history.
#
# A class is walked over the steps as a copy of its integer vector s·D
# (`QDivisor.num`, s its `den`), updated in place, and the result keeps s.
# `_pull_back` edits the dict it is given, so it is never handed the `num`
# of a divisor: that would change the caller's divisor.
# ---------------------------------------------------------------------------

def _pull_back(steps: Sequence[BlowupStep], coeffs: dict[str, int], canonical: int) -> None:
    """Pull an integer class back through `steps`, in place.  Each new
    exceptional also gains `canonical`: s for s·(K_top - h*K_base), else 0."""
    get = coeffs.get
    for branches, exceptional, _ in steps:
        e = canonical
        for name, m in branches:
            e += m * get(name, 0)
        coeffs[exceptional] = e


def total_transform(history: History, d_on_base: QDivisor) -> QDivisor:
    """Pull a base divisor back step by step (the full preimage class)."""
    for name in d_on_base.num:
        history.base._key(name)
    coeffs = dict(d_on_base.num)
    _pull_back(history.steps, coeffs, 0)
    return QDivisor._from_scaled(d_on_base.den, coeffs)


def pushforward(history: History, d_on_top: QDivisor) -> QDivisor:
    """Drop all exceptional coefficients; keep curves originating downstairs.
    A name the top lacks raises `unknown-curve`, the first one in D's order."""
    num, keys = d_on_top.num, history.top._keys
    if not num.keys() <= keys.keys():
        raise LatticeError("unknown-curve", next(name for name in num if name not in keys))
    return _pushed(d_on_top, history.base)


def _pushed(cls: QDivisor, model: CurveConfig) -> QDivisor:
    """The class pushed forward to `model`, below the model it lives on (a
    contraction of it, or the base of its history): the coefficients of
    the curves `model` lacks dropped and the rest reduced again."""
    keys = model._keys
    kept = {k: v for k, v in cls.num.items() if k in keys}
    return cls if len(kept) == len(cls.num) else QDivisor._from_scaled(cls.den, kept)


def relative_canonical(history: History) -> QDivisor:
    """K_top - h*K_base, supported on the exceptionals: pulled back step by
    step, each new exceptional entering with coefficient 1."""
    coeffs: dict[str, int] = {}
    _pull_back(history.steps, coeffs, 1)
    return QDivisor._from_scaled(1, coeffs)


def boundary_adjustment(history: History, boundary: Iterable[str]) -> QDivisor:
    """Relative log divisor R with K_top + B_top = h*(K_base + B_base) + R.

    B_base is the reduced divisor on `boundary`; B_top is its strict
    transform plus every exceptional whose step has joins_boundary set.
    So R = (K_top - h*K_base) + B_top - h*B_base.
    """
    return log_class(history, QDivisor.zero(), boundary)


def log_class(history: History, base_class: QDivisor, boundary: Iterable[str]) -> QDivisor:
    """The transported log class h*(base_class) + R, with R as in
    `boundary_adjustment`: K_top + B_top when base_class represents
    K_base + B_base.  Computed as h*(base_class - B_base) + (K_top -
    h*K_base) + B_top, one pass over the steps."""
    base_boundary = sum_divisor(history.base, boundary)
    for name in base_class.num:
        history.base._key(name)
    scale, coeffs = base_class.den, dict(base_class.num)
    for name in base_boundary.num:
        coeffs[name] = coeffs.get(name, 0) - scale
    _pull_back(history.steps, coeffs, scale)
    for name in base_boundary.num:
        coeffs[name] += scale
    for _, name, joins in history.steps:
        if joins:
            coeffs[name] += scale
    return QDivisor._from_scaled(scale, coeffs)


# ---------------------------------------------------------------------------
# Contraction loop.
# ---------------------------------------------------------------------------

def _contract_while(
    config: CurveConfig,
    qualifies: Callable[[CurveConfig, int], bool],
    push: Callable[[int, dict[int, int], CurveConfig], None] | None = None,
) -> tuple[CurveConfig, list[str]]:
    """Contract the first qualifying (-1)-curve, to a fixpoint.

    `qualifies(model, key)` tests the curve with that key in the current
    model; candidates are tried in (name, key) order for determinism, and
    the one that qualifies is contracted by that key (`_contract`).  The
    first contraction copies `config` once (`_copy`) into a draft that
    every contraction then edits in place, O(deg²) each; the draft is the
    returned model, and `config` itself when nothing qualifies.  After
    each contraction, `push(key, column, draft)` carries the caller's
    class past it, given the contracted key and its row from before.
    Both callbacks receive keys and read the draft by key (`_rows`,
    `_records`, `_negative_definite`, a decomposition and the like); the
    one view they cache, `symmetric_nonnegative`, is kept right by the
    kernel, so no cached view of a model can go stale.

    The (-1)-curves are kept as a list of (name, key) pairs in that
    order, found by one scan at the start.  The loop takes the contracted
    pair out and hands the list to the kernel, whose one pass over the
    contracted curve's column rechecks each curve in it as it writes its
    row and record, the only ones a contraction changes.  The curve
    count strictly decreases, so the fixpoint is always reached.
    """
    rows = config._rows
    minus_one = sorted([(name, k) for k, (name, pa, kdeg) in config._records.items()
                        if kdeg == -1 and pa == 0 and rows[k].get(k) == -1])
    model, contracted = config, []
    while True:
        for pair in minus_one:
            if qualifies(model, pair[1]):
                break
        else:
            return model, contracted
        if model is config:
            model = _copy(config)
        minus_one.remove(pair)
        name, g = pair
        contracted.append(name)
        column = _contract(model, g, minus_one)
        if push is not None:
            push(g, column, model)


def mmp_contract_disjoint(
    config: CurveConfig, marked: Iterable[str]
) -> tuple[CurveConfig, list[str]]:
    """Contract (-1)-curves pairing zero with every marked curve, to a fixpoint.

    A curve qualifies when its row lists no marked key, so a marked
    (-1)-curve never qualifies (its row lists its own key: it meets
    itself in -1).
    """
    marked_keys = {config._key(name) for name in marked}
    return _contract_while(config, lambda cfg, k: marked_keys.isdisjoint(cfg._rows[k]))


def mmp_contract_log(
    config: CurveConfig, log_class: QDivisor
) -> tuple[CurveConfig, QDivisor, list[str]]:
    """Contract (-1)-curves the supplied class meets negatively, to a fixpoint.

    The class (the caller's numerical representative of K + boundary) is
    pushed forward after each contraction.  Its pairings v = s·D . C are
    computed once and then updated, not recomputed: contracting E, the
    pushed class meets each remaining C in D.C + (D.E)(E.C), with D.E
    read off E's row.  That holds for any matrix, symmetric or not, so
    the loop sees exactly the pairings a full recount would give.
    """
    _, coeffs, vals = _scaled_pairings(config, log_class)

    def push(g: int, column: dict[int, int], draft: CurveConfig) -> None:
        column = [(j, m) for j, m in column.items() if j in draft._rows]
        d_e = sum(m * coeffs.get(j, 0) for j, m in column) - coeffs.pop(g, 0)  # E.E = -1
        vals.pop(g, None)
        if d_e:
            for j, m in column:
                vals[j] = vals.get(j, 0) + m * d_e

    config, contracted = _contract_while(config, lambda cfg, k: vals.get(k, 0) < 0, push)
    return config, _pushed(log_class, config), contracted


def _decompose_by_key(config: CurveConfig, cls: QDivisor) -> tuple[set[int], dict[int, int]]:
    """supp N and the pairings of s·Δ·P = Δ·s·D - X, both by key, from the
    kernel's state.  The pairings are summed over the rows as
    `_scaled_pairings` sums them, so they are a positive multiple of its
    pairings of P, and zero on the same curves, which is all the loop reads."""
    from .zariski import _decompose

    _, coeffs, support, xs, det, _ = _decompose(config, cls)
    scaled = {k: det * a for k, a in coeffs.items()}
    for k, x in zip(support, xs):
        if x:
            scaled[k] = scaled.get(k, 0) - x
    rows, vals = config._rows, {}
    for k, a in scaled.items():
        if a:
            for j, m in rows[k].items():
                if j in rows:
                    vals[j] = vals.get(j, 0) + a * m
    return {k for k, x in zip(support, xs) if x}, vals


def contract_lc_trivial(
    config: CurveConfig,
    log_class: QDivisor,
    *,
    decomposition: tuple[QDivisor, QDivisor] | None = None,
) -> tuple[CurveConfig, QDivisor, list[str]]:
    """Contract (-1)-curves on which the positive part of the class is zero.

    These are volume-neutral contractions toward the model on which the
    class separates curves; the class is pushed forward after each one.
    The class is decomposed once, by `zariski_decompose`, unless the
    caller passes its (P, N) on `config` as `decomposition`; that pair is
    trusted, not checked.  If P.E = 0 then P = π*π_*P, so
    (π_*P, π_*N) is the decomposition below whenever the support of π_*N
    is still negative definite (Fujita 1979; unique by Bauer 2009): P
    keeps its pairings with the remaining curves and N only loses E.
    That pair is certified when E is in supp N (π* embeds the pushed
    support in the old one), or E meets no curve of supp N (its Gram
    block is unchanged), or the pushed support passes one
    `_negative_definite` check, on its keys; and only on a model that is symmetric
    with no negative off-diagonal entry, which the uniqueness needs and
    which contractions preserve.  That premise is the one property
    `CurveConfig.symmetric_nonnegative`, which the warm start of
    `zariski` reads too; here it is tested once, on the starting model.
    A pair that is not certified is replaced by a decomposition of the
    pushed class on the contracted model, read by key off the kernel's
    integer state (`zariski._decompose`): no name is resolved and no
    result is built inside the loop.
    """
    if decomposition is None:
        from .zariski import zariski_decompose

        result = zariski_decompose(config, log_class)
        decomposition = result.positive, result.negative
    positive, negative = decomposition
    certifiable = config.symmetric_nonnegative
    support = {config._key(name) for name in negative.support}
    _, _, vals = _scaled_pairings(config, positive)

    def push(g: int, column: dict[int, int], draft: CurveConfig) -> None:
        nonlocal support, vals
        if certifiable and (
            g in support
            or support.isdisjoint(column)
            or _negative_definite(draft, support)
        ):
            support.discard(g)
            vals.pop(g, None)
        else:
            support, vals = _decompose_by_key(draft, _pushed(log_class, draft))

    config, contracted = _contract_while(config, lambda cfg, k: vals.get(k, 0) == 0, push)
    return config, _pushed(log_class, config), contracted
