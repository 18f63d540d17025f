"""Exact linear algebra over the integers.

`BorderedLDL` is the package's one factorization: a sparse symmetric
LDLᵀ without pivoting, grown by bordering and kept fraction-free.  It
stores the leading principal minors Δ₋₁ = 1, Δ₀, Δ₁, … and, by sparse
rows and columns, the Bareiss minors L̃[r][t] = a⁽ᵗ⁻¹⁾[r][t] (the
leading t×t block bordered by row r and column t), so that L[r][t] =
L̃[r][t]/Δₜ and the pivots are Δₖ/Δₖ₋₁ (Bareiss 1968; Zhou & Jeffrey,
*Fraction-free matrix factors*, 2008).  Every stored number is a minor of
an integer matrix, so every division below is exact.  It owns the
placement too: `position` maps each curve key to its row, in the order
bordered, and the caller hands it rows and right-hand sides by key.

A new row runs the sparse forward pass with the Bareiss step
a⁽ᵗ⁾ = (Δₜ·a⁽ᵗ⁻¹⁾ − L̃[k][t]·L̃[j][t]) / Δₜ₋₁ at the positions that column
t of L̃ reaches.  A step that skips a position only rescales it by
Δₜ/Δₜ₋₁, so each position keeps the level it was last updated at and is
caught up on its next read: multiply by Δₜ₋₁, divide by Δ at that level.
Two row shapes have a closed form and skip the pass.  A row with no
placed entry (a new block) has Δₖ = d·Δₖ₋₁, d its diagonal entry.  A row
whose one entry m sits at a position t whose column of L̃ is still empty (an
elimination-tree leaf) takes one Bareiss step from level 0:
L̃[k][t] = m·Δₜ₋₁ and Δ = (Δₜ·d·Δₜ₋₁ − L̃[k][t]²)/Δₜ₋₁ = Δₜ·d − m·L̃[k][t],
caught up from level t + 1 to k as above.  Both store exactly what the
pass would; on a tower's guess, bordered in configuration order, every
row is one of the two.
The pivots are the certificate (Sylvester): a symmetric block is negative
definite exactly when every Δₖ is nonzero with the sign opposite to
Δₖ₋₁, in whatever order its rows were added (each leading block is a
principal block).  A pivot that is zero or positive stops the caller,
who decides what that means.

`solve_symmetric` is the dense route, for the Zariski loop's rounds
after a pivot that is not negative and for the subset oracle: Bareiss
elimination with partial pivoting by absolute size, so it also solves
nonsingular blocks that are not definite, and an integer back pass.  It
returns Cramer's pair as `BorderedLDL.solve` does, with Δ = ±det A.
Pivot choice cannot affect the exact solution X/Δ; it only keeps
intermediate integers small.
"""
from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice


class BorderedLDL:
    """Integer leading minors and Bareiss minors of a bordered symmetric matrix."""

    __slots__ = ("minors", "rows", "cols", "forward", "position")

    def __init__(self) -> None:
        self.minors: list[int] = [1]  # minors[k + 1] = Δₖ, minors[0] = Δ₋₁ = 1
        self.rows: list[list[tuple[int, int]]] = []  # rows[k] = [(t, L̃[k][t])], t ascending
        self.cols: list[dict[int, int]] = []  # cols[t] = {k: L̃[k][t]}, k ascending
        self.forward: list[int] = []  # forward values of the right-hand side, per row
        self.position: dict[int, int] = {}  # curve key -> row, in the order bordered

    def border(self, row: dict[int, int], key: int) -> bool:
        """Place curve `key`, by its configuration `row`, if its pivot is
        negative; say whether it was.  Entries at curves not placed (dead
        keys too) are skipped.  A row with no placed entry (a new block) or
        with one whose column of L̃ is still empty (an elimination-tree
        leaf) takes its closed form; any other row runs `_forward`.  A
        pivot that is zero or positive leaves the factor as it was.
        """
        minors, cols, position = self.minors, self.cols, self.position
        k = len(cols)
        entries = {position[j]: m for j, m in row.items() if j in position}
        diag = row.get(key, 0)
        if not entries:
            lrow: list[tuple[int, int]] = []
            dk = diag * minors[k]
        elif len(entries) == 1 and not cols[t := next(iter(entries))]:
            m, piv = entries[t], minors[t + 1]
            lt = m * minors[t]
            lrow = [(t, lt)]
            dk = piv * diag - m * lt
            if t + 1 != k:
                dk = dk * minors[k] // piv
        else:
            lrow, dk = self._forward(entries, diag, k)
        if not dk or (dk > 0) == (minors[k] > 0):
            return False
        for t, lt in lrow:
            cols[t][k] = lt
        self.rows.append(lrow)
        self.cols.append({})
        minors.append(dk)
        position[key] = k
        return True

    def _forward(
        self, entries: dict[int, int], diag: int, k: int
    ) -> tuple[list[tuple[int, int]], int]:
        """Row k of L̃ and Δₖ by the sparse forward pass, which visits only
        the positions reachable through the columns of L̃, in increasing
        order."""
        minors, cols = self.minors, self.cols
        val = dict(entries)  # a⁽ˡ⁻¹⁾[k][j] at level l = level[j]
        level = dict.fromkeys(entries, 0)
        heap = sorted(val)  # a sorted list is a heap
        row: list[tuple[int, int]] = []
        dk, dl = diag, 0  # the diagonal entry and its level
        while heap:
            t = heappop(heap)
            prev = minors[t]
            lt = val[t]
            if level[t] != t:
                lt = lt * prev // minors[level[t]]
            if not lt:
                continue
            row.append((t, lt))
            piv = minors[t + 1]
            for j, ljt in cols[t].items():
                if j in val:
                    v, lv = val[j], level[j]
                    if lv != t:
                        v = v * prev // minors[lv]
                    val[j] = (piv * v - lt * ljt) // prev
                else:
                    val[j] = -(lt * ljt) // prev
                    heappush(heap, j)
                level[j] = t + 1
            if dl != t:
                dk = dk * prev // minors[dl]
            dk = (piv * dk - lt * lt) // prev
            dl = t + 1
        if dl != k:
            dk = dk * minors[k] // minors[dl]
        return row, dk

    def solve(self, values: dict[int, int]) -> tuple[list[int], int]:
        """(X, Δ) with A X = Δ·b and Δ = det A, all integers (Cramer), X by row.

        bₖ = `values.get(key, 0)` is read only for the rows bordered since
        the last call, since the forward values of earlier rows are kept:
        the factor has one right-hand side.  The back pass is
        Xᵢ = (Δ·zᵢ − Σ L̃[c][i]·X_c) / Δᵢ over the later rows c.
        """
        minors, z = self.minors, self.forward
        for i, key in enumerate(islice(self.position, len(z), None), len(z)):
            zi, lv = values.get(key, 0), 0
            for t, lt in self.rows[i]:
                prev = minors[t]
                if lv != t:
                    zi = zi * prev // minors[lv]
                zi = (minors[t + 1] * zi - lt * z[t]) // prev
                lv = t + 1
            if lv != i:
                zi = zi * minors[i] // minors[lv]
            z.append(zi)
        det = minors[-1]
        xs = [0] * len(z)
        for i in range(len(z) - 1, -1, -1):
            s = det * z[i]
            for c, lci in self.cols[i].items():
                s -= lci * xs[c]
            xs[i] = s // minors[i + 1]
        return xs, det


def solve_symmetric(matrix: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """(X, Δ) with A X = Δ·rhs and Δ = ±det A, all integers (Cramer), for
    square integer A.  None if A is singular.  Row i ends with the pivot
    Δᵢ, a leading minor of the swapped system, so the back pass
    Xᵢ = (Δ·bᵢ − Σ aᵢⱼ·Xⱼ) / Δᵢ over the later columns j is exact."""
    n = len(matrix)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    prev = 1
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[piv][k] == 0:
            return None
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
        pivot = rows[k][k]
        for r in range(k + 1, n):
            factor = rows[r][k]
            row_r, row_k = rows[r], rows[k]
            for c in range(k + 1, n + 1):
                row_r[c] = (row_r[c] * pivot - factor * row_k[c]) // prev
            row_r[k] = 0
        prev = pivot

    xs = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = prev * row[n]
        for j in range(i + 1, n):
            s -= row[j] * xs[j]
        xs[i] = s // row[i]
    return xs, prev
