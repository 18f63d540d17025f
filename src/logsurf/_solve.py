"""Exact linear algebra over the integers.

`BorderedLDL` is the package's one factorization: a sparse symmetric
LDLᵀ without pivoting, grown by bordering and kept fraction-free.  It
stores the leading principal minors Δ₋₁ = 1, Δ₀, Δ₁, … and, by sparse
columns, the Bareiss minors L̃[r][t] = a⁽ᵗ⁻¹⁾[r][t] (the leading t×t
block bordered by row r and column t), so that L[r][t] = L̃[r][t]/Δₜ and
the pivots are Δₖ/Δₖ₋₁ (Bareiss 1968; Zhou & Jeffrey, *Fraction-free
matrix factors*, 2008).  The right-hand side b is one more column of the
elimination: zₖ, the minor of rows 0..k of [A | b] on columns 0..k−1 and
b, comes with Δₖ, so a solve is the back pass alone.  Every stored
number is a minor of an integer matrix, so every division is exact.  It owns the placement too:
`position` maps each curve key to its row, in the order bordered, and
the caller hands it each row and right-hand side entry by key.

A new row runs the sparse forward pass with the Bareiss step
a⁽ᵗ⁾ = (Δₜ·a⁽ᵗ⁻¹⁾ − L̃[k][t]·L̃[j][t]) / Δₜ₋₁ at the positions that column
t of L̃ reaches, and on its diagonal and right-hand side entries.  A step
that skips a position only rescales it by Δₜ/Δₜ₋₁, so each position
keeps the level it was last updated at and is caught up on its next
read: multiply by Δₜ₋₁, divide by Δ at that level.  Two row shapes have
a closed form and skip the pass.  A row with no placed entry (a new
block) has Δₖ = d·Δₖ₋₁ and zₖ = b·Δₖ₋₁, d and b its diagonal and
right-hand side entries.  A row whose one entry m sits at a position t
whose column of L̃ is still empty (an elimination-tree leaf) takes one
Bareiss step from level 0: L̃[k][t] = m·Δₜ₋₁,
Δ = (Δₜ·d·Δₜ₋₁ − L̃[k][t]²)/Δₜ₋₁ = Δₜ·d − m·L̃[k][t] and z = Δₜ·b − m·zₜ,
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


class BorderedLDL:
    """Integer leading minors, Bareiss minors and forward values of a bordered system."""

    __slots__ = ("minors", "cols", "forward", "position")

    def __init__(self) -> None:
        self.minors: list[int] = [1]  # minors[k + 1] = Δₖ, minors[0] = Δ₋₁ = 1
        self.cols: list[dict[int, int]] = []  # cols[t] = {k: L̃[k][t]}, k ascending
        self.forward: list[int] = []  # forward[k] = zₖ, the right-hand side's column
        self.position: dict[int, int] = {}  # curve key -> row, in the order bordered

    def border(self, row: dict[int, int], key: int, rhs: int) -> bool:
        """Place curve `key`, by its configuration `row` and right-hand side
        entry `rhs`, if its pivot is negative; say whether it was.  Entries
        at curves not placed (dead keys too) are skipped.  A new block or an
        elimination-tree leaf (one entry, in a column of L̃ still empty)
        takes its closed form, read off the row in one pass that builds
        nothing, no entry dict and no list for row k of L̃ (0.86 µs a row
        of a tower's guess; Intel Xeon, Python 3.11.7); a row
        with a second placed entry, or one in a column already filled,
        leaves that pass for `_forward`.  A pivot that is zero or positive
        leaves the factor as it was."""
        minors, cols, position = self.minors, self.cols, self.position
        k = len(cols)
        lrow = None  # row k of L̃ from `_forward`
        t = -1  # a leaf's one place
        for j in row:
            if j in position:
                if t >= 0 or cols[position[j]]:
                    entries = {position[i]: m for i, m in row.items() if i in position}
                    lrow, dk, zk = self._forward(entries, row.get(key, 0), rhs, k)
                    break
                t, m = position[j], row[j]
        else:
            if t < 0:
                dk, zk = row.get(key, 0) * minors[k], rhs * minors[k]
            else:
                piv = minors[t + 1]
                lt = m * minors[t]
                dk, zk = piv * row.get(key, 0) - m * lt, piv * rhs - m * self.forward[t]
                if t + 1 != k:
                    dk, zk = dk * minors[k] // piv, zk * minors[k] // piv
        if not dk or (dk > 0) == (minors[k] > 0):
            return False
        if lrow is not None:
            for t, lt in lrow:
                cols[t][k] = lt
        elif t >= 0:
            cols[t][k] = lt
        cols.append({})
        minors.append(dk)
        self.forward.append(zk)
        position[key] = k
        return True

    def truncate(self, k: int) -> None:
        """Keep the first k rows: the factor before row k was placed."""
        del self.minors[k + 1 :], self.forward[k:], self.cols[k:]
        for col in self.cols:
            while col and next(reversed(col)) >= k:  # its keys ascend
                col.popitem()
        while len(self.position) > k:
            self.position.popitem()

    def _forward(
        self, val: dict[int, int], diag: int, rhs: int, k: int
    ) -> tuple[list[tuple[int, int]], int, int]:
        """Row k of L̃, Δₖ and zₖ by the sparse forward pass over the positions
        the columns of L̃ reach, in increasing order.  It consumes the row's
        entries by position: val[j] = a⁽ˡ⁻¹⁾[k][j] at level l = level[j]."""
        minors, cols, z = self.minors, self.cols, self.forward
        level = dict.fromkeys(val, 0)
        heap = sorted(val)  # a sorted list is a heap
        row: list[tuple[int, int]] = []
        dk, zk, dl = diag, rhs, 0  # the diagonal and right-hand side entries and their level
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
                dk, zk = dk * prev // minors[dl], zk * prev // minors[dl]
            dk, zk = (piv * dk - lt * lt) // prev, (piv * zk - lt * z[t]) // prev
            dl = t + 1
        if dl != k:
            dk, zk = dk * minors[k] // minors[dl], zk * minors[k] // minors[dl]
        return row, dk, zk

    def solve(self) -> tuple[list[int], int]:
        """(X, Δ) with A X = Δ·b and Δ = det A, all integers (Cramer), X by
        row: the back pass Xᵢ = (Δ·zᵢ − Σ L̃[c][i]·X_c) / Δᵢ over the later
        rows c, since `border` has computed every zᵢ."""
        minors, z, cols = self.minors, self.forward, self.cols
        det = minors[-1]
        xs = [0] * len(z)
        for i in range(len(z) - 1, -1, -1):
            s = det * z[i]
            for c, lci in cols[i].items():
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
