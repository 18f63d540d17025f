"""Exact linear algebra over the rationals.

`BorderedLDL` is the package's one factorization: a sparse symmetric
LDLᵀ over `Fraction`s without pivoting, grown by bordering.  Each new
row and column is appended after the existing ones; its row of L comes
from a sparse forward solve against the entries it shares with earlier
positions, and its pivot is the Schur complement of its diagonal entry.
The pivots are the certificate: a symmetric block is negative definite
exactly when every pivot is negative, in whatever order its rows were
added (each leading block is a principal block).  A zero or positive
pivot stops the caller, who decides what that means.

`solve_symmetric` is the dense route: systems are cleared to integers
row by row and eliminated fraction-free (Bareiss), with partial pivoting
by absolute numerator size, so it also solves nonsingular blocks that
are not definite.  Pivot choice cannot affect the exact solution; it
only keeps intermediate integers small.
"""
from __future__ import annotations

from fractions import Fraction as Q
from math import lcm


class BorderedLDL:
    """A = L D Lᵀ with L unit lower triangular, stored by sparse columns."""

    __slots__ = ("pivots", "cols")

    def __init__(self) -> None:
        self.pivots: list[Q] = []
        self.cols: list[dict[int, Q]] = []  # cols[j] = {i: L[i][j]}, i > j

    def border(self, entries: dict[int, int], diag: int) -> Q:
        """Append a row and column; return its pivot.

        `entries` maps earlier positions to their nonzero off-diagonal
        entries in the new row.  The forward solve L y = entries visits
        only the positions reachable through the columns of L, in
        increasing order.
        """
        from heapq import heappop, heappush  # here, not at import: CLI start-up

        y = {j: Q(a) for j, a in entries.items()}
        heap = sorted(y)  # a sorted list is a heap
        while heap:
            j = heappop(heap)
            yj = y[j]
            if not yj:
                continue
            for i, lij in self.cols[j].items():
                if i in y:
                    y[i] -= lij * yj
                else:
                    y[i] = -lij * yj
                    heappush(heap, i)
        k = len(self.pivots)
        pivot = Q(diag)
        for j, yj in y.items():
            if yj:
                lj = yj / self.pivots[j]
                self.cols[j][k] = lj
                pivot -= lj * yj
        self.cols.append({})
        self.pivots.append(pivot)
        return pivot

    def solve(self, rhs: list[Q]) -> list[Q]:
        """x with A x = rhs: forward pass, divide by the pivots, back pass."""
        z = list(rhs)
        for j, col in enumerate(self.cols):
            zj = z[j]
            if zj:
                for i, lij in col.items():
                    z[i] -= lij * zj
        x = [s / p for s, p in zip(z, self.pivots)]
        for i in range(len(x) - 1, -1, -1):
            s = x[i]
            for k, lki in self.cols[i].items():
                s -= lki * x[k]
            x[i] = s
        return x


def solve_symmetric(matrix: list[list[int]], rhs: list[Q]) -> list[Q] | None:
    """Solve A x = b exactly for square integer A.  None if A is singular."""
    n = len(matrix)
    if n == 0:
        return []
    rows: list[list[int]] = []
    for i in range(n):
        b = Q(rhs[i])
        scale = lcm(1, b.denominator)
        rows.append([int(a) * scale for a in matrix[i]] + [int(b * scale)])

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

    xs = [Q(0)] * n
    for i in range(n - 1, -1, -1):
        s = Q(rows[i][n])
        for j in range(i + 1, n):
            s -= rows[i][j] * xs[j]
        xs[i] = s / rows[i][i]
    return xs
