"""Bottleneck matching of computed roots against predicted roots.

The match quality between a computed root z and a predicted root w is the
relative error |z/w - 1|, evaluated in log-domain so that roots of any
magnitude compare meaningfully.  A prediction "holds" when some pairing of
computed to predicted roots keeps the worst relative error strictly below
eps/n.

The assignment that minimizes the worst pairwise error is a bottleneck
assignment.  A greedy pass (repeatedly taking the globally smallest distance
between an unused row and column) is optimal whenever its worst pick does not
exceed the trivial lower bound max(max of row minima, max of column minima);
in the well-separated instances this module is built for that shortcut almost
always applies.  Otherwise we binary-search the distance values between that
bound and the greedy worst, testing feasibility with augmenting paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roots import PredictedRoots, RootSet
from .xvec import relative_distance_matrix


@dataclass(frozen=True, slots=True)
class MatchResult:
    holds: bool
    permutation: tuple[int, ...] | None
    worst_relative_error: float
    degenerate: bool


def greedy_assignment(dist: np.ndarray) -> tuple[np.ndarray, float]:
    """Assign rows to columns taking globally smallest distances first."""
    m = dist.shape[0]
    perm = np.full(m, -1, dtype=np.int64)
    row_free = np.ones(m, dtype=bool)
    col_free = np.ones(m, dtype=bool)
    order = np.argsort(dist, axis=None, kind="stable")
    worst = 0.0
    left = m
    for flat in order:
        i, j = divmod(int(flat), m)
        if row_free[i] and col_free[j]:
            perm[i] = j
            row_free[i] = False
            col_free[j] = False
            worst = max(worst, float(dist[i, j]))
            left -= 1
            if left == 0:
                break
    return perm, worst


def _perfect_matching_under(dist: np.ndarray, limit: float) -> np.ndarray | None:
    """Row->col perfect matching using only entries <= limit, else None.

    Kuhn's augmenting-path search, one depth-first search per row, run with
    an explicit stack so that path length never meets the recursion limit.
    Each row's admissible columns are listed once; a row entered by the
    search takes the snapshot of those not yet visited, in column order.
    """
    m = dist.shape[0]
    mask = dist <= limit
    cols = np.nonzero(mask)[1].tolist()  # row-major, so ascending per row
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    adj = [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]
    match_col = [-1] * m

    for root in range(m):
        visited = [False] * m
        # frame: [row, its candidate columns, next position]; path[d] is the
        # column through which frame d + 1 was entered
        stack = [[root, adj[root], 0]]
        path: list[int] = []
        while stack:
            frame = stack[-1]
            i, cand, pos = frame
            if pos == len(cand):
                stack.pop()
                if path:
                    path.pop()
                continue
            j = cand[pos]
            frame[2] = pos + 1
            visited[j] = True
            if match_col[j] < 0:
                match_col[j] = i
                for d, col in enumerate(path):
                    match_col[col] = stack[d][0]
                break
            path.append(j)
            k = match_col[j]
            stack.append([k, [c for c in adj[k] if not visited[c]], 0])
        else:
            return None
    perm = np.full(m, -1, dtype=np.int64)
    perm[match_col] = np.arange(m)
    return perm


def bottleneck_assignment(
    dist: np.ndarray, lower: float = -math.inf, upper: float = math.inf
) -> tuple[np.ndarray, float]:
    """Assignment minimizing the largest used distance, by binary search.

    lower and upper bracket the optimum: no assignment beats lower, and one
    uses no distance above upper.  Only the distinct distances between them
    are searched, and the result is the matching found at the optimum, the
    same as with no bracket.
    """
    values = np.unique(dist[(dist >= lower) & (dist <= upper)])
    if values.size == 0:
        raise ValueError("no distance lies between the bounds")
    lo, hi = 0, values.size - 1
    best = None  # the matching at values[hi], once one has been found
    while lo < hi:
        mid = (lo + hi) // 2
        perm = _perfect_matching_under(dist, float(values[mid]))
        if perm is not None:
            best, hi = perm, mid
        else:
            lo = mid + 1
    if best is None:
        best = _perfect_matching_under(dist, float(values[hi]))
        if best is None:
            raise RuntimeError("square distance matrix must admit a matching")
    return best, float(values[hi])


def match_roots(
    computed: RootSet,
    predicted: PredictedRoots | None,
    eps: float,
    n: int,
) -> MatchResult:
    """Best bottleneck pairing of computed against predicted roots.

    A missing prediction (two-sided radii unavailable) is reported as a
    degenerate non-match rather than an error.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if predicted is None:
        return MatchResult(False, None, math.inf, True)
    if computed.lm.size != n or predicted.ph.size != n:
        raise ValueError("root counts must both equal n")
    dist = relative_distance_matrix(
        predicted.lm, predicted.ph, computed.lm, computed.ph
    )

    perm, worst = greedy_assignment(dist)
    bound = max(float(dist.min(axis=1).max()), float(dist.min(axis=0).max()))
    if worst > bound:
        perm, worst = bottleneck_assignment(dist, bound, worst)
    holds = bool(worst < eps / n)
    return MatchResult(holds, tuple(int(j) for j in perm), worst, False)
