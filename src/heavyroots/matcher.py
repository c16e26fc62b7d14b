"""Bottleneck matching of computed roots against predicted roots.

The match quality between a computed root z and a predicted root w is the
relative error |z/w - 1|, evaluated in log-domain so that roots of any
magnitude compare meaningfully.  A prediction "holds" when some pairing of
computed to predicted roots keeps the worst relative error strictly below
eps/n.

The assignment that minimizes the worst pairwise error is a bottleneck
assignment.  No assignment beats the trivial lower bound max(max of row
minima, max of column minima).  When every predicted root has a different
nearest computed root, pairing each with its nearest meets that bound, so it
is optimal and its worst error is the bound itself; in the well-separated
instances this module is built for that certificate almost always applies.
Otherwise a greedy pass (repeatedly taking the globally smallest distance
between an unused row and column) is optimal whenever its worst pick does not
exceed the bound, and failing that we binary-search the distance values
between the bound and the greedy worst, testing feasibility with augmenting
paths.  Every route returns the optimal worst error, exactly; only the
permutation depends on the route.
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
    return match_roots_many([computed], [predicted], eps, n)[0]


def match_roots_many(
    computed: list[RootSet],
    predicted: list[PredictedRoots | None],
    eps: float,
    n: int,
) -> list[MatchResult]:
    """match_roots for many trials of one degree n, pair by pair.

    The distance matrices of all trials with a prediction are built as one
    (trials, n, n) array, and the nearest-neighbour certificate is checked
    for all of them at once; only the trials it leaves open take the greedy
    pass and, if needed, the bracketed search, one at a time.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    out = [MatchResult(False, None, math.inf, True)] * len(computed)
    live = [i for i, p in enumerate(predicted) if p is not None]
    if not live:
        return out
    if any(computed[i].lm.size != n or predicted[i].ph.size != n for i in live):
        raise ValueError("root counts must both equal n")
    w = [predicted[i] for i in live]
    z = [computed[i] for i in live]
    dist = relative_distance_matrix(
        np.stack([p.lm for p in w]),
        np.stack([p.ph for p in w]),
        np.stack([r.lm for r in z]),
        np.stack([r.ph for r in z]),
    )
    nearest = dist.argmin(axis=2)
    bound = np.maximum(dist.min(axis=2).max(axis=1), dist.min(axis=1).max(axis=1))
    hit = np.zeros(nearest.shape, dtype=bool)
    hit[np.arange(len(live))[:, None], nearest] = True
    certified = hit.all(axis=1)  # every predicted root has its own nearest
    for t, i in enumerate(live):
        worst = float(bound[t])
        if certified[t]:
            perm = nearest[t]
        else:
            perm, greedy = greedy_assignment(dist[t])
            if greedy > worst:
                perm, greedy = bottleneck_assignment(dist[t], worst, greedy)
            worst = greedy
        out[i] = MatchResult(bool(worst < eps / n), tuple(perm.tolist()), worst, False)
    return out
