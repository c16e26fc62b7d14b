"""Bottleneck matching of computed roots against predicted roots.

The match quality between a computed root z and a predicted root w is the
relative error |z/w - 1|, evaluated in log-domain so that roots of any
magnitude compare meaningfully.  A prediction "holds" when some pairing of
computed to predicted roots keeps the worst relative error strictly below
eps/n.

The assignment that minimizes the worst pairwise error is a bottleneck
assignment.  No assignment beats the lower bound max(max of row minima, max
of column minima).  bottleneck_assignment starts from the nearest-neighbour
pairing, which uses no distance above that bound, and grows it one free row
at a time along the alternating path whose largest distance is smallest (the
augmenting-path method for bottleneck assignment; Burkard, Dell'Amico &
Martello, Assignment Problems, ch. 6).  When every predicted root has a
different nearest computed root, no row is free and the bound is the answer;
in the well-separated instances this module is built for that is the usual
case.  The worst error returned is the optimum exactly; the permutation is
one optimal assignment.
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


def bottleneck_assignment(dist: np.ndarray) -> tuple[np.ndarray, float]:
    """Assignment of rows to columns minimizing the largest used distance.

    Returns (perm, worst): row i takes column perm[i], and worst is the
    largest distance the assignment uses, an entry of dist.  The nearest-
    neighbour pairing starts it, each column kept by the lowest-index row
    whose nearest column it is, and worst starts at the row/column-minimum
    bound.  Every row left free then augments along the alternating path
    that raises worst least.  The matching never uses a distance above the
    optimum, so neither does worst, and the last matching reaches it.
    """
    m = dist.shape[0]
    cols, rows = np.unique(dist.argmin(axis=1), return_index=True)
    perm = np.full(m, -1, dtype=np.int64)
    perm[rows] = cols
    row_of = np.full(m, -1, dtype=np.int64)  # the row that holds each column
    row_of[cols] = rows
    worst = max(float(dist.min(axis=1).max()), float(dist.min(axis=0).max()))
    for r in np.flatnonzero(perm < 0).tolist():
        # label[j]: the smallest largest distance of an alternating path
        # from r to column j found so far, entered from row via[j]
        label = dist[r].copy()
        via = np.full(m, r, dtype=np.int64)
        changed = np.ones(m, dtype=bool)  # labels not yet relaxed
        while True:
            free = np.flatnonzero(row_of < 0)
            end = int(free[label[free].argmin()])
            # only a column labelled below the best free column can lead
            # to a better one, and no free column is labelled below it
            open_ = np.flatnonzero(changed & (label < label[end]))
            if open_.size == 0 or label[end] <= worst:
                break
            held = row_of[open_]
            # cand[k, j]: the path through column open_[k], then its row,
            # to column j
            cand = dist[held]
            np.maximum(cand, label[open_, None], out=cand)
            pick = cand.argmin(axis=0)
            best = cand[pick, np.arange(m)]
            changed = best < label
            label[changed] = best[changed]
            via[changed] = held[pick[changed]]
        worst = max(worst, float(label[end]))
        j = end
        while j >= 0:  # flip the path back to r, whose column is -1
            i = int(via[j])
            row_of[j] = i
            perm[i], j = j, int(perm[i])
    return perm, worst


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
    (trials, n, n) array; each trial's matrix then gets its own
    bottleneck_assignment.
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
    for t, i in enumerate(live):
        perm, worst = bottleneck_assignment(dist[t])
        out[i] = MatchResult(bool(worst < eps / n), tuple(perm.tolist()), worst, False)
    return out
