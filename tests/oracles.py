"""Exhaustive matching oracles shared by the tracker, evaluator and acceptance tests.

Each one enumerates every injective pairing of rows to columns, so it is
meant for frames of a handful of objects.
"""

import itertools
import math

import numpy as np

from crowdmot.geometry import bev_iou

# Totals this close to the best one count as ties.
TIE = 1e-12


def _pairings(rows, cols):
    """Every injective set of (row, col) pairs, the empty one first."""
    for r in range(min(len(rows), len(cols)) + 1):
        for chosen in itertools.combinations(rows, r):
            for perm in itertools.permutations(cols, r):
                yield frozenset(zip(chosen, perm))


def exhaustive_assignment(dets, tracks, max_dist):
    """Most matches, then least total distance, over every gated det->track assignment.

    Each detection is shifted by its predicted offset, as associate shifts
    it. Returns the best set of (detection index, track id) pairs and whether
    it is unique: every other assignment with as many matches has a total
    more than TIE above it.
    """
    dists = {}
    for i, d in enumerate(dets):
        px, py = d.box.cx + d.offset.ox, d.box.cy + d.offset.oy
        for tid, (cx, cy) in tracks:
            dist = math.hypot(cx - px, cy - py)
            if dist <= max_dist:
                dists[(i, tid)] = dist
    gated = [
        (len(pairs), sum(dists[p] for p in pairs), pairs)
        for pairs in _pairings(range(len(dets)), [tid for tid, _ in tracks])
        if all(p in dists for p in pairs)
    ]
    most = max(n for n, _, _ in gated)
    finalists = [(total, pairs) for n, total, pairs in gated if n == most]
    best_total, best_pairs = min(finalists, key=lambda c: c[0])
    unique = all(total > best_total + TIE for total, pairs in finalists if pairs != best_pairs)
    return set(best_pairs), unique


def iou_matrix(gt_boxes, pred_boxes):
    """Rotated BEV IoU of every (GT box, predicted box) pair, one bev_iou call each."""
    iou = np.zeros((len(gt_boxes), len(pred_boxes)))
    for i, g in enumerate(gt_boxes):
        for j, p in enumerate(pred_boxes):
            iou[i, j] = bev_iou(g.bev(), p.bev())
    return iou


def exhaustive_iou_match(iou, threshold):
    """Max total IoU over every assignment of (row, column) pairs with IoU >= threshold.

    Returns the best pair set, its total, and whether it is unique: every
    other assignment has a total more than TIE below it.
    """
    n, m = iou.shape
    scored = [
        (sum(iou[p] for p in pairs), pairs)
        for pairs in _pairings(range(n), range(m))
        if all(iou[p] >= threshold for p in pairs)
    ]
    best_total, best_pairs = max(scored, key=lambda c: c[0])
    unique = all(total < best_total - TIE for total, pairs in scored if pairs != best_pairs)
    return best_pairs, best_total, unique
