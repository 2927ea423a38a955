"""RG302 fixture (bad twin): unordered collections feed order-sensitive sinks.

Float accumulation order follows set iteration order, which follows
``PYTHONHASHSEED`` — the reduction result (and any heap built from it)
is not a pure function of the seed. RG302 is folded into RG105, which
must fire at every site RG302 caught.
"""

import heapq


def total_loss(losses):
    pool = {round(x, 6) for x in losses}
    return sum(pool)  # expect: RG105


def mean_update(updates):
    staged = set(updates)
    return sum(staged) / len(staged)  # expect: RG105


def schedule(heap, ready, seq_source):
    ready_set = set(ready)
    for cid in ready_set:  # expect: RG105
        heapq.heappush(heap, (0.0, next(seq_source), cid))
