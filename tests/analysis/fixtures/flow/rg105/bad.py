"""RG105 fixture (bad twin): set iteration feeding an order-sensitive sink.

Besides ordered results (appends, lists), float reductions and heap
pushes are sinks: set iteration order follows ``PYTHONHASHSEED``, so the
reduction's rounding (and any heap built from it) is not a pure function
of the seed.
"""

import heapq


def select(ids):
    chosen = {i for i in ids if i % 2}
    out = []
    for cid in chosen:  # expect: RG105
        out.append(cid)
    return out


def materialize(ids):
    return list({i for i in ids})  # expect: RG105


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
