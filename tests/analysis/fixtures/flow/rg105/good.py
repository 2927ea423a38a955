"""RG105 fixture (good twin): unordered collections sorted before use."""

import heapq


def select(ids):
    chosen = {i for i in ids if i % 2}
    out = []
    for cid in sorted(chosen):
        out.append(cid)
    return out


def materialize(ids):
    return sorted({i for i in ids})


def membership_only(ids, needle):
    chosen = {i for i in ids if i % 2}
    return needle in chosen


def total_loss(losses):
    pool = {round(x, 6) for x in losses}
    return sum(sorted(pool))


def mean_update(updates):
    staged = sorted(set(updates))
    return sum(staged) / len(staged)


def schedule(heap, ready, seq_source):
    for cid in sorted(set(ready)):
        heapq.heappush(heap, (0.0, next(seq_source), cid))
