"""The host's speed during a run, from a fixed reference computation.

On a shared host the same code runs up to 1.7 times faster from one minute
to the next.  A run times a fixed pure-Python computation, which shares no
code with the package, again and again while it runs: a few times before
every pass; in the worker after every op, about once per SAMPLE_EVERY_S of
op time; and while a CLI process runs, once per WHILE_WAITING_GAP_S from a
thread of the benchmark (see run.spawn).  The ratio of its nominal time to its median
measured time is the run's speed factor, and the end-to-end times are
reported at the nominal speed:

    reported = measured * factor = measured * REFERENCE_NOMINAL_S / median(reference)

A change to the package does not change the reference, so it moves the
reported times in full; a change in the host's speed moves the reference
and the ops alike and cancels out.
"""

from __future__ import annotations

from time import perf_counter

import workloads

# One reference computation's time on the 2-vCPU Intel Xeon VM (CPython
# 3.11.7) the baseline was measured on.  It only fixes the unit of the
# reported times; it must not change once a baseline is recorded.
REFERENCE_NOMINAL_S = 0.0017
REFERENCES_PER_PASS = 25
SAMPLE_EVERY_S = 0.05
WHILE_WAITING_GAP_S = 0.05

N = 300
UNSEEN = (-1,) * N


def _compressed_tree():
    """The fixed tree's adjacency as (start, neighbours): the neighbours of u
    are neighbours[start[u]:start[u + 1]]."""
    adj = [[] for _ in range(N)]
    for u, v in workloads.prufer_edges(N, ("speed-reference",)):
        adj[u].append(v)
        adj[v].append(u)
    start = [0]
    for a in adj:
        start.append(start[-1] + len(a))
    return tuple(start), tuple(w for a in adj for w in a)


START, NEIGHBOURS = _compressed_tree()


def reference(dist, queue):
    """Breadth-first distances from ten roots of a fixed 300-vertex tree;
    the same work on every call.  `dist` and `queue` are scratch lists of N
    items.  Returns the sum of the distances.

    It allocates no container object, so it never starts the garbage
    collector, whose cost would depend on the package's heap."""
    total = 0
    for root in range(0, N, 30):
        dist[:] = UNSEEN
        dist[root] = 0
        queue[0] = root
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u] + 1
            for j in range(START[u], START[u + 1]):
                w = NEIGHBOURS[j]
                if dist[w] < 0:
                    dist[w] = du
                    queue[tail] = w
                    tail += 1
        total += sum(dist)
    return total


def measure(count=REFERENCES_PER_PASS):
    """Seconds of `count` reference computations, one after another."""
    dist, queue = [-1] * N, [0] * N
    out = []
    for _ in range(count):
        t0 = perf_counter()
        reference(dist, queue)
        out.append(perf_counter() - t0)
    return out


def after_op(seconds):
    """Reference timings to take after an op of `seconds`: one per SAMPLE_EVERY_S
    of op time, at least one, so that the samples cover the run evenly in time."""
    return measure(max(1, round(seconds / SAMPLE_EVERY_S)))
