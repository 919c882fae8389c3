"""A fixed piece of interpreter work that measures how fast the machine runs right now.

The benchmark shares a host whose speed drifts by a fifth within seconds
and over minutes, and a program's wall time drifts with it.  Timing this
probe just before and just after each operation, outside its timed span,
gives the machine's speed at that moment; the end-to-end times are scaled
by ``REFERENCE_PROBE_S`` over the mean of the two probes, so they read as
seconds on a machine where the probe takes ``REFERENCE_PROBE_S``.  The
probe does the kind of work the program does (strings, tuples, dicts, sets
and a sort on a few thousand elements) and uses nothing of the program, so
a change to the program moves the operation's time and not the probe's.
"""

from time import perf_counter

# Median probe time between operations on the 2-CPU virtual machine (Python
# 3.11.7) that the benchmark was tuned on.  Any constant would do; this one
# keeps the scaled times close to that machine's wall times.
REFERENCE_PROBE_S = 0.0156

PROBE_SIZE = 8000


def speed_probe_s() -> float:
    """Wall time of one run of the probe."""
    start = perf_counter()
    n = PROBE_SIZE
    names = [f"v{i}" for i in range(n)]
    succ: dict[str, list[tuple[str, int]]] = {}
    for i in range(n):
        succ.setdefault(names[i], []).append((names[(i * 7 + 3) % n], i % 5))
    seen = set()
    for tail, outs in succ.items():
        for head, label in outs:
            seen.add((tail, head, label))
    if len(sorted(seen, key=lambda arc: (arc[2], arc[1]))) != n:
        raise RuntimeError("speed probe lost an element")
    return perf_counter() - start
