"""Host-speed sampler: time a fixed pure-Python loop at a fixed period.

Usage::

    python3 perfbench/sampler.py OUT PERIOD_S

Appends one ``<start> <seconds>`` line per sample to ``OUT`` until it is
terminated.  ``<start>`` is ``time.perf_counter()``, which is the
system-wide monotonic clock on Linux, so the benchmark can line samples up
with the intervals it timed in its own process.

The loop does dict updates, integer arithmetic and calls: the same kind of
interpreter work the program does, so when the shared host slows down both
slow alike.
"""

import sys
import time

clock = time.perf_counter

#: Loop iterations: about 1 ms on an idle core, so at the benchmark's
#: 50 ms period the sampler takes a few percent of one core.  Short,
#: frequent samples line up with short intervals better than long ones.
ITERATIONS = 3200


def reference_loop(iterations=ITERATIONS):
    """Seconds taken by the fixed reference loop."""
    start = clock()
    table = {}
    acc = 0
    for i in range(iterations):
        value = (i * 2654435761) & 0xFFFFFFFF
        slot = value & 1023
        table[slot] = table.get(slot, 0) + (value >> 7)
        acc ^= abs(value - slot)
    if acc < 0:  # never: keeps the loop's result live
        raise AssertionError(acc)
    return clock() - start


def main(argv):
    """Sample until terminated."""
    out, period = argv[0], float(argv[1])
    with open(out, "a", encoding="utf-8", buffering=1) as handle:
        while True:
            start = clock()
            seconds = reference_loop()
            handle.write("%r %r\n" % (start, seconds))
            time.sleep(period)


if __name__ == "__main__":
    main(sys.argv[1:])
