"""Fixed reference work that runs beside the timed processes.

    python3 perfbench/reference.py LOG

Repeats one fixed chunk of exact rational arithmetic on a dict with tuple
keys, as in the library's sparse vectors, and appends a line per chunk to
LOG: its start and end on ``time.perf_counter`` (CLOCK_MONOTONIC, the
same clock in every process) and the CPU seconds it used.  ``run.py``
pins this process and the timed processes to one CPU, so the two share
that CPU's time slices and its speed at every moment, and divides a
job's CPU time by the chunk CPU time measured while the job ran.

The code is written here and imports nothing from ``src/``, so its cost
depends only on the machine.  Exits 1 if a chunk gives a wrong result,
and by itself when its parent process goes away.
"""

import os
import sys
import time
from fractions import Fraction

CHUNK = 1000
EXPECTED = (999, 325, 322)


def work(n):
    table = {}
    acc = Fraction(0)
    for i in range(1, n):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 97 + 1, i % 89 + 1)
        if i % 5 == 0:
            acc += table[key] * Fraction(3, i)
    return len(table), acc.numerator.bit_length(), acc.denominator.bit_length()


def main(log_path):
    parent = os.getppid()
    with open(log_path, "w", encoding="utf-8") as log:
        while os.getppid() == parent:
            start, cpu = time.perf_counter(), time.process_time()
            if work(CHUNK) != EXPECTED:
                return 1
            log.write(f"{start!r} {time.perf_counter()!r} {time.process_time() - cpu!r}\n")
            log.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
