"""Calibration kernels: fixed work that measures how fast the host is now.

    python3 bench/calibrate.py memory compute   # prints {"compute": s, "memory": s}

run.py times the kernels in their own interpreter before and after every
pass and rescales the pass's times by them (see run.calibrate).  No kernel
calls the program, so a change to the program cannot move them.
"""

import json
import sys
import time
from dataclasses import dataclass


def _memory_work() -> None:
    # a dict of 150 000 tuple keys, then its items sorted: tens of MB of
    # small objects, like the enumerations' sets, dicts and keys
    table = {(i, i * 7 % 13): str(i) for i in range(150_000)}
    sorted(table.items(), key=lambda item: item[1])


@dataclass(frozen=True)
class _Point:
    a: int
    b: int


def _compute_work() -> None:
    # small working set: colour refinement of a fixed graph, frozen values
    # sorted and serialized, tuple sorting, and big-integer products
    n = 12
    b = tuple(tuple(0 if i == j else (1 if (i * 7 + j * 3) % 5 < 2 else 0) * (1 if i < j else -1)
                    for j in range(n)) for i in range(n))
    for rep in range(100):
        colors = tuple((rep + v) % 3 for v in range(n))
        for _ in range(4):
            sigs = [(colors[v], tuple(sorted((colors[u], b[v][u]) for u in range(n) if u != v)))
                    for v in range(n)]
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            colors = tuple(rank[sig] for sig in sigs)
        points = frozenset(_Point(i, (i * rep) % 7) for i in range(40))
        b"".join(str(p.a).encode() for p in sorted(points, key=lambda p: (p.a, p.b)))
    table: dict[bytes, int] = {}
    for i in range(1250):
        row = tuple((i * j) % 11 for j in range(16))
        key = ",".join(map(str, sorted(row))).encode()
        table[key] = table.get(key, 0) + 1
    x, m = 3 ** 40000, 7 ** 50000
    for _ in range(3):
        x = x * x % m


# kernel -> (its work, its seconds on an unloaded 2-core x86_64 host, Python 3.11)
KERNELS = {"memory": (_memory_work, 0.1), "compute": (_compute_work, 0.1)}


def main(names: list[str]) -> None:
    times = {}
    for name in names:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        KERNELS[name][0]()
        times[name] = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    print(json.dumps(times))


if __name__ == "__main__":
    main(sys.argv[1:])
