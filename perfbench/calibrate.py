"""Host-speed calibration.

The same pure-Python work runs 40% faster or slower on a shared host from
one minute to the next (a fixed loop measured 43 to 65 ms across
consecutive runs on the 2-vCPU container this benchmark was built on),
which swamps any change worth measuring.  So the closed loop times a
fixed reference computation every half second, in the same process, and
reports every time in *reference-speed* units: wall time x
``REFERENCE_MS`` / the reference computation's wall time measured around
it.  On a host that runs the reference computation in exactly
``REFERENCE_MS`` the reported and the wall-clock times agree.

The reference computation is a semi-naive transitive closure in plain
Python — the tuple hashing, set probing and dict indexing of a Datalog
engine's inner loops — in code the program under test never runs, so no
change to the program moves it.
"""

from __future__ import annotations

import time

#: the reference computation's time on the reference host, in ms
REFERENCE_MS = 10.0

_EDGES = [(i, i + 1) for i in range(150)] + [(i, (i * 7) % 150) for i in range(0, 150, 5)]


def _transitive_closure() -> int:
    succ: dict[int, list] = {}
    for a, b in _EDGES:
        succ.setdefault(a, []).append(b)
    closure = set(_EDGES)
    delta = set(_EDGES)
    while delta:
        fresh = set()
        for a, b in delta:
            for c in succ.get(b, ()):
                row = (a, c)
                if row not in closure:
                    fresh.add(row)
        closure |= fresh
        delta = fresh
    return len(closure)


def calibration_ms(repeats: int = 3) -> float:
    """The reference computation's wall time now: the fastest of
    *repeats* runs, in ms."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _transitive_closure()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """The factor that turns wall time measured between two calibrations
    into reference-speed time."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)
