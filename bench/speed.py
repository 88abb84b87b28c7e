"""Machine-speed probe that scales job timings to a reference speed.

On the 2-core host this benchmark was written on, the same single-threaded
Python code runs up to 2.5x slower for stretches of seconds to minutes
(load from other tenants; process CPU time slows as much as wall time).
Across runs that noise is larger than the effects a change to tweetsent
would have.  So a fixed pure-Python probe, which shares no code with
tweetsent, is timed before and after every job, and the job's times are
multiplied by ``REFERENCE_S`` over the probe's time: what the job would
have taken on a machine where the probe takes ``REFERENCE_S``.  On that
host, in a quiet stretch, the factor is close to 1.  The raw times and the
factors of every run are in its provenance record.
"""

from __future__ import annotations

import re
import time

# Fastest-of-three probe time in a quiet stretch on the 2-core host.
REFERENCE_S = 0.007


class SpeedProbe:
    """Times a fixed mix of regex, string, dict and sort work."""

    def __init__(self) -> None:
        self._word = re.compile(r"\w+|[^\w\s]+")
        self._text = " ".join(f"tok{i % 977} !! w{i % 331}" for i in range(3000))
        self._keys = [f"w{i}|{(i * 7919) % 100003}" for i in range(40000)]

    def _work(self):
        table = {}
        for i, token in enumerate(self._word.findall(self._text)):
            table[f"{token}|{i % 50}"] = i * 0.5
        for key in self._keys[::4]:
            table[key] = 1.0
        return sum(table.values()), sorted(table)[:10]

    def seconds(self) -> float:
        """Fastest of three probe runs."""
        best = float("inf")
        for _ in range(3):
            began = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - began)
        return best
