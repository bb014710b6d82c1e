"""Host-speed calibration: every reported time is scaled to a reference speed.

The 2-CPU shared host the benchmark was tuned on changes speed by up to
60% for seconds to minutes at a time: a fixed pure-Python loop timed in
one process switches between ~14 and ~26 ms per call, and process CPU
time follows wall time, so neither longer runs nor CPU time steady the
figures. The benchmark therefore times a fixed pure-Python calibration
workload right before and right after each timed operation (or block of
short operations) and reports the operation's time multiplied by
``REFERENCE_S / calibration time``: the time it would take on a host
where one calibration call takes ``REFERENCE_S``. A change in the
program moves the scaled time as it moves the raw one; a change in host
speed moves the operation and the calibration alike and cancels out.

The calibration has two halves of about equal time, because the host's
slow spells slow cache-resident and memory-bound code by different
amounts, and the program's evaluations are both: a closure over a small
graph (sets, dicts and tuples that stay in cache) and random lookups in
a table of over ten megabytes. On that host, over 3 minutes of repeated
1.9-s evaluations, the spread (IQR / median) of medians of 9 went from
16% raw to 9% scaled by either half alone and 4% scaled by both (in a
trial with a 150k-entry table).

The calibration uses no code of the program, and it must not change: a
change to it rescales every reported time. That is why it keeps its own
closure instead of sharing the one the output checks use.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict, List, Set, Tuple

#: One calibration call timed between the benchmark's operations on the
#: reference host (2-CPU shared x86-64 VM, CPython 3.11), in its common
#: speed state.
REFERENCE_S = 11.5e-3
#: Calibration calls per probe.
REPEATS = 2
#: Closures of the small graph per call.
CLOSURES = 2
#: Entries of the lookup table, and lookups per call.
TABLE_SIZE = 100_000
LOOKUPS = 8_000

_SEED = 20261017


def _closure(edges: Tuple[Tuple[str, str], ...]) -> int:
    """Transitive closure of a small graph, by one search per source node."""
    succ: Dict[str, Set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    pairs: Set[Tuple[str, str]] = set()
    for source in succ:
        seen: Set[str] = set()
        stack = list(succ[source])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        pairs.update((source, node) for node in seen)
    by_target: Dict[str, List[Tuple[str, str]]] = {}
    for a, b in pairs:
        by_target.setdefault(b, []).append((a, b))
    return len(by_target)


class Speed:
    """The calibration workload and the probes of one run."""

    def __init__(self) -> None:
        rng = random.Random(_SEED)
        self._edges = tuple(
            (f"n{i}", f"n{rng.randrange(60)}") for i in range(60) for _ in range(2)
        )
        self._table = {i: (rng.random(), i) for i in range(TABLE_SIZE)}
        self._keys = rng.sample(range(TABLE_SIZE), LOOKUPS)
        #: Every calibration time of the run, in seconds.
        self.samples: List[float] = []

    def _calibration(self) -> int:
        total = sum(_closure(self._edges) for _ in range(CLOSURES))
        table = self._table
        for key in self._keys:
            total += table[key][1]
        return total

    def probe(self) -> List[float]:
        """Time REPEATS calibration calls, with the collector off so that the
        program's heap size does not enter the calibration."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                self._calibration()
                times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples.extend(times)
        return times

    @staticmethod
    def scale(before: List[float], after: List[float]) -> float:
        """The factor that turns raw times measured between two probes into
        reference-speed times."""
        return REFERENCE_S / statistics.median(before + after)

    def run_scale(self) -> float:
        """One factor for the whole run (for per-layer times)."""
        return REFERENCE_S / statistics.median(self.samples)
