"""One benchmark run of one workload.

A run calls only flag-free public entry points, in four parts:

1. a memory pass, untimed: the peak resident-set growth of one
   ``Evaluator.run`` (``MaterializedProgram`` for ``maintain``);
2. set-up, repeated: program text and JSON documents to ready engines
   (``program_from_source``, ``check_program``, ``io.loads``,
   ``Evaluator(program)`` and ``MaterializedProgram``);
3. the update stream: one caller applying one-fact ``apply_delta``
   batches in a closed loop, each cycle deleting an edge and inserting
   it again, in whole passes over the edges, with the maintained
   fixpoint checked every ``CHECK_EVERY`` cycles and at the end;
4. the ``repro run`` path, repeated: a freshly parsed program, one
   ``Evaluator.run`` and ``io.dumps`` of its output, then a check of the
   output document.

Parts 2 and 3 each run for a share of ``--seconds`` and at least a
minimum number of times, and the stream ends only at the end of a pass;
part 4 runs for the rest of ``--seconds``, at least ``MIN_RUNS`` times,
so a workload whose stream passes are short gets more runs. Every time
is scaled to the reference host speed by calibration probes taken right
before and after the timed call, or block of calls (see ``speed``).
Before each repetition the previous one's results are dropped and
collected, so the process-wide intern table holds nothing of an earlier
evaluation, and every timed evaluation starts from a freshly parsed
program, whose plan and kernel caches are cold.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Set

from repro import Instance, OTuple, io, program_from_source
from repro.iql import Evaluator
from repro.iql.ivm import MaterializedProgram
from repro.iql.typecheck import check_program
from repro.values import intern

from speed import Speed
from tracing import Tracer
from workloads import (
    Edge,
    Workload,
    check_full,
    check_output,
    input_document,
    invented_oids_expected,
)

MIN_SETUPS = 5
MIN_RUNS = 3
#: Per update kind: a p95 needs at least 10 samples beyond it.
MIN_UPDATES = 200
MAX_UPDATES = 20000
CHECK_EVERY = 25
#: Shares of ``--seconds`` given to set-up and to the update stream.
SHARES = (0.05, 0.3)
#: Repeat ``io.dumps`` of one output until this much time is sampled.
DUMP_SECONDS = 0.3
#: Seconds of update stream between two calibration probes.
BLOCK_SECONDS = 0.5
#: Facts per timed chunk of the value and instance replays.
REPLAY_CHUNK = 1000


class BenchmarkError(Exception):
    """The program refused a workload input (a type error, say)."""


def median(values: List[float]) -> float:
    return statistics.median(values)


def p95(values: List[float]) -> float:
    """The nearest-rank 95th percentile; needs 200 samples (10 beyond it)."""
    if len(values) < MIN_UPDATES:
        raise ValueError(f"a p95 needs {MIN_UPDATES} samples, got {len(values)}")
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def current_rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize()


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Session:
    def __init__(self, workload: Workload, root: Path, seed: int, seconds: float, tracer: Tracer):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.text = workload.program_text(root)
        self.run_edges: Set[Edge] = workload.graph(workload.run_graph, seed)
        self.stream_edges = (
            self.run_edges
            if workload.stream_graph == workload.run_graph
            else workload.graph(workload.stream_graph, seed)
        )
        program = program_from_source(self.text)
        self.run_doc = input_document(program, workload, sorted(self.run_edges))
        self.stream_doc = (
            self.run_doc
            if self.stream_edges is self.run_edges
            else input_document(program, workload, sorted(self.stream_edges))
        )
        # A str seed is hashed deterministically, whatever PYTHONHASHSEED is.
        self.rng = random.Random(f"updates-{seed}")
        self.speed = Speed()
        self.samples: Dict[str, List[float]] = {}
        #: Per-layer values, reported by a traced run.
        self.layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    # -- bookkeeping ---------------------------------------------------------------------

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _fail(self, count: int, problems: List[str]) -> None:
        self.failed += count
        self.problems.extend(problems[:3])

    def _attempt(self, what: str, step: Callable[[], None]) -> bool:
        """Run one operation; a raised exception counts it failed."""
        self.attempted += 1
        try:
            step()
            return True
        except Exception as exc:  # every failure is counted and reported
            traceback.print_exc(file=sys.stderr)
            self._fail(1, [f"{what}: {type(exc).__name__}: {exc}"])
            return False

    # -- the public entry points, each in a span -----------------------------------------

    def _ready(self, doc: str, loads_span: str = "io.loads"):
        span = self.tracer.span
        with span("parser.program_from_source"):
            program = program_from_source(self.text)
        with span("typecheck.check_program"):
            errors = check_program(program)
        if errors:
            raise BenchmarkError(f"type errors: {errors[:3]}")
        with span(loads_span):
            instance = io.loads(doc).project(program.input_schema)
        return program, instance

    def _materialize(self, program, instance: Instance) -> MaterializedProgram:
        with self.tracer.span("ivm.MaterializedProgram"):
            return MaterializedProgram(program, instance)

    # -- 1. memory ------------------------------------------------------------------------

    def memory_pass(self) -> None:
        """Peak resident-set growth of the main computation, per fact."""
        program, instance = self._ready(self.run_doc)
        gc.collect()
        base = current_rss_bytes()
        if self.workload.name == "maintain":
            kept = MaterializedProgram(program, instance)
            facts = kept.instance.fact_count()
        else:
            kept = Evaluator(program).run(instance)
            facts = kept.full.fact_count() - instance.fact_count()
        growth = peak_rss_bytes() - base
        self.layer["mem.peak_bytes"] = growth
        self._sample("peak_bytes_per_fact", growth / facts)
        del kept
        gc.collect()

    # -- 2. set-up ------------------------------------------------------------------------

    def setup_phase(self) -> None:
        self.end = time.perf_counter() + self.seconds
        deadline = time.perf_counter() + SHARES[0] * self.seconds
        count = 0
        while count < MIN_SETUPS or (time.perf_counter() < deadline and count < 200):
            count += 1
            if not self._attempt("set-up", self._setup_once):
                return

    def _setup_once(self) -> None:
        gc.collect()
        before = self.speed.probe()
        start = time.perf_counter()
        with self.tracer.span("setup"):
            program, instance = self._ready(self.run_doc)
            with self.tracer.span("evaluator.init"):
                Evaluator(program)
            if self.stream_doc is not self.run_doc:
                with self.tracer.span("io.loads[stream]"):
                    instance = io.loads(self.stream_doc).project(program.input_schema)
            kept = self._materialize(program, instance)
        elapsed = time.perf_counter() - start
        self._sample("setup_s", elapsed * self.speed.scale(before, self.speed.probe()))
        del kept

    # -- 4. the `repro run` path ----------------------------------------------------------

    def run_phase(self, min_runs: int = MIN_RUNS, alternate_tracing: bool = False) -> None:
        count = 0
        while count < min_runs or time.perf_counter() < self.end:
            traced = self.tracer.enabled
            if alternate_tracing:
                self.tracer.enabled = count % 2 == 0
            count += 1
            ok = self._attempt("run", lambda: self._run_once(keep=alternate_tracing))
            self.tracer.enabled = traced
            if not ok:
                return

    def _run_once(self, keep: bool) -> None:
        self.last_run = None
        gc.collect()
        program, instance = self._ready(self.run_doc)
        with self.tracer.span("evaluator.init"):
            evaluator = Evaluator(program)
        before = self.speed.probe()
        start = time.perf_counter()
        with self.tracer.span("evaluator.run"):
            result = evaluator.run(instance)
        eval_s = time.perf_counter() - start
        middle = self.speed.probe()
        eval_s *= self.speed.scale(before, middle)
        # A dump shorter than DUMP_SECONDS is repeated on the same output,
        # so that tens-of-milliseconds dumps get enough samples for a
        # steady median.
        dumps: List[float] = []
        while not dumps or sum(dumps) < DUMP_SECONDS:
            start_dump = time.perf_counter()
            with self.tracer.span("io.dumps"):
                text = io.dumps(result.output)
            dumps.append(time.perf_counter() - start_dump)
        dump_scale = self.speed.scale(middle, self.speed.probe())
        derived = result.full.fact_count() - instance.fact_count()
        key = "eval_s[traced]" if self.tracer.enabled else "eval_s"
        self._sample(key, eval_s)
        if not self.tracer.enabled:
            self._sample("fact_us", eval_s / derived * 1e6)
            for dump_s in dumps:
                self._sample("dump_s", dump_s * dump_scale)

        problems = check_output(self.workload, text, self.run_edges)
        if self.workload.name == "invent":
            problems += check_full(self.workload, result.full, self.run_edges)
        want_oids = invented_oids_expected(self.workload, self.run_edges)
        if result.stats.oids_invented != want_oids:
            problems.append(f"{result.stats.oids_invented} oids invented, expected {want_oids}")
        if problems:
            self._fail(1, problems)
        if keep:
            self.last_run = (program, instance, result, len(result.output.ground_facts()))
            self.live_interned = intern.table_sizes()

    # -- 3. the update stream -------------------------------------------------------------

    def stream_phase(self) -> None:
        """Update cycles that each delete a base edge and insert it again,
        so every update meets the same graph. The stream makes whole passes
        over the edges, each in the same seeded order: an update's cost
        depends on its edge and is heavy-tailed, so every run measures the
        same multiset of updates, whatever its seed and speed."""
        program, instance = self._ready(self.stream_doc, "io.loads[stream]")
        mp = self._materialize(program, instance)
        relation = self.workload.edge_relation
        order = sorted(self.stream_edges)
        self.rng.shuffle(order)
        times: Dict[str, List[float]] = {"delete": [], "insert": []}
        block: Dict[str, List[float]] = {"delete": [], "insert": []}
        unchecked = 0
        cycle = 0
        deadline = time.perf_counter() + SHARES[1] * self.seconds
        before = self.speed.probe()
        block_end = time.perf_counter() + BLOCK_SECONDS

        def flush() -> None:
            """Scale the block's raw times by the probes around it."""
            nonlocal before, block_end
            after = self.speed.probe()
            factor = self.speed.scale(before, after)
            for kind, raw in block.items():
                times[kind].extend(t * factor for t in raw)
                raw.clear()
            before, block_end = after, time.perf_counter() + BLOCK_SECONDS

        while (
            cycle < MIN_UPDATES
            or cycle % len(order)
            or (time.perf_counter() < deadline and 2 * cycle < MAX_UPDATES)
        ):
            edge = order[cycle % len(order)]
            fact = [(relation, OTuple(A1=edge[0], A2=edge[1]))]
            for kind in times:
                self.attempted += 1
                unchecked += 1
                try:
                    start = time.perf_counter()
                    with self.tracer.span("ivm.apply_delta"):
                        if kind == "insert":
                            mp.apply_delta(inserts=fact)
                        else:
                            mp.apply_delta(deletes=fact)
                    block[kind].append(time.perf_counter() - start)
                except Exception as exc:  # counted, and the stream stops
                    traceback.print_exc(file=sys.stderr)
                    self._fail(unchecked, [f"apply_delta: {type(exc).__name__}: {exc}"])
                    return
                if kind == "delete" and cycle % CHECK_EVERY == 0:
                    self._check_stream(mp, self.stream_edges - {edge}, unchecked)
                    unchecked = 0
            cycle += 1
            if time.perf_counter() >= block_end:
                flush()
        flush()
        self._check_stream(mp, self.stream_edges, unchecked)

        inserts, deletes = times["insert"], times["delete"]
        for kind, values in times.items():
            self._sample(f"{kind}_p50_ms", median(values) * 1e3)
            self._sample(f"{kind}_p95_ms", p95(values) * 1e3)
        self._sample("updates_per_s", (len(inserts) + len(deletes)) / (sum(inserts) + sum(deletes)))
        self.stream_counts = (len(inserts), len(deletes))
        stats = mp.stats
        self.layer.update(
            {
                "ivm.overdeleted_per_delete": stats.overdeleted / len(deletes),
                "ivm.rederived_per_delete": stats.rederived / len(deletes),
                "ivm.supports_adjusted_per_update": stats.supports_adjusted / (2 * cycle),
                "ivm.fallbacks": stats.maintenance_fallbacks,
            }
        )
        self.materialized_stats = mp.initial_stats

    def _check_stream(self, mp: MaterializedProgram, edges: Set[Edge], unchecked: int) -> None:
        problems = check_full(self.workload, mp.instance, edges)
        if problems:
            self._fail(unchecked, problems)

    # -- per-layer values of a traced run -------------------------------------------------

    def replays(self, repeats: int = 5) -> None:
        """Time calls the program makes internally by calling them again."""
        from repro.analysis import analyze, build_certificates, compute_schedule

        for name, call in (
            ("analysis.compute_schedule", compute_schedule),
            ("analysis.build_certificates", build_certificates),
            ("analysis.analyze", analyze),
        ):
            for _ in range(repeats):
                program = program_from_source(self.text)
                with self.tracer.span(name, replay=True):
                    call(program)

        program, instance, result, _ = self.last_run
        inputs = set(program.input_names)
        derived = [
            (name, value)
            for name, members in result.full.relations.items()
            if name not in inputs
            for value in members
        ]
        tuples = [dict(v.items()) for _, v in derived if isinstance(v, OTuple)]
        tuples += [dict(v.items()) for v in result.full.nu.values() if isinstance(v, OTuple)]
        self.layer["values.otuple_new_ns"] = self._per_item_ns(
            "values.OTuple", tuples, lambda chunk: [OTuple(**fields) for fields in chunk]
        )
        fresh = Instance(program.schema)
        self.layer["instance.add_ns"] = self._per_item_ns(
            "instance.add_relation_member",
            derived,
            lambda chunk: [fresh.add_relation_member(name, v) for name, v in chunk],
        )

    def _per_item_ns(self, span: str, items: list, replay: Callable[[list], object]) -> float:
        """Median ns per item over chunks of REPLAY_CHUNK items (0 without items)."""
        per_item = []
        for i in range(0, len(items), REPLAY_CHUNK):
            chunk = items[i : i + REPLAY_CHUNK]
            start = time.perf_counter_ns()
            with self.tracer.span(span, replay=True):
                replay(chunk)
            per_item.append((time.perf_counter_ns() - start) / len(chunk))
        return median(per_item) if per_item else 0.0

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric of a traced run (after replays).

        Span times are scaled to the reference speed by one factor for the
        whole run; the end-to-end times are scaled call by call."""
        scale = self.speed.run_scale()

        def span_median(name: str) -> float:
            return self.tracer.median(name) * scale

        program, instance, result, output_facts = self.last_run
        stats = result.stats
        built = self.materialized_stats
        lookups = stats.intern_hits + stats.intern_misses
        plans = stats.plan_cache_hits + stats.plan_cache_misses
        input_facts = instance.fact_count()
        values = dict(self.layer)
        for name in ("values.otuple_new_ns", "instance.add_ns"):
            values[name] *= scale
        values.update(
            {
                "parser.parse_s": span_median("parser.program_from_source"),
                "typecheck.check_s": span_median("typecheck.check_program"),
                "io.load_s": span_median("io.loads"),
                "io.load_us_per_fact": span_median("io.loads") / input_facts * 1e6,
                "io.dump_us_per_fact": span_median("io.dumps") / output_facts * 1e6,
                "analysis.schedule_s": span_median("analysis.compute_schedule"),
                "analysis.certificates_s": span_median("analysis.build_certificates"),
                "analysis.analyze_s": span_median("analysis.analyze"),
                "evaluator.init_s": span_median("evaluator.init"),
                "evaluator.steps": stats.steps,
                "evaluator.facts_added": stats.facts_added,
                "evaluator.valuations": stats.valuations_considered,
                "evaluator.facts_per_valuation": (
                    stats.facts_added / stats.valuations_considered
                    if stats.valuations_considered
                    else 0.0
                ),
                "evaluator.oids_invented": stats.oids_invented,
                "indexes.probes": stats.index_probes,
                "indexes.probes_per_fact": stats.index_probes / max(stats.facts_added, 1),
                "planner.plan_cache_hit_ratio": stats.plan_cache_hits / plans if plans else 0.0,
                "planner.plans_costed": stats.plans_costed,
                "planner.replans": stats.plan_replans,
                "compile.rules_compiled": stats.rules_compiled + built.rules_compiled,
                "compile.fallbacks": stats.compile_fallbacks + built.compile_fallbacks,
                "compile.compile_s": (stats.compile_time + built.compile_time) * scale,
                "intern.hit_ratio": stats.intern_hits / lookups if lookups else 0.0,
                "intern.misses": stats.intern_misses,
                "intern.live_tuples": self.live_interned[0],
                "intern.live_sets": self.live_interned[1],
                "ivm.materialize_s": span_median("ivm.MaterializedProgram"),
                "trace.overhead_ratio": (
                    median(self.samples["eval_s[traced]"]) / median(self.samples["eval_s"])
                ),
            }
        )
        return values


def run_session(
    workload: Workload, root: Path, seed: int, seconds: float, tracer: Tracer
) -> Session:
    session = Session(workload, root, seed, seconds, tracer)
    session.memory_pass()
    session.setup_phase()
    session.stream_phase()
    if tracer.enabled:
        # Alternate traced and untraced repetitions for the overhead ratio.
        session.run_phase(min_runs=4, alternate_tracing=True)
    else:
        session.run_phase()
    if tracer.enabled:
        session.replays()
    return session


def sample_counts(session: Session) -> Dict[str, int]:
    counts = {name: len(values) for name, values in session.samples.items()}
    inserts, deletes = getattr(session, "stream_counts", (0, 0))
    for name in ("insert_p50_ms", "insert_p95_ms"):
        counts[name] = inserts
    for name in ("delete_p50_ms", "delete_p95_ms"):
        counts[name] = deletes
    counts["updates_per_s"] = inserts + deletes
    return counts

