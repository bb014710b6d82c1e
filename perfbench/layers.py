"""Which end-to-end metric each per-layer metric should move, and where.

Each entry maps a per-layer metric of BENCHMARK.json to the end-to-end
metric it should move, the workloads where it should move it, and the
workloads where the prediction is no change. ``run.py --describe`` prints
this table and ``run.py --self-test`` checks that it names exactly the
per-layer metrics of BENCHMARK.json.

The ``tc`` and ``invent`` run paths use no incremental maintenance and,
under today's defaults, no scheduling or compilation; every workload's
update stream does (``MaterializedProgram`` schedules and compiles).
"""

RUN = "setup_s, eval_s, fact_us, dump_s"
STREAM = "insert_p50_ms, delete_p50_ms, updates_per_s"

#: metric -> (module, end-to-end metric it moves, where, predicted no change on)
TARGETS = {
    "parser.parse_s": ("repro.parser", "setup_s", "all", "-"),
    "typecheck.check_s": ("repro.iql.typecheck", "setup_s", "all", "-"),
    "io.load_s": ("repro.io", "setup_s", "all", "eval_s"),
    "io.load_us_per_fact": ("repro.io", "setup_s", "all", "eval_s"),
    "io.dump_us_per_fact": ("repro.io", "dump_s", "tc, invent", "eval_s"),
    "analysis.schedule_s": ("repro.analysis (replay)", "setup_s", "maintain", "eval_s on tc, invent"),
    "analysis.certificates_s": ("repro.analysis (replay)", "setup_s", "maintain", "eval_s on tc, invent"),
    "analysis.analyze_s": ("repro.analysis (replay)", "setup_s", "maintain", "eval_s on tc, invent"),
    "evaluator.init_s": ("repro.iql.evaluator", "setup_s", "all", "-"),
    "evaluator.steps": ("repro.iql.evaluator", "fact_us", "invent", STREAM),
    "evaluator.facts_added": ("repro.iql.evaluator", "fact_us", "tc, invent", STREAM),
    "evaluator.valuations": ("repro.iql.evaluator", "fact_us", "tc", STREAM),
    "evaluator.facts_per_valuation": ("repro.iql.evaluator", "fact_us", "tc", STREAM),
    "evaluator.oids_invented": ("repro.iql.evaluator", "fact_us", "invent", STREAM),
    "indexes.probes": ("repro.iql.indexes", "fact_us", "tc", "fact_us on invent"),
    "indexes.probes_per_fact": ("repro.iql.indexes", "fact_us", "tc", "fact_us on invent"),
    "planner.plan_cache_hit_ratio": ("repro.iql.valuation + repro.iql.stats", "fact_us", "tc", "fact_us on invent"),
    "planner.plans_costed": ("repro.iql.valuation + repro.iql.stats", "fact_us", "tc", "fact_us on invent"),
    "planner.replans": ("repro.iql.valuation + repro.iql.stats", "fact_us", "tc", "fact_us on invent"),
    "compile.rules_compiled": ("repro.iql.compile", "setup_s, insert_p50_ms", "maintain", "eval_s on tc, invent"),
    "compile.fallbacks": ("repro.iql.compile", "setup_s, insert_p50_ms", "maintain", "eval_s on tc, invent"),
    "compile.compile_s": ("repro.iql.compile", "setup_s, insert_p50_ms", "maintain", "eval_s on tc, invent"),
    "intern.hit_ratio": ("repro.values.intern", "fact_us; insert_p50_ms", "tc, invent; maintain", "-"),
    "intern.misses": ("repro.values.intern", "fact_us; insert_p50_ms", "tc, invent; maintain", "-"),
    "intern.live_tuples": ("repro.values.intern", "peak_bytes_per_fact", "all", "-"),
    "intern.live_sets": ("repro.values.intern", "peak_bytes_per_fact", "invent", "-"),
    "values.otuple_new_ns": ("repro.values.ovalues", "fact_us; insert_p50_ms", "tc, invent; maintain", "-"),
    "instance.add_ns": ("repro.schema.instance", "fact_us; insert_p50_ms", "tc; maintain", "-"),
    "ivm.materialize_s": ("repro.iql.ivm", "setup_s", "maintain", "eval_s, dump_s on all"),
    "ivm.overdeleted_per_delete": ("repro.iql.ivm", "delete_p50_ms, updates_per_s", "maintain, tc", RUN + " on tc, invent"),
    "ivm.rederived_per_delete": ("repro.iql.ivm", "delete_p50_ms, updates_per_s", "maintain, tc", RUN + " on tc, invent"),
    "ivm.supports_adjusted_per_update": ("repro.iql.ivm", "insert_p50_ms, updates_per_s", "maintain", RUN + " on tc, invent"),
    "ivm.fallbacks": ("repro.iql.ivm", "insert_p50_ms, delete_p50_ms", "invent", RUN + " on tc, invent"),
    "mem.peak_bytes": ("memory", "peak_bytes_per_fact", "all", "-"),
    "trace.overhead_ratio": ("the benchmark's spans", "-", "-", "-"),
}


def describe() -> str:
    rows = [("metric", "layer", "moves", "on", "predicted no change on")]
    rows += [(name, *target) for name, target in TARGETS.items()]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)
