"""The IQL8xx parallel-safety analysis and the certified parallel executor.

Three layers under test, mirroring the maintenance-certificate suite:

* the **analysis** — conflict groups, hash-partitionability, the stratum
  DAG with its concurrent batches, the IQL801-804 diagnostics, and the
  runtime-surface audit (including injected drifted surfaces),
* the **certificate discipline** — re-derivation, memoized validation,
  and tamper detection: any hand-mutated plan must be caught by
  :func:`check_parallel_certificate` before an executor trusts it,
* the **executor** — ``Evaluator(parallel=N)`` on its worker-process
  pool agrees with the serial engines on concurrent strata, partitioned
  delta rounds, and every fallback shape (IQL801/802 programs run serial
  with a PreflightWarning, never wrong answers), and charges concurrent
  strata to the run's ``max_steps`` budget.
"""

import warnings

import pytest

from repro.analysis import (
    PreflightWarning,
    audit_runtime_surfaces,
    build_parallel_certificate,
    check_parallel_certificate,
    concurrent_batches,
    parallel_pass,
    parallel_to_dot,
    render_parallel_text,
    validate_parallel_certificate,
)
from repro.errors import EvaluationError, NonTerminationError
from repro.iql import (
    Evaluator,
    EvaluatorLimits,
    Program,
    ReferenceEvaluator,
    Rule,
    Var,
    atom,
    columns,
    parexec,
)
from repro.parser.grammar import program_from_source
from repro.schema import Instance, Schema
from repro.typesys import D, classref, tuple_of
from repro.values import OTuple


def tc_schema():
    return Schema(
        relations={"E": columns(D, D), "TC": columns(D, D)},
        classes={},
    )


def tc_program(schema=None):
    schema = schema or tc_schema()
    x, y, z = Var("x", D), Var("y", D), Var("z", D)
    return Program(
        schema,
        rules=[
            Rule(atom(schema, "TC", x, y), [atom(schema, "E", x, y)]),
            Rule(
                atom(schema, "TC", x, z),
                [atom(schema, "TC", x, y), atom(schema, "E", y, z)],
            ),
        ],
        input_names=["E"],
        output_names=["TC"],
    )


def chain_instance(schema, n, cyclic=False):
    instance = Instance(schema.project(["E"]))
    for i in range(n if cyclic else n - 1):
        instance.add_relation_member(
            "E", OTuple(A01=f"n{i}", A02=f"n{(i + 1) % n}")
        )
    return instance


# -- the analysis --------------------------------------------------------------------


def test_transitive_closure_certificate_is_clean():
    certificate = build_parallel_certificate(tc_program())
    assert certificate.certified
    assert certificate.clean
    assert certificate.width >= 2
    [stage] = certificate.stages
    assert stage.scheduled
    [stratum] = stage.strata
    # Both rules write TC: one conflict, one fused group — yet the
    # stratum is partitionable, so it is not an IQL801 serialization.
    assert len(stratum.groups) == 1
    assert stratum.conflicts and stratum.conflicts[0].kind == "write-write"
    assert stratum.conflicts[0].symbols == ("TC",)
    assert stratum.partitionable
    assert stratum.fallback is None
    recursive = stratum.partitions[1]
    assert recursive.partitionable
    assert set(recursive.key_variables) == {"x", "y", "z"}
    diagnostics = parallel_pass(tc_program(), certificate=certificate)
    assert [d.code for d in diagnostics] == ["IQL804"]


def test_conflict_serialized_stratum_is_iql801():
    # Two rules writing T driven only by a class extent: the write-write
    # conflict fuses them and neither has a relation delta to split.
    schema = Schema(
        relations={"T": columns(classref("C"), classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", classref("C")), Var("y", classref("C"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, x), [atom(schema, "C", x)]),
            Rule(atom(schema, "T", x, y), [atom(schema, "C", x), atom(schema, "C", y)]),
        ],
        input_names=["C"],
        output_names=["T", "C"],
    )
    certificate = build_parallel_certificate(program)
    assert certificate.certified
    assert not certificate.clean
    [stratum] = certificate.stages[0].strata
    assert stratum.fallback is not None and stratum.fallback.startswith("IQL801")
    assert not stratum.parallel_safe
    codes = [d.code for d in parallel_pass(program, certificate=certificate)]
    assert codes == ["IQL801"]


def test_invention_stratum_is_iql802_even_when_scheduled():
    # Non-recursive invention schedules fine (IQL6xx) but can never be
    # partitioned: the oid factory and blocking condition are
    # step-ordered.
    schema = Schema(
        relations={"E": columns(D, D), "TC": columns(D, classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[Rule(atom(schema, "TC", x, Var("p", classref("C"))), [atom(schema, "E", x, y)])],
        input_names=["E"],
        output_names=["TC", "C"],
    )
    certificate = build_parallel_certificate(program)
    [stage] = certificate.stages
    assert stage.scheduled
    [stratum] = stage.strata
    assert stratum.hazards and "invents oids" in stratum.hazards[0]
    assert stratum.fallback.startswith("IQL802")
    assert not stratum.parallel_safe
    codes = {d.code for d in parallel_pass(program, certificate=certificate)}
    assert codes == {"IQL802"}


def test_independent_strata_share_a_level_and_batch():
    schema = Schema(
        relations={"E": columns(D, D), "T": columns(D, D), "U": columns(D)},
        classes={},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(atom(schema, "U", x), [atom(schema, "E", x, y)]),
        ],
        input_names=["E"],
        output_names=["T", "U"],
    )
    certificate = build_parallel_certificate(program)
    assert certificate.clean
    [stage] = certificate.stages
    assert len(stage.strata) == 2
    assert stage.levels == ((0, 1),)
    assert concurrent_batches(stage) == [(0, 1)]
    assert stage.width == 2


def test_dependent_strata_split_levels():
    schema = Schema(
        relations={"E": columns(D, D), "T": columns(D, D), "F": columns(D, D)},
        classes={},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(atom(schema, "F", x, y), [atom(schema, "T", x, y)]),
        ],
        input_names=["E"],
        output_names=["F"],
    )
    [stage] = build_parallel_certificate(program).stages
    assert stage.strata[1].depends_on == (0,)
    assert stage.levels == ((0,), (1,))
    assert concurrent_batches(stage) == [(0,), (1,)]


def test_class_writers_never_share_a_batch():
    # Two class-membership-writing strata may not co-run: the _class_of
    # disjointness check in add_class_member is check-then-act.
    schema = Schema(
        relations={"R1": columns(classref("C1")), "R2": columns(classref("C2"))},
        classes={"C1": tuple_of(a=D), "C2": tuple_of(a=D)},
    )
    x1, x2 = Var("x", classref("C1")), Var("y", classref("C2"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "R1", x1), [atom(schema, "C1", x1)]),
            Rule(atom(schema, "R2", x2), [atom(schema, "C2", x2)]),
        ],
        input_names=["C1", "C2"],
        output_names=["R1", "R2"],
    )
    [stage] = build_parallel_certificate(program).stages
    assert len(stage.strata) == 2
    # These strata only *read* class extents — they batch together ...
    assert concurrent_batches(stage) == [(0, 1)]
    # ... but strata that *write* class extents must not.
    x, y = Var("x", D), Var("y", D)
    schema2 = Schema(
        relations={"E": columns(D, D)},
        classes={"C1": tuple_of(a=D), "C2": tuple_of(a=D)},
    )
    program2 = Program(
        schema2,
        rules=[
            Rule(
                atom(schema2, "C1", Var("p", classref("C1"))),
                [atom(schema2, "E", x, y)],
            ),
            Rule(
                atom(schema2, "C2", Var("q", classref("C2"))),
                [atom(schema2, "E", x, y)],
            ),
        ],
        input_names=["E"],
        output_names=["C1", "C2"],
    )
    [stage2] = build_parallel_certificate(program2).stages
    for batch in concurrent_batches(stage2):
        writers = [
            i for i in batch if stage2.strata[i].class_writes
        ]
        assert len(writers) <= 1


def test_renderers_cover_the_plan():
    certificate = build_parallel_certificate(tc_program())
    text = render_parallel_text(certificate)
    assert "certified" in text and "partitionable" in text and "conflict" in text
    dot = parallel_to_dot(certificate)
    assert dot.startswith("digraph parallel {") and "peripheries=2" in dot
    doc = certificate.to_json()
    assert doc["certified"] and doc["clean"]
    assert doc["stages"][0]["batches"] == [[1]]


# -- the runtime-surface audit -------------------------------------------------------


class _DriftedCompile:
    """A compile module whose kernel lost its stale-instance check."""

    class CompiledBody:
        __slots__ = ("slot_vars", "slot_index", "entry", "sink_cell",
                     "instance", "indexes")

    @staticmethod
    def compile_seminaive(*args, **kwargs):
        raise NotImplementedError


def test_audit_passes_on_the_real_runtime():
    checks = audit_runtime_surfaces()
    assert all(check.holds for check in checks), [
        f"{c.surface}: {c.detail}" for c in checks if not c.holds
    ]


def test_audit_catches_a_drifted_kernel_surface():
    checks = audit_runtime_surfaces(compile_module=_DriftedCompile)
    failed = [c.surface for c in checks if not c.holds]
    assert failed == ["compile.CompiledBody.valid_for"]
    certificate = build_parallel_certificate(tc_program(), audit=checks)
    assert not certificate.certified
    assert not certificate.clean
    codes = [d.code for d in parallel_pass(tc_program(), certificate=certificate)]
    assert "IQL803" in codes


def test_iql803_disables_the_pool_but_not_the_answer(monkeypatch):
    import repro.analysis.parallel as parallel_module

    drifted = audit_runtime_surfaces(compile_module=_DriftedCompile)
    monkeypatch.setattr(
        parallel_module, "audit_runtime_surfaces", lambda *a, **k: drifted
    )
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = Evaluator(program, parallel=4).run(instance.copy())
    assert any(
        issubclass(w.category, PreflightWarning) and "IQL803" in str(w.message)
        for w in caught
    )
    assert result.stats.parallel_workers == 0  # pool never created
    reference = ReferenceEvaluator(program).run(
        instance.copy()
    )
    assert result.output == reference.output


# -- certificate discipline: re-derivation and tamper detection ----------------------


def test_validation_is_memoized_per_program():
    program = tc_program()
    certificate = build_parallel_certificate(program)
    assert validate_parallel_certificate(program, certificate) == []
    assert certificate._validation[0] is program
    assert validate_parallel_certificate(program, certificate) == []


def test_tampered_hazard_promotion_is_caught():
    schema = Schema(
        relations={"E": columns(D, D), "TC": columns(D, classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[Rule(atom(schema, "TC", x, Var("p", classref("C"))), [atom(schema, "E", x, y)])],
        input_names=["E"],
        output_names=["TC", "C"],
    )
    certificate = build_parallel_certificate(program)
    [stage] = certificate.stages
    [stratum] = stage.strata
    # Forge a certificate that promotes the invention stratum to safe.
    import dataclasses

    promoted = dataclasses.replace(stratum, fallback=None)
    forged_stage = dataclasses.replace(stage, strata=(promoted,))
    object.__setattr__(certificate, "stages", (forged_stage,))
    violations = check_parallel_certificate(program, certificate)
    assert violations
    assert any("does not re-derive" in v for v in violations)
    assert any("hazards recorded but no serial fallback" in v for v in violations)


def test_tampered_group_split_is_caught():
    program = tc_program()
    certificate = build_parallel_certificate(program)
    [stage] = certificate.stages
    [stratum] = stage.strata
    import dataclasses

    # Split the two conflicting rules into separate groups.
    split = dataclasses.replace(stratum, groups=((0,), (1,)))
    object.__setattr__(
        certificate, "stages", (dataclasses.replace(stage, strata=(split,)),)
    )
    violations = check_parallel_certificate(program, certificate)
    assert any("sit in different groups" in v for v in violations)


def test_forged_audit_failures_are_caught():
    program = tc_program()
    certificate = build_parallel_certificate(program)
    drifted = audit_runtime_surfaces(compile_module=_DriftedCompile)
    object.__setattr__(certificate, "audit", drifted)
    violations = check_parallel_certificate(program, certificate)
    assert any("stale or tampered audit" in v for v in violations)


# -- the executor --------------------------------------------------------------------
#
# Shared-nothing worker processes: worker facts must re-canonicalize into
# the coordinator's store with identity intact, on every diff shape the
# hazard-free fragment admits (relation members, class members, set
# elements). Each test closes its evaluator's pool.


def run_parallel(program, instance, workers=2, limits=None):
    evaluator = Evaluator(program, parallel=workers, limits=limits)
    try:
        return evaluator.run(instance.copy())
    finally:
        evaluator.close()


def test_partitioned_rounds_match_serial_exactly(monkeypatch):
    # Threshold 1: every delta round of the 120-cycle is split across
    # four workers (stride 4), not just the fat ones.
    monkeypatch.setattr(parexec, "PROCESS_PARTITION_THRESHOLD", 1)
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 120, cyclic=True)
    parallel = run_parallel(program, instance, workers=4)
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert parallel.stats.parallel_workers == 4
    assert parallel.stats.parallel_partitioned == 1
    assert parallel.stats.parallel_tasks > 0
    assert len(parallel.output.relations["TC"]) == 120 * 120


def test_small_deltas_stay_inline():
    # Below PROCESS_PARTITION_THRESHOLD no worker drives a round; the
    # partitioned runner degenerates to the serial round loop.
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 6)
    result = run_parallel(program, instance)
    assert result.stats.parallel_partitioned == 1
    assert result.stats.parallel_tasks == 0
    serial = Evaluator(program).run(instance.copy())
    assert result.output == serial.output


def count_wire_traffic(monkeypatch):
    """Count the coordinator's wire encodings and state shipments."""
    from repro import io

    counts = {"batch_to_wire": 0, "ship_state": 0}
    encode, ship = io.batch_to_wire, parexec.ProcessDriver._ship_state

    def counting_encode(facts):
        counts["batch_to_wire"] += 1
        return encode(facts)

    def counting_ship(self, instance, workers):
        counts["ship_state"] += 1
        return ship(self, instance, workers)

    monkeypatch.setattr(io, "batch_to_wire", counting_encode)
    monkeypatch.setattr(parexec.ProcessDriver, "_ship_state", counting_ship)
    return counts


def test_inline_rounds_encode_and_ship_nothing(monkeypatch):
    # Every delta of a 40-node chain stays below the threshold: the
    # workers are never engaged, so no delta is encoded and no state sent.
    counts = count_wire_traffic(monkeypatch)
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 40)
    result = run_parallel(program, instance)
    assert result.stats.parallel_partitioned == 1
    assert result.stats.parallel_tasks == 0
    assert counts == {"batch_to_wire": 0, "ship_state": 0}
    assert result.output == Evaluator(program).run(instance.copy()).output


def grid_instance(schema, side):
    """A side x side grid DAG (right and down edges): the number of new
    closure pairs grows from round to round for the first rounds."""
    instance = Instance(schema.project(["E"]))
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                instance.add_relation_member("E", OTuple(A01=f"{r}.{c}", A02=f"{r}.{c + 1}"))
            if r + 1 < side:
                instance.add_relation_member("E", OTuple(A01=f"{r}.{c}", A02=f"{r + 1}.{c}"))
    return instance


def test_workers_join_at_the_first_round_big_enough(monkeypatch):
    # On an 8x8 grid the first deltas hold 112 and then 145 pairs: with the
    # threshold at 120, round 1 runs inline and the workers join at round
    # 2, from a shipped state that already holds round 1's facts.
    monkeypatch.setattr(parexec, "PROCESS_PARTITION_THRESHOLD", 120)
    counts = count_wire_traffic(monkeypatch)
    schema = tc_schema()
    program = tc_program(schema)
    instance = grid_instance(schema, 8)
    result = run_parallel(program, instance)
    assert result.stats.parallel_tasks > 0
    assert counts["ship_state"] == 1
    assert result.output == Evaluator(program).run(instance.copy()).output


def test_concurrent_strata_run_on_workers():
    schema = Schema(
        relations={"E": columns(D, D), "T": columns(D, D), "U": columns(D)},
        classes={},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
            Rule(atom(schema, "U", x), [atom(schema, "E", x, y)]),
        ],
        input_names=["E"],
        output_names=["T", "U"],
    )
    instance = Instance(schema.project(["E"]))
    for i in range(30):
        instance.add_relation_member("E", OTuple(A01=f"a{i}", A02=f"b{i}"))
    parallel = run_parallel(program, instance)
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert parallel.stats.parallel_strata == 2
    assert parallel.stats.parallel_tasks >= 2


#: Four independent transitive closures over 4-node cycles: one width-4
#: batch of concurrent strata, 20 serial steps in all.
FOUR_CLOSURES = """
schema {
  relation E1: [A1: D, A2: D];
  relation E2: [A1: D, A2: D];
  relation E3: [A1: D, A2: D];
  relation E4: [A1: D, A2: D];
  relation T1: [A1: D, A2: D];
  relation T2: [A1: D, A2: D];
  relation T3: [A1: D, A2: D];
  relation T4: [A1: D, A2: D];
}
var x, y, z: D
input E1, E2, E3, E4
output T1, T2, T3, T4
rules {
  T1(x, y) :- E1(x, y).
  T1(x, z) :- T1(x, y), E1(y, z).
  T2(x, y) :- E2(x, y).
  T2(x, z) :- T2(x, y), E2(y, z).
  T3(x, y) :- E3(x, y).
  T3(x, z) :- T3(x, y), E3(y, z).
  T4(x, y) :- E4(x, y).
  T4(x, z) :- T4(x, y), E4(y, z).
}
"""


def four_closures():
    program = program_from_source(FOUR_CLOSURES)
    instance = Instance(program.input_schema)
    for k in range(1, 5):
        for i in range(4):
            instance.add_relation_member(
                f"E{k}", OTuple(A1=f"n{i}", A2=f"n{(i + 1) % 4}")
            )
    return program, instance


def test_concurrent_strata_charge_the_run_step_budget():
    # The serial engine runs the four strata one after another against
    # one step count; a concurrent batch must exhaust the same budget.
    program, instance = four_closures()
    serial = Evaluator(program).run(instance.copy())
    assert serial.stats.steps == 20
    limits = EvaluatorLimits(max_steps=20)
    parallel = run_parallel(program, instance, limits=limits)
    assert parallel.stats.parallel_strata == 4
    assert parallel.stats.steps == 20
    assert parallel.output == serial.output
    for max_steps in (19, 3):
        limits = EvaluatorLimits(max_steps=max_steps)
        with pytest.raises(NonTerminationError):
            Evaluator(program, limits=limits).run(instance.copy())
        evaluator = Evaluator(program, parallel=2, limits=limits)
        try:
            # Twice on one pool: a failed batch leaves no stale replies.
            for _ in range(2):
                with pytest.raises(NonTerminationError):
                    evaluator.run(instance.copy())
        finally:
            evaluator.close()


def test_iql801_program_falls_back_serial_with_warning():
    schema = Schema(
        relations={"T": columns(classref("C"), classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", classref("C")), Var("y", classref("C"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x, x), [atom(schema, "C", x)]),
            Rule(atom(schema, "T", x, y), [atom(schema, "C", x), atom(schema, "C", y)]),
        ],
        input_names=["C"],
        output_names=["T", "C"],
    )
    from repro.values.ovalues import Oid

    instance = Instance(schema.project(["C"]))
    for i in range(4):
        instance.add_class_member("C", Oid(f"o{i}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_parallel(program, instance)
    assert any(
        issubclass(w.category, PreflightWarning) and "IQL801" in str(w.message)
        for w in caught
    )
    assert result.stats.parallel_fallbacks >= 1
    reference = ReferenceEvaluator(program).run(
        instance.copy()
    )
    assert result.output == reference.output


def test_iql802_invention_program_falls_back_serial_with_warning():
    schema = Schema(
        relations={"E": columns(D, D), "TC": columns(D, classref("C"))},
        classes={"C": tuple_of(a=D)},
    )
    x, y = Var("x", D), Var("y", D)
    program = Program(
        schema,
        rules=[Rule(atom(schema, "TC", x, Var("p", classref("C"))), [atom(schema, "E", x, y)])],
        input_names=["E"],
        output_names=["TC", "C"],
    )
    instance = Instance(schema.project(["E"]))
    for i in range(5):
        instance.add_relation_member("E", OTuple(A01=f"a{i}", A02=f"b{i}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_parallel(program, instance)
    assert any(
        issubclass(w.category, PreflightWarning) and "IQL802" in str(w.message)
        for w in caught
    )
    assert result.stats.parallel_fallbacks >= 1
    from repro.schema import are_o_isomorphic

    reference = ReferenceEvaluator(program).run(
        instance.copy()
    )
    assert are_o_isomorphic(result.output, reference.output)


def test_parallel_one_is_plain_scheduling():
    # parallel=1 validates the certificate but never opens a pool.
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 10)
    evaluator = Evaluator(program, parallel=1)
    result = evaluator.run(instance.copy())
    assert result.stats.parallel_workers == 0
    assert evaluator._driver is None
    serial = Evaluator(program).run(instance.copy())
    assert result.output == serial.output


def test_parallel_implies_schedule():
    evaluator = Evaluator(tc_program(), parallel=2)
    assert evaluator._schedule is not None
    assert evaluator._parallel_certificate is not None
    assert evaluator._driver is None  # the pool starts with the first run


def test_trace_disables_parallel():
    # Tracing is the reference engine's, which takes no worker pool.
    with pytest.raises(TypeError):
        Evaluator(tc_program(), parallel=4, trace=True)
    with pytest.raises(TypeError):
        ReferenceEvaluator(tc_program(), parallel=4)
    evaluator = ReferenceEvaluator(tc_program(), trace=True)
    assert evaluator.parallel == 0
    assert evaluator._parallel_certificate is None


def test_process_partitioned_rounds_match_serial_exactly():
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 300)
    parallel = run_parallel(program, instance)
    serial = Evaluator(program).run(instance.copy())
    assert parallel.output == serial.output
    assert parallel.stats.parallel_partitioned == 1
    # 300-long chains push delta rounds past the default threshold, so
    # workers really drove rounds (not the inline fallback).
    assert parallel.stats.parallel_tasks > 0


def test_process_pool_persists_across_runs():
    schema = tc_schema()
    program = tc_program(schema)
    instance = chain_instance(schema, 40)
    serial = Evaluator(program).run(instance.copy())
    evaluator = Evaluator(program, parallel=2)
    try:
        first = evaluator.run(instance.copy())
        pool = evaluator._driver
        assert pool is not None and all(p.is_alive() for p in pool._processes)
        second = evaluator.run(instance.copy())
        # One persistent pool per Evaluator: the second run reuses it.
        assert evaluator._driver is pool
        assert first.output == serial.output
        assert second.output == serial.output
    finally:
        evaluator.close()
    assert evaluator._driver is None
    for process in pool._processes:
        process.join(timeout=5)
        assert not process.is_alive()


def test_process_concurrent_strata_ship_oids_by_identity():
    # Three independent strata (one a class writer) batch across two
    # process workers; the derived facts carry oids, which must come
    # back from the workers as the coordinator's OWN oid objects — the
    # merge re-canonicalizes, it never copies.
    schema = Schema(
        relations={
            "R1": columns(classref("C1")),
            "T": columns(classref("C1")),
            "U": columns(classref("C1"), classref("C1")),
        },
        classes={"C1": tuple_of(a=D)},
    )
    x = Var("x", classref("C1"))
    program = Program(
        schema,
        rules=[
            Rule(atom(schema, "T", x), [atom(schema, "R1", x)]),
            Rule(atom(schema, "U", x, x), [atom(schema, "R1", x)]),
            # A hazard-free class writer (re-derives existing members —
            # class disjointness admits nothing else without invention):
            # exercises the one-class-writer-per-batch schedule and the
            # empty class diff crossing the boundary.
            Rule(atom(schema, "C1", x), [atom(schema, "R1", x)]),
        ],
        input_names=["R1", "C1"],
        output_names=["T", "U", "C1"],
    )
    from repro.values import Oid

    instance = Instance(schema.project(["R1", "C1"]))
    oids = []
    for i in range(12):
        oid = Oid(f"c{i}")
        oids.append(oid)
        instance.add_class_member("C1", oid)
        instance.assign(oid, OTuple(a=i))
        instance.add_relation_member("R1", OTuple(A01=oid))
    serial = Evaluator(program).run(instance.copy())
    parallel = run_parallel(program, instance)
    assert parallel.output == serial.output
    assert parallel.stats.parallel_strata >= 2
    # Identity, not isomorphism: the oids inside the derived facts ARE
    # the input's oid objects, not structural twins.
    derived_oids = {fact["A01"] for fact in parallel.full.relations["T"]}
    assert all(any(o is oid for oid in oids) for o in derived_oids)


def test_certificate_audits_the_serialization_surfaces():
    program = tc_program()
    certificate = build_parallel_certificate(program)
    assert certificate.certified
    surfaces = [check.surface for check in certificate.audit]
    assert surfaces == [
        "compile.CompiledBody.valid_for",
        "compile.compile_seminaive",
        "values pickling re-interns",
        "schema.Instance pickled state",
        "iql.Rule pickled state",
        "parexec process worker entry",
    ]
    assert check_parallel_certificate(program, certificate) == []
    assert "values pickling re-interns" in render_parallel_text(certificate)


def test_parallel_auto_resolves_to_cpus_clamped_by_width():
    import os

    program = tc_program()
    evaluator = Evaluator(program, parallel="auto")
    assert evaluator._parallel_certificate is not None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    width = evaluator._parallel_certificate.width
    assert evaluator.parallel == max(1, min(cpus, width))
    # And it still answers correctly whatever the resolved width.
    schema = tc_schema()
    instance = chain_instance(schema, 12)
    serial = Evaluator(tc_program(schema)).run(instance.copy())
    try:
        assert evaluator.run(instance.copy()).output == serial.output
    finally:
        evaluator.close()


def test_unknown_parallel_setting_raises():
    with pytest.raises(EvaluationError):
        Evaluator(tc_program(), parallel="some")


def test_evaluator_options():
    import inspect

    options = list(inspect.signature(Evaluator.__init__).parameters)[2:]
    assert options == [
        "oid_factory", "limits", "choose_mode", "seed", "preflight", "parallel",
    ]
