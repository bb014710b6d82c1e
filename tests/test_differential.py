"""Differential tests: every engine that ships against the reference oracle.

:class:`~repro.iql.ReferenceEvaluator` is the executable specification —
a direct transcription of the paper's inflationary one-step operator with
generate-and-test joins. Every shipped engine must agree with it on every
program: exactly (ground facts) when the program is invention-free, up to
O-isomorphism when it invents oids (invented identities are fresh by
construction, so only the shape is determined — Section 4.1).

One harness, :func:`check_engine`, runs an engine from :data:`ENGINES` on
one seed of a corpus and compares every state the engine reaches with the
oracle's fixpoint of the same input:

* ``default`` — ``Evaluator(program)``: scheduled, compiled, cost-planned,
  semi-naive and indexed;
* ``forced-replan`` — the default engine with
  :data:`repro.iql.stats.REPLAN_RATIO` at 1.0, so every inexact estimate
  evicts its plan and recompiles mid-fixpoint (the adversarial schedule
  for the planner's feedback loop);
* ``uninterned`` — the default engine over plain structural values, run
  inside ``interning(False)``;
* ``ivm`` — :class:`~repro.iql.MaterializedProgram` insert replay:
  materialize half the input, insert the other half one fact per
  ``apply_delta`` batch, then apply random insert/delete batches;
* ``processes`` — ``Evaluator(parallel=2)`` on its worker-process pool,
  with :data:`repro.iql.parexec.PROCESS_PARTITION_THRESHOLD` at 1 so
  every delta round of a partitioned stratum is driven by the workers
  (at the default threshold the corpus's small rounds stay inline on
  the coordinator and the worker round path would go untested).

Both corpora come from one seeded generator over a fixed schema. The
``plain`` corpus holds single-stage programs — recursive positive atoms,
fully-bound negation, equalities, constants and, in a fifth of the seeds,
oid invention. The ``staged`` corpus splits the rules into two stages half
the time and, in a quarter of the seeds, adds a negation-through-recursion
rule the scheduler cannot certify (IQL601), so the monolithic fallback
runs too. 220 seeds per sweep; the sweep functions keep the names (and so
the per-seed test ids) of the engine variants they once compared.
"""

import random
import warnings
from unittest import mock

import pytest

from repro.iql import (
    Evaluator,
    MaterializedProgram,
    Program,
    ReferenceEvaluator,
    Rule,
    Var,
    atom,
    columns,
)
from repro.iql import parexec
from repro.iql import stats as planner_stats
from repro.iql.literals import Equality
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D, classref, tuple_of
from repro.values import OTuple, interning

CONSTS = ["a", "b", "c"]


def make_schema():
    return Schema(
        relations={
            "E": columns(D, D),
            "T": columns(D, D),
            "U": columns(D),
            "TC": columns(D, classref("C")),
        },
        classes={"C": tuple_of(a=D)},
    )


def random_program(schema, rng, allow_invention):
    """A random single-stage program: heads into T/U/TC, bodies over E/T/U."""
    variables = [Var(f"x{i}", D) for i in range(4)]
    rules = []
    for _ in range(rng.randint(1, 3)):
        body = []
        bound = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(["E", "E", "T", "U"])
            if name == "U":
                v = rng.choice(variables)
                body.append(atom(schema, "U", v))
                bound.append(v)
            else:
                v1, v2 = rng.choice(variables), rng.choice(variables)
                body.append(atom(schema, name, v1, v2))
                bound.extend([v1, v2])
        if rng.random() < 0.4:  # fully-bound negative literal
            name = rng.choice(["E", "T", "U"])
            if name == "U":
                body.append(atom(schema, "U", rng.choice(bound), positive=False))
            else:
                body.append(
                    atom(
                        schema, name, rng.choice(bound), rng.choice(bound),
                        positive=False,
                    )
                )
        if rng.random() < 0.3:  # equality filter between bound variables
            left, right = rng.choice(bound), rng.choice(bound)
            body.append(Equality(left, right, positive=rng.random() < 0.8))
        if allow_invention and rng.random() < 0.5:
            head = atom(
                schema, "TC", rng.choice(bound), Var("p", classref("C"))
            )
        elif rng.random() < 0.5:
            head = atom(schema, "T", rng.choice(bound), rng.choice(bound))
        else:
            head = atom(schema, "U", rng.choice(bound))
        rules.append(Rule(head, body))
    return Program(
        schema,
        rules=rules,
        input_names=["E", "U"],
        output_names=["T", "U", "TC", "C"],
    )


def random_instance(schema, rng):
    instance = Instance(schema.project(["E", "U"]))
    for _ in range(rng.randint(1, 6)):
        instance.add_relation_member(
            "E", OTuple(A01=rng.choice(CONSTS), A02=rng.choice(CONSTS))
        )
    for _ in range(rng.randint(0, 2)):
        instance.add_relation_member("U", OTuple(A01=rng.choice(CONSTS)))
    return instance


def random_scheduled_program(schema, rng, allow_invention, unstratified):
    program = random_program(schema, rng, allow_invention)
    rules = list(program.rules)
    if unstratified:
        x, y = Var("x0", D), Var("x1", D)
        rules.append(
            Rule(
                atom(schema, "T", x, y),
                [atom(schema, "E", x, y), atom(schema, "T", y, x, positive=False)],
            )
        )
    if len(rules) > 1 and rng.random() < 0.5:
        split = rng.randrange(1, len(rules))
        stages = [rules[:split], rules[split:]]
        return Program(
            schema,
            stages=stages,
            input_names=program.input_names,
            output_names=program.output_names,
        )
    return Program(
        schema,
        rules=rules,
        input_names=program.input_names,
        output_names=program.output_names,
    )


def random_new_fact(base, rng):
    constants = CONSTS + ["d"]  # sometimes a constant the instance lacks
    if base == "E":
        return OTuple(A01=rng.choice(constants), A02=rng.choice(constants))
    return OTuple(A01=rng.choice(constants))


# -- the engines that ship -----------------------------------------------------------
#
# Each engine is a generator over (input instance, full instance, stats)
# triples: one per state the engine reaches and the oracle must agree with.


def run_default(program, instance, rng):
    result = Evaluator(program).run(instance.copy())
    yield instance, result.full, result.stats


def run_forced_replan(program, instance, rng):
    with mock.patch.object(planner_stats, "REPLAN_RATIO", 1.0):
        result = Evaluator(program).run(instance.copy())
    yield instance, result.full, result.stats


def run_uninterned(program, instance, rng):
    with interning(False):
        result = Evaluator(program).run(instance.copy())
    yield instance, result.full, result.stats


def run_materialized(program, instance, rng):
    facts = sorted(
        ((name, value) for name, values in instance.relations.items() for value in values),
        key=repr,
    )
    half = len(facts) // 2
    base = Instance(instance.schema)
    for name, value in facts[:half]:
        base.add_relation_member(name, value)
    mp = MaterializedProgram(program, base)
    yield mp.base.copy(), mp.instance, mp.stats
    for fact in facts[half:]:
        mp.apply_delta(inserts=[fact])
    yield mp.base.copy(), mp.instance, mp.stats
    for _ in range(3):
        inserts, deletes = [], []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(["E", "U"])
            extent = sorted(mp.base.relations[name], key=repr)
            if extent and rng.random() < 0.4:
                deletes.append((name, rng.choice(extent)))
            else:
                inserts.append((name, random_new_fact(name, rng)))
        mp.apply_delta(inserts=inserts, deletes=deletes)
        yield mp.base.copy(), mp.instance, mp.stats
    assert mp.supports.negative_symbols() == [], "negative support count"
    assert mp.instance.indexes.equals_rebuild(), "stale indexes"


def run_processes(program, instance, rng):
    evaluator = Evaluator(program, parallel=2)
    try:
        with mock.patch.object(parexec, "PROCESS_PARTITION_THRESHOLD", 1):
            result = evaluator.run(instance.copy())
    finally:
        evaluator.close()
    yield instance, result.full, result.stats


ENGINES = {
    "default": run_default,
    "forced-replan": run_forced_replan,
    "uninterned": run_uninterned,
    "ivm": run_materialized,
    "processes": run_processes,
}


def check_engine(engine, seed, staged=False):
    """Run ``ENGINES[engine]`` on one corpus seed against the oracle.

    Returns the program and the stats of the engine's last state.
    """
    rng = random.Random(seed)
    schema = make_schema()
    allow_invention = seed % 5 == 0
    if staged:
        program = random_scheduled_program(
            schema, rng, allow_invention, unstratified=seed % 4 == 1
        )
    else:
        program = random_program(schema, rng, allow_invention)
    instance = random_instance(schema, rng)
    invention_free = all(rule.is_invention_free() for rule in program.rules)
    stats = None
    with warnings.catch_warnings():
        # IQL801-803 serial fallbacks of the parallel engine warn.
        warnings.simplefilter("ignore")
        for state, (base, full, stats) in enumerate(ENGINES[engine](program, instance, rng)):
            expected = ReferenceEvaluator(program).run(base.copy()).full
            where = f"{engine} seed {seed} state {state}"
            if invention_free:
                assert full.ground_facts() == expected.ground_facts(), (
                    f"{where}: exact disagreement"
                )
            else:
                assert are_o_isomorphic(full, expected), f"{where}: not O-isomorphic"
    return program, stats


# -- the sweeps ----------------------------------------------------------------------

SEEDS = range(220)


@pytest.mark.parametrize("seed", SEEDS)
def test_optimized_engine_matches_reference(seed):
    """The default engine; the plain corpus has no fallback construct, so
    every rule must run as a compiled kernel."""
    program, stats = check_engine("default", seed)
    assert stats.rules_interpreted == 0, stats.compile_fallback_reasons
    assert stats.rules_compiled == len(program.rules)


@pytest.mark.parametrize("seed", SEEDS)
def test_scheduled_engine_matches_reference(seed):
    """The default engine on staged programs, including IQL601 fallbacks."""
    program, stats = check_engine("default", seed, staged=True)
    if seed % 4 == 1:
        assert stats.schedule_fallbacks >= 1, "expected an IQL601 fallback"


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_engine_matches_reference(seed):
    """Insert replay through the compiled delta kernels of incremental
    maintenance, on the plain corpus."""
    check_engine("ivm", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_costed_planner_matches_static(seed):
    """Forced replanning on the staged corpus."""
    check_engine("forced-replan", seed, staged=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_forced_replanning_matches_static(seed):
    """Forced replanning on the plain corpus."""
    check_engine("forced-replan", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_engine_matches_serial(seed):
    """The worker-process engine on the plain corpus, whose recursive
    single-stage programs mostly certify as partitionable."""
    check_engine("processes", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_process_engine_matches_serial(seed):
    """The worker-process engine on the staged corpus.

    A worker's derivations cross a pickling boundary and must
    re-canonicalize into the coordinator's intern store with oid identity
    intact; any leak shows up as an equality (or isomorphism) failure.
    """
    check_engine("processes", seed, staged=True)


def main(argv=None):
    """``python -m tests.test_differential ENGINE [--staged] [--seeds N]``:
    run one engine's sweep outside pytest (the CI smoke entry point)."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("engine", choices=sorted(ENGINES))
    parser.add_argument("--staged", action="store_true")
    parser.add_argument("--seeds", type=int, default=len(SEEDS))
    args = parser.parse_args(argv)
    for seed in range(args.seeds):
        check_engine(args.engine, seed, staged=args.staged)
    corpus = "staged" if args.staged else "plain"
    print(f"{args.engine}: {args.seeds} {corpus} seeds agree with the reference engine")


if __name__ == "__main__":
    main()
