"""E11 — Section 3.4: Datalog ⊂ IQL, and what the generality costs.

Four engines on identical transitive-closure workloads:

* the dedicated Datalog engine, naive and semi-naive,
* the IQL reference engine (``ReferenceEvaluator``: the paper's naive
  iteration with generate-and-test joins) and the default ``Evaluator``
  (scheduled, semi-naive, cost-planned over hash indexes, compiled into
  closure kernels).

Claims measured: all four produce identical fact sets; semi-naive beats
naive by a growing factor in both engines (the classical result), and
the default IQL engine's lead over the reference grows with n; the IQL
engines pay a constant-factor interpretation overhead over the flat
engine at matching algorithms — same asymptotics, since the embedding is
verbatim.

Run standalone:  python benchmarks/bench_datalog.py
"""

import pytest

from repro.datalog import (
    database_to_instance,
    datalog_to_iql,
    evaluate_naive,
    evaluate_seminaive,
    instance_to_database,
    transitive_closure_program,
)
from repro.iql import ReferenceEvaluator, evaluate
from repro.workloads import path_graph, transitive_closure

from helpers import ms, print_series, time_call


def setup(n):
    dprog = transitive_closure_program()
    edges = path_graph(n)
    return dprog, {"E": set(edges)}, edges


@pytest.mark.parametrize("n", [16, 32])
def test_datalog_naive(benchmark, n):
    dprog, edb, edges = setup(n)
    out = benchmark.pedantic(lambda: evaluate_naive(dprog, edb), rounds=2, iterations=1)
    assert out["T"] == transitive_closure(edges)


@pytest.mark.parametrize("n", [16, 32])
def test_datalog_seminaive(benchmark, n):
    dprog, edb, edges = setup(n)
    out = benchmark.pedantic(
        lambda: evaluate_seminaive(dprog, edb), rounds=2, iterations=1
    )
    assert out["T"] == transitive_closure(edges)


@pytest.mark.parametrize("n", [16, 32])
def test_iql_embedded(benchmark, n):
    dprog, edb, edges = setup(n)
    program = datalog_to_iql(dprog)
    instance = database_to_instance(dprog, edb, names=dprog.edb)
    out = benchmark.pedantic(
        lambda: evaluate(program, instance.copy()), rounds=2, iterations=1
    )
    assert instance_to_database(out)["T"] == transitive_closure(edges)


@pytest.mark.parametrize("n", [16, 32])
def test_iql_reference(benchmark, n):
    dprog, edb, edges = setup(n)
    program = datalog_to_iql(dprog)
    instance = database_to_instance(dprog, edb, names=dprog.edb)
    evaluator = ReferenceEvaluator(program)
    out = benchmark.pedantic(
        lambda: evaluator.run(instance.copy()).output, rounds=2, iterations=1
    )
    assert instance_to_database(out)["T"] == transitive_closure(edges)


SMOKE_SIZES = [8, 16]


def main(sizes=None):
    rows = []
    series = {}
    for n in sizes or [8, 16, 24, 32]:
        dprog, edb, edges = setup(n)
        t_naive, out_naive = time_call(evaluate_naive, dprog, edb)
        t_semi, out_semi = time_call(evaluate_seminaive, dprog, edb)
        program = datalog_to_iql(dprog)
        instance = database_to_instance(dprog, edb, names=dprog.edb)
        t_ref, res_ref = time_call(
            lambda program=program, instance=instance: ReferenceEvaluator(program)
            .run(instance.copy())
            .output
        )
        t_iql, res_iql = time_call(evaluate, program, instance.copy())
        agree = (
            out_naive["T"]
            == out_semi["T"]
            == instance_to_database(res_ref)["T"]
            == instance_to_database(res_iql)["T"]
        )
        series[n] = t_iql
        rows.append(
            (
                n,
                len(out_naive["T"]),
                ms(t_naive),
                ms(t_semi),
                ms(t_ref),
                ms(t_iql),
                f"{t_ref / t_iql:.1f}×",
                "✓" if agree else "✗",
            )
        )
    print_series(
        "E11: transitive closure on path graphs — four engines, one answer",
        ["n", "|T|", "DL naive", "DL semi", "IQL reference", "IQL default",
         "speedup", "agree"],
        rows,
    )
    print(
        "  shape: the reference engine re-derives the whole closure every\n"
        "  step through generate-and-test joins; the default engine's\n"
        "  semi-naive rounds over hash indexes avoid rediscovery, so its\n"
        "  lead grows with n. IQL's overhead over Datalog at matching\n"
        "  algorithms stays a constant factor — identical asymptotics, as\n"
        "  the verbatim embedding predicts."
    )
    return series


if __name__ == "__main__":
    main()
