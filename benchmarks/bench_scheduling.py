"""E19 — the certified schedule on a mixed stage: default vs reference.

The workload is a single *mixed* stage — exactly the shape the paper's
uniform rule language invites: a recursive transitive closure, a filter
joining the closure against itself, and a weak-assignment (★) rule
initializing object values from an input class::

    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), E(y, z).
    F(x, y) :- T(x, y), T(y, x).
    p^ = [] :- Seed(p).

The assignment head makes the whole stage ineligible for the semi-naive
rewriting as one unit, so the reference engine (``ReferenceEvaluator``)
runs the naive loop: every one of the ~n fixpoint steps re-solves *all
four* rules against the full instance. The dependency analysis
(repro.analysis.depgraph) certifies a three-stratum schedule — {T}
(recursive), {F}, {^P} — and the default ``Evaluator`` solves the T and
F strata with compiled semi-naive kernels and the assignment stratum in
two naive steps, none of which re-examines another stratum's work.

Claims measured: identical outputs; the default engine wins by a factor
that grows with n (the schedule restores the semi-naive asymptotics the
assignment rule destroyed); the analysis overhead (one graph + schedule
per Evaluator) is a constant sub-millisecond, invisible at every size.

Run standalone:  python benchmarks/bench_scheduling.py
"""

import pytest

from repro.iql import Evaluator, ReferenceEvaluator
from repro.parser.grammar import program_from_source
from repro.schema import Instance
from repro.values import OTuple, Oid

from helpers import ms, print_series, time_call

PROGRAM = """
schema {
  relation E: [A1: D, A2: D];
  relation T: [A1: D, A2: D];
  relation F: [A1: D, A2: D];
  relation Seed: [A1: P];
  class P: [];
}
var x, y, z: D
var p: P
input E, Seed, P
output T, F, P
rules {
  T(x, y) :- E(x, y).
  T(x, z) :- T(x, y), E(y, z).
  F(x, y) :- T(x, y), T(y, x).
  p^ = [] :- Seed(p).
}
"""


def setup(n, objects=8):
    """A path graph 0→1→…→n-1 with a back edge, plus ``objects`` P-oids."""
    program = program_from_source(PROGRAM)
    instance = Instance(program.input_schema)
    for i in range(n - 1):
        instance.add_relation_member("E", OTuple(A1=f"n{i}", A2=f"n{i + 1}"))
    instance.add_relation_member("E", OTuple(A1=f"n{n - 1}", A2="n0"))
    for k in range(objects):
        oid = Oid(f"p{k}")
        instance.add_class_member("P", oid)
        instance.add_relation_member("Seed", OTuple(A1=oid))
    return program, instance


def run_reference(program, instance):
    return ReferenceEvaluator(program).run(instance.copy())


def run_default(program, instance):
    return Evaluator(program).run(instance.copy())


@pytest.mark.parametrize("n", [8, 16])
def test_default(benchmark, n):
    program, instance = setup(n)
    result = benchmark.pedantic(
        lambda: run_default(program, instance), rounds=2, iterations=1
    )
    assert result.stats.strata == 3
    assert result.stats.rules_compiled == 4


SMOKE_SIZES = [6, 10]


def main(sizes=None):
    rows = []
    series = {}
    for n in sizes or [8, 16, 24, 32]:
        program, instance = setup(n)
        t_ref, ref = time_call(run_reference, program, instance)
        t_default, default = time_call(run_default, program, instance)
        agree = ref.output == default.output
        series[n] = t_default
        rows.append(
            (
                n,
                len(ref.output.relations["T"]),
                ms(t_ref),
                ms(t_default),
                f"{t_ref / t_default:.1f}×",
                default.stats.strata,
                default.stats.rules_compiled,
                "✓" if agree else "✗",
            )
        )
    print_series(
        "E19: mixed closure + filter + assignment stage — reference vs default",
        ["n", "|T|", "reference", "default", "speedup", "strata", "compiled",
         "agree"],
        rows,
    )
    print(
        "  shape: the (★) assignment rule locks a whole-stage fixpoint out\n"
        "  of the semi-naive rewriting, so the reference engine pays ~n naive\n"
        "  re-solves of every rule; the certified schedule isolates the\n"
        "  assignment in its own stratum and restores semi-naive evaluation\n"
        "  for the closure and the filter — a speedup that grows with n, for\n"
        "  the price of one dependency analysis per program. The filter\n"
        "  stratum F(x,y) :- T(x,y), T(y,x) compiles its fully-bound\n"
        "  membership check into one hash lookup against the captured T\n"
        "  extension."
    )
    return series


if __name__ == "__main__":
    main()
