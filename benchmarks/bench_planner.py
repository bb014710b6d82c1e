"""E21 — cost-based planning on a skewed join.

The workload is the canonical optimizer trap::

    J(x, y) :- A(x), B(x, y), C(y).

with |A| = 10, |C| = 50, and |B| = 250·n rows whose first attribute is
*skewed* onto A's ten values (NDV(B.A1) = 10) while the second is unique
(NDV(B.A2) = |B|). A planner that ranks an index probe before any scan
orders this A → probe B on A1 → filter C: every A row drags in a
|B|/10-row skew bucket, so the join does O(|B|) work however few rows
survive the C filter. The cost model of the default ``Evaluator`` prices
the B probe at its estimated bucket (size/NDV = |B|/10 per probed
attribute) and the C scan at 50·est rows, orders A → C → probe B on
*both* attributes (the A2 side has bucket size 1), and does O(|A|·|C|)
work — independent of |B|. The reference engine plans with the same
cost model but without indexes, so B becomes a fully-bound filter after
the A and C scans.

Claims measured: identical outputs; both engines stay flat in |B|; the
planning overhead (a handful of NDV lookups per body) is invisible.

Run standalone:  python benchmarks/bench_planner.py
"""

import pytest

from repro.iql import Evaluator, ReferenceEvaluator
from repro.parser.grammar import program_from_source
from repro.schema import Instance
from repro.values import OTuple

from helpers import ms, print_series, time_call

PROGRAM = """
schema {
  relation A: [A1: D];
  relation B: [A1: D, A2: D];
  relation C: [A1: D];
  relation J: [A1: D, A2: D];
}
var x, y: D
input A, B, C
output J
rules {
  J(x, y) :- A(x), B(x, y), C(y).
}
"""

SKEW = 10  # distinct B.A1 values (= |A|)
SELECTIVE = 50  # |C|: B.A2 values that survive the join
ROWS_PER_N = 250  # |B| per unit of n


def setup(n):
    """10 A-rows, 250·n skewed B-rows, 50 selective C-rows."""
    program = program_from_source(PROGRAM)
    instance = Instance(program.input_schema)
    for i in range(SKEW):
        instance.add_relation_member("A", OTuple(A1=f"s{i}"))
    for i in range(ROWS_PER_N * n):
        instance.add_relation_member("B", OTuple(A1=f"s{i % SKEW}", A2=f"v{i}"))
    for j in range(SELECTIVE):
        instance.add_relation_member("C", OTuple(A1=f"v{j}"))
    return program, instance


def run_reference(program, instance):
    return ReferenceEvaluator(program).run(instance.copy())


def run_default(program, instance):
    return Evaluator(program).run(instance.copy())


@pytest.mark.parametrize("n", [4, 8])
def test_default(benchmark, n):
    program, instance = setup(n)
    result = benchmark.pedantic(
        lambda: run_default(program, instance), rounds=2, iterations=1
    )
    assert result.stats.plans_costed >= 1
    assert len(result.output.relations["J"]) == SELECTIVE


@pytest.mark.parametrize("n", [4, 8])
def test_reference(benchmark, n):
    program, instance = setup(n)
    result = benchmark.pedantic(
        lambda: run_reference(program, instance), rounds=2, iterations=1
    )
    assert len(result.output.relations["J"]) == SELECTIVE


SMOKE_SIZES = [2, 4]


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
                ROWS_PER_N * n,
                len(default.output.relations["J"]),
                ms(t_ref),
                ms(t_default),
                f"{t_ref / t_default:.1f}×",
                "✓" if agree else "✗",
            )
        )
    print_series(
        "E21: skewed join A ⋈ B ⋈ C — reference vs default",
        ["n", "|B|", "|J|", "reference", "default", "speedup", "agree"],
        rows,
    )
    print(
        "  shape: the cost model sees NDV(B.A1) = 10 vs NDV(B.A2) = |B|,\n"
        "  joins C first, and probes B fully bound (bucket 1) — flat in\n"
        "  |B|. The unindexed reference scans A and C and checks B as a\n"
        "  fully-bound filter, also flat in |B|. Same answers either way:\n"
        "  join order never changes the solution set."
    )
    return series


if __name__ == "__main__":
    main()
