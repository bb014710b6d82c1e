"""Show that each output check accepts a correct output and rejects one
with a single corrupted fact.

For every workload, on its (small) update-stream graph: the ``repro run``
output document is checked as produced and with one fact corrupted, and
so is the fixpoint ``MaterializedProgram`` maintains. Every clean check
must pass and every corrupted one must fail. The self-test also checks
that layers.TARGETS covers exactly the per-layer metrics of
BENCHMARK.json.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, List, Tuple

from repro import io, program_from_source
from repro.iql import Evaluator
from repro.iql.ivm import MaterializedProgram

from layers import TARGETS
from workloads import WORKLOADS, Workload, check_full, check_output, input_document


def corrupt_document(workload: Workload, text: str) -> str:
    """Drop one closure pair, or one successor object from one ν(P)."""
    doc = json.loads(text)
    if workload.name == "invent":
        for value in doc["nu"].values():
            members = value["tuple"]["A2"]["set"]
            if members:
                members.pop()
                break
    else:
        doc["relations"]["TC" if workload.name == "tc" else "T"].pop()
    return json.dumps(doc)


def corrupt_instance(workload: Workload, instance) -> None:
    """Retract one closure fact, or one element of one ν(P_aux)."""
    if workload.name == "invent":
        for oid in sorted(instance.classes["P_aux"], key=lambda o: o.serial):
            elements = sorted(instance.value_of(oid), key=lambda o: o.serial)
            if elements:
                instance.remove_set_element(oid, elements[0])
                return
    relation = "TC" if workload.name == "tc" else "T"
    instance.remove_relation_member(relation, min(instance.relations[relation], key=repr))


def self_test(spec: dict, root: Path) -> int:
    rows: List[Tuple[str, str, bool]] = []
    declared = {metric["name"] for metric in spec["per_layer"]}
    rows.append(("-", "layers.TARGETS names the per-layer metrics", set(TARGETS) == declared))
    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]
        edges = workload.graph(workload.stream_graph, seed=1)
        text = workload.program_text(root)
        program = program_from_source(text)
        doc = input_document(program, workload, sorted(edges))
        instance = io.loads(doc).project(program.input_schema)
        output = io.dumps(Evaluator(program).run(instance).output)
        maintained = MaterializedProgram(program, instance).instance.copy()
        checks: List[Tuple[str, Callable[[], List[str]], bool]] = [
            ("run output", lambda: check_output(workload, output, edges), True),
            (
                "run output, one fact corrupted",
                lambda: check_output(workload, corrupt_document(workload, output), edges),
                False,
            ),
            ("maintained fixpoint", lambda: check_full(workload, maintained, edges), True),
        ]
        for what, check, clean in checks:
            rows.append((workload.name, what, (not check()) == clean))
        corrupt_instance(workload, maintained)
        rows.append(
            (workload.name, "maintained fixpoint, one fact corrupted", bool(check_full(workload, maintained, edges)))
        )
    for name, what, ok in rows:
        print(f"  {'ok  ' if ok else 'FAIL'} {name:<9} {what}")
    passed = all(ok for _, _, ok in rows)
    print("self-test passed" if passed else "self-test FAILED")
    return 0 if passed else 1
