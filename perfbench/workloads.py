"""Workload inputs and the engine-independent checks of their outputs.

Every workload hands the program one JSON instance document, built here
from a seeded graph, and nothing else. A graph's *shape* comes from
``repro.workloads.random_graph`` with a fixed generator seed; the run's
``--seed`` renames its nodes and drives the update stream. The closure of
a random sparse digraph varies by 6-18% in size between generator seeds,
which alone would move the timings by more than the benchmark's bounds, so
the shape is held fixed and only the names and the updates vary.

The checks never look at the engine's internals or at oid names: ``tc``
and ``maintain`` compare against a closure computed here, ``invent`` is
checked structurally (invented oids are meaningful only up to renaming).
Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import Instance, Oid, OTuple, io
from repro.workloads import node_name, random_graph

Edge = Tuple[str, str]


#: The E19 program: transitive closure, the mutual-reachability filter F
#: and a weak-assignment (star) initialisation of seeded objects.
MAINTAIN_PROGRAM = """
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


@dataclass(frozen=True)
class Workload:
    name: str
    #: Program file under the checkout root, or None for MAINTAIN_PROGRAM.
    program_file: Optional[str]
    #: The base relation holding the graph's edges.
    edge_relation: str
    #: (nodes, average out-degree) of the graph ``repro run`` evaluates.
    run_graph: Tuple[int, float]
    #: (nodes, average out-degree) of the graph the update stream maintains.
    stream_graph: Tuple[int, float]
    #: Seeded objects (maintain's P class and Seed relation).
    objects: int = 0
    #: Generator seed of the graph shape (see the module docstring).
    shape_seed: int = 1

    def graph(self, shape: Tuple[int, float], seed: int) -> Set[Edge]:
        """The fixed-shape random digraph with node names permuted by ``seed``."""
        nodes, degree = shape
        names = [node_name(i) for i in range(nodes)]
        renamed = names[:]
        random.Random(seed).shuffle(renamed)
        rename = dict(zip(names, renamed))
        edges = random_graph(nodes, degree, seed=self.shape_seed)
        return {(rename[a], rename[b]) for a, b in edges}

    def program_text(self, root: Path) -> str:
        if self.program_file is None:
            return MAINTAIN_PROGRAM
        return (root / self.program_file).read_text(encoding="utf-8")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tc", "examples/transitive_closure.iql", "E", (300, 1.5), (300, 0.9)),
        Workload("invent", "examples/graph_objects.iql", "R", (1000, 2.0), (100, 2.0)),
        # Shape 6 has mutual pairs, so the filter F is not empty.
        Workload("maintain", None, "E", (600, 0.9), (600, 0.9), objects=8, shape_seed=6),
    )
}


# -- inputs ----------------------------------------------------------------------------


def input_document(program, workload: Workload, edges: Iterable[Edge]) -> str:
    """The JSON instance document over the program's input schema."""
    instance = Instance(program.input_schema)
    for a, b in edges:
        instance.add_relation_member(workload.edge_relation, OTuple(A1=a, A2=b))
    for k in range(workload.objects):
        oid = Oid(f"p{k}")
        instance.add_class_member("P", oid)
        instance.add_relation_member("Seed", OTuple(A1=oid))
    return io.dumps(instance)


# -- reference results --------------------------------------------------------------


def successors(edges: Iterable[Edge]) -> Dict[str, Set[str]]:
    succ: Dict[str, Set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    return succ


def closure(edges: Iterable[Edge]) -> Set[Edge]:
    """Transitive closure by one graph search per source node."""
    succ = successors(edges)
    pairs: Set[Edge] = set()
    for source in succ:
        seen: Set[str] = set()
        stack = list(succ[source])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        pairs.update((source, node) for node in seen)
    return pairs


def _compare(label: str, got: Set[Edge], want: Set[Edge]) -> List[str]:
    if got == want:
        return []
    missing, extra = want - got, got - want
    return [
        f"{label}: {len(missing)} missing (e.g. {sorted(missing)[:2]}), "
        f"{len(extra)} unexpected (e.g. {sorted(extra)[:2]})"
    ]


def _doc_pairs(doc: dict, relation: str) -> Tuple[Set[Edge], int]:
    members = doc["relations"].get(relation, [])
    return {(m["tuple"]["A1"], m["tuple"]["A2"]) for m in members}, len(members)


def _instance_pairs(instance: Instance, relation: str) -> Set[Edge]:
    return {(v["A1"], v["A2"]) for v in instance.relations[relation]}


# -- checks of the `repro run` output document --------------------------------------


def check_closure_doc(doc: dict, edges: Set[Edge], relation: str) -> List[str]:
    pairs, listed = _doc_pairs(doc, relation)
    problems = _compare(relation, pairs, closure(edges))
    if listed != len(pairs):
        problems.append(f"{relation}: {listed - len(pairs)} duplicate members")
    return problems


def check_maintain_doc(doc: dict, edges: Set[Edge], objects: int) -> List[str]:
    want_t = closure(edges)
    t_pairs, _ = _doc_pairs(doc, "T")
    f_pairs, _ = _doc_pairs(doc, "F")
    problems = _compare("T", t_pairs, want_t)
    problems += _compare("F", f_pairs, {(a, b) for a, b in want_t if (b, a) in want_t})
    seeded = doc["classes"].get("P", [])
    if len(seeded) != objects:
        problems.append(f"P: {len(seeded)} objects, expected {objects}")
    problems += [f"nu({p}) is not []" for p in seeded if doc["nu"].get(p) != {"tuple": {}}]
    return problems


def check_invent_doc(doc: dict, edges: Set[Edge]) -> List[str]:
    """One P object per node, ν(p) = [A1: x, A2: the P objects of x's successors]."""
    nodes = {v for e in edges for v in e}
    succ = successors(edges)
    objects = doc["classes"].get("P", [])
    by_node: Dict[str, str] = {}
    problems: List[str] = []
    for p in objects:
        value = doc["nu"].get(p, {}).get("tuple", {})
        node = value.get("A1")
        if node in by_node:
            problems.append(f"P: two objects for node {node!r}")
        by_node[node] = p
    if set(by_node) != nodes:
        problems.append(f"P: objects for {len(by_node)} nodes, expected {len(nodes)}")
        return problems
    for node, p in by_node.items():
        members = doc["nu"][p]["tuple"].get("A2", {}).get("set", [])
        got = {m.get("oid") for m in members}
        want = {by_node[s] for s in succ.get(node, ())}
        if got != want or len(members) != len(want):
            problems.append(f"nu(P of {node!r}).A2 has {len(got)} objects, expected {len(want)}")
    return problems


def check_invent_instance(instance: Instance, edges: Set[Edge]) -> List[str]:
    """The structural invention check on a full instance (P and P_aux)."""
    nodes = {v for e in edges for v in e}
    succ = successors(edges)
    problems: List[str] = []
    p_objects = instance.classes.get("P", set())
    aux_objects = instance.classes.get("P_aux", set())
    by_node: Dict[str, Oid] = {}
    for p in p_objects:
        value = instance.value_of(p)
        if value is None or value["A1"] in by_node:
            problems.append("P: an object without a value or a second object for a node")
            continue
        by_node[value["A1"]] = p
    if set(by_node) != nodes or len(aux_objects) != len(nodes):
        problems.append(
            f"{len(by_node)} P and {len(aux_objects)} P_aux objects for {len(nodes)} nodes"
        )
        return problems
    for x, p, pp in (
        (v["A1"], v["A2"], v["A3"]) for v in instance.relations.get("R_prime", ())
    ):
        want = {by_node[s] for s in succ.get(x, ())}
        if by_node.get(x) is not p or set(instance.value_of(pp) or ()) != want:
            problems.append(f"nu(P_aux of {x!r}) is not the P objects of its successors")
        elif instance.value_of(p)["A2"] != instance.value_of(pp):
            problems.append(f"nu(P of {x!r}).A2 differs from nu(P_aux of {x!r})")
    return problems


# -- checks of a maintained instance -------------------------------------------------


def check_closure_instance(instance: Instance, edges: Set[Edge], relation: str) -> List[str]:
    return _compare(relation, _instance_pairs(instance, relation), closure(edges))


def check_maintain_instance(instance: Instance, edges: Set[Edge]) -> List[str]:
    want_t = closure(edges)
    problems = _compare("T", _instance_pairs(instance, "T"), want_t)
    want_f = {(a, b) for a, b in want_t if (b, a) in want_t}
    problems += _compare("F", _instance_pairs(instance, "F"), want_f)
    seeded = {v["A1"] for v in instance.relations["Seed"]}
    problems += [f"nu({p!r}) is not []" for p in seeded if instance.value_of(p) != OTuple()]
    return problems


def check_output(workload: Workload, text: str, edges: Set[Edge]) -> List[str]:
    """Check the ``repro run`` output document of a workload."""
    doc = json.loads(text)
    if workload.name == "tc":
        return check_closure_doc(doc, edges, "TC")
    if workload.name == "invent":
        return check_invent_doc(doc, edges)
    return check_maintain_doc(doc, edges, workload.objects)


def check_full(workload: Workload, instance: Instance, edges: Set[Edge]) -> List[str]:
    """Check a full instance: a run's result or a maintained fixpoint."""
    if workload.name == "tc":
        return check_closure_instance(instance, edges, "TC")
    if workload.name == "invent":
        return check_invent_instance(instance, edges)
    return check_maintain_instance(instance, edges)


def invented_oids_expected(workload: Workload, edges: Set[Edge]) -> int:
    """One P and one P_aux object per node for ``invent``, none otherwise."""
    if workload.name != "invent":
        return 0
    return 2 * len({v for e in edges for v in e})
