"""Tests for evaluation tracing (derivation logs)."""


from repro.iql import ReferenceEvaluator
from repro.transform import graph_instance, graph_to_class_program
from repro.schema import Instance, Schema
from repro.iql import Program, Rule, Var, atom, columns, Equality, TupleTerm, typecheck_program
from repro.typesys import D, classref, tuple_of
from repro.values import Oid, OTuple


class TestTrace:
    def test_disabled_by_default(self):
        evaluator = ReferenceEvaluator(graph_to_class_program())
        result = evaluator.run(graph_instance({("a", "b")}))
        assert result.trace is None

    def test_events_cover_facts_and_inventions(self):
        evaluator = ReferenceEvaluator(graph_to_class_program(), trace=True)
        result = evaluator.run(graph_instance({("a", "b")}))
        kinds = {e.kind for e in result.trace}
        assert {"fact", "invent", "assign"} <= kinds
        invented = [e for e in result.trace if e.kind == "invent"]
        assert len(invented) == result.stats.oids_invented

    def test_rule_labels_appear(self):
        evaluator = ReferenceEvaluator(graph_to_class_program(), trace=True)
        result = evaluator.run(graph_instance({("a", "b")}))
        labels = {e.rule for e in result.trace}
        assert "invent" in labels and "(★)" in labels

    def test_star_conflicts_are_traced(self):
        schema = Schema(
            relations={"Seed": columns(D, classref("P")), "V": D},
            classes={"P": tuple_of(val=D)},
        )
        p = Var("p", classref("P"))
        v = Var("v", D)
        program = typecheck_program(
            Program(
                schema,
                rules=[
                    Rule(
                        Equality(p.hat(), TupleTerm(val=v)),
                        [atom(schema, "Seed", Var("x", D), p), atom(schema, "V", v)],
                    )
                ],
                input_names=["Seed", "P", "V"],
                output_names=["P"],
            )
        )
        o = Oid()
        inst = Instance(schema.project(["Seed", "P", "V"]))
        inst.add_class_member("P", o)
        inst.add_relation_member("Seed", OTuple(A01="k", A02=o))
        inst.add_relation_member("V", "v1")
        inst.add_relation_member("V", "v2")
        result = ReferenceEvaluator(program, trace=True).run(inst)
        conflicts = [e for e in result.trace if e.kind == "ignore"]
        assert conflicts and "conflicting" in conflicts[0].detail

    def test_repr_is_readable(self):
        evaluator = ReferenceEvaluator(graph_to_class_program(), trace=True)
        result = evaluator.run(graph_instance({("a", "b")}))
        line = repr(result.trace[0])
        assert line.startswith("[step ")
