"""Tests for the update-impact analysis and maintenance certificates.

Three layers:

* unit tests over hand-written programs — cone membership, the
  counting/DRed/recompute trichotomy, the IQL701–IQL704 diagnostics, the
  renderers (text/JSON/DOT, including the zero-rule edge cases), and the
  ``repro impact`` / ``repro analyze --stats`` CLI,
* the E11/E19 acceptance shapes — every derived symbol classified, and a
  certified replay equal to a fresh evaluation,
* a differential property test over the same 220-seed corpus as
  ``test_differential``: every *certified* certificate must replay a
  random single-fact insert to the same instance as full re-evaluation
  (exactly when invention-free, up to O-isomorphism otherwise), and
  every cone containing invention/★/deletion/choose must be classified
  non-maintainable (conservativeness).
"""

import dataclasses
import json
import random

import pytest

from repro.analysis import (
    COUNTING,
    DRED,
    NOOP,
    RECOMPUTE,
    build_certificate,
    build_certificates,
    check_certificate,
    classify_cone,
    graphs_to_dot,
    impact_cone,
    impact_pass,
    impact_to_dot,
    overall_strategy,
    program_cones,
    program_graphs,
    render_impact_text,
    replay_insert,
)
from repro.datalog import datalog_to_iql, transitive_closure_program
from repro.errors import TypeCheckError
from repro.iql import Evaluator, Program
from repro.iql.literals import Equality
from repro.parser import program_from_source
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D
from repro.values import OTuple, Oid
from repro.__main__ import main

from tests.test_differential import (
    make_schema,
    random_instance,
    random_new_fact,
    random_scheduled_program,
)

E19_PROGRAM = """
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


def source_program(text):
    return program_from_source(text)


# -- cone structure -----------------------------------------------------------------


class TestImpactCone:
    def test_forward_closure_and_flags(self):
        program = source_program(
            """
            schema {
              relation E: [A1: D, A2: D];
              relation T: [A1: D, A2: D];
              relation F: [A1: D, A2: D];
            }
            var x, y, z: D
            input E
            output F
            rules {
              T(x, y) :- E(x, y).
              T(x, z) :- T(x, y), E(y, z).
              F(x, y) :- T(x, y), T(y, x).
            }
            """
        )
        cone = impact_cone(program, "E")
        assert set(cone.derived) == {"T", "F"}
        assert cone.impacts["T"].recursive
        assert not cone.impacts["F"].recursive  # F's own SCC is acyclic
        assert not cone.impacts["T"].via_negation
        assert cone.hazards == ()
        assert classify_cone(cone) == {"T": DRED, "F": COUNTING}
        assert overall_strategy(cone) == DRED
        # The slice re-runs the T stratum before the F stratum.
        written = [ref.rules for ref in cone.slice]
        assert len(written) == 2
        assert any("T(" in label.replace(" ", "") or "T([" in label for label in written[0])

    def test_negation_propagates_downstream(self):
        program = source_program(
            """
            schema { relation S: D; relation Bad: D; relation Ok: D; relation Out: D; }
            var x: D
            input S, Bad
            output Out
            rules {
              Ok(x) :- S(x), not Bad(x).
              Out(x) :- Ok(x).
            }
            """
        )
        cone = impact_cone(program, "Bad")
        assert set(cone.derived) == {"Ok", "Out"}
        assert cone.impacts["Ok"].via_negation
        assert cone.impacts["Out"].via_negation  # inherited through Ok
        assert classify_cone(cone) == {"Ok": DRED, "Out": DRED}
        # S is read positively: both symbols still flip through negation
        # of Bad only, so the S cone is negation-free.
        s_cone = impact_cone(program, "S")
        assert not s_cone.impacts["Ok"].via_negation

    def test_empty_cone_for_unread_symbol(self):
        program = source_program(
            """
            schema { relation S: D; relation Extra: D; relation Out: D; }
            var x: D
            input S, Extra
            output Out
            rules { Out(x) :- S(x). }
            """
        )
        cone = impact_cone(program, "Extra")
        assert cone.derived == ()
        assert overall_strategy(cone) == NOOP

    def test_invention_is_a_hazard(self):
        program = source_program(
            """
            schema { relation S: D; relation Holds: [A1: D, A2: P]; class P: []; }
            var x: D
            var p: P
            input S
            output Holds, P
            rules { Holds(x, p) :- S(x). }
            """
        )
        cone = impact_cone(program, "S")
        tags = {h.tag for h in cone.hazards}
        assert "invention" in tags
        assert overall_strategy(cone) == RECOMPUTE

    def test_deletion_and_choose_are_hazards(self):
        deletion = source_program(
            """
            schema { relation S: D; relation Keep: D; }
            var x: D
            input S, Keep
            output Keep
            rules { delete Keep(x) :- Keep(x), not S(x). }
            """
        )
        cone = impact_cone(deletion, "S")
        assert "deletion" in {h.tag for h in cone.hazards}
        assert overall_strategy(cone) == RECOMPUTE

        choose = source_program(
            """
            schema { relation S: [A1: D, A2: D]; relation Pick: [A1: D, A2: D]; }
            var x, y: D
            input S
            output Pick
            rules { Pick(x, y) :- S(x, y), choose. }
            """
        )
        cone = impact_cone(choose, "S")
        assert "choose" in {h.tag for h in cone.hazards}
        assert overall_strategy(cone) == RECOMPUTE

    def test_derive_into_input_is_a_hazard(self):
        program = source_program(
            """
            schema { relation S: D; relation Acc: D; }
            var x: D
            input S, Acc
            output Acc
            rules { Acc(x) :- S(x). }
            """
        )
        cone = impact_cone(program, "S")
        assert "writes-input" in {h.tag for h in cone.hazards}
        assert overall_strategy(cone) == RECOMPUTE

    def test_stage_crossing_read_is_a_hazard(self):
        # The stage-1 slice rule reads Aux, which stage 2 still grows:
        # replaying the slice against the final state would over-derive.
        program = source_program(
            """
            schema { relation S: D; relation Aux: D; relation Out: D; relation More: D; }
            var x: D
            input S, More
            output Out
            rules {
              Out(x) :- S(x), Aux(x).
              ;
              Aux(x) :- More(x).
            }
            """
        )
        cone = impact_cone(program, "S")
        assert "stage-crossing-read" in {h.tag for h in cone.hazards}
        assert overall_strategy(cone) == RECOMPUTE

    def test_class_update_seeds_extent_and_plane(self):
        program = source_program(E19_PROGRAM)
        cone = impact_cone(program, "P")
        assert set(cone.seeds) == {"P", "^P"}
        assert "weak-assignment" in {h.tag for h in cone.hazards}


# -- diagnostics (IQL701-IQL704) -----------------------------------------------------


class TestImpactDiagnostics:
    def codes(self, program):
        return [d.code for d in impact_pass(program)]

    def test_iql704_on_bounded_cone(self):
        program = datalog_to_iql(transitive_closure_program())
        diags = impact_pass(program)
        assert [d.code for d in diags] == ["IQL704"]
        assert "stage 1" in diags[0].message

    def test_iql703_on_static_symbol(self):
        program = source_program(
            """
            schema { relation S: D; relation Extra: D; relation Out: D; }
            var x: D
            input S, Extra
            output Out
            rules { Out(x) :- S(x). }
            """
        )
        diags = impact_pass(program)
        by_code = {d.code for d in diags}
        assert "IQL703" in by_code  # Extra is static
        assert "IQL704" in by_code  # S has a bounded cone

    def test_iql701_on_invention(self):
        with open("examples/divergent_invention.iql", encoding="utf-8") as handle:
            program = source_program(handle.read())
        diags = impact_pass(program)
        assert [d.code for d in diags] == ["IQL701"]
        assert diags[0].span is not None

    def test_iql702_on_delete_through_negation(self):
        program = source_program(
            """
            schema { relation S: D; relation Bad: D; relation Out: D; }
            var x: D
            input S, Bad
            output Out
            rules { Out(x) :- S(x), not Bad(x). }
            """
        )
        diags = impact_pass(program)
        codes = [d.code for d in diags]
        # Bad's cone crosses negation: the delete class needs DRed.
        assert "IQL702" in codes
        assert "IQL704" in codes
        iql702 = next(d for d in diags if d.code == "IQL702")
        assert "Bad" in iql702.message

    def test_iql701_suppresses_iql704(self):
        program = source_program(
            """
            schema { relation S: D; relation Holds: [A1: D, A2: P]; class P: []; }
            var x: D
            var p: P
            input S
            output Holds, P
            rules { Holds(x, p) :- S(x). }
            """
        )
        codes = self.codes(program)
        assert codes == ["IQL701"]


# -- certificates -------------------------------------------------------------------


class TestCertificates:
    def test_certificate_json_shape(self):
        program = datalog_to_iql(transitive_closure_program())
        certs = build_certificates(program)
        assert [(c.base, c.op) for c in certs] == [("E", "insert"), ("E", "delete")]
        doc = certs[0].to_json()
        json.dumps(doc)  # serializable
        assert doc["strategy"] == DRED
        assert doc["certified"] is True
        assert doc["classification"] == {"T": DRED}
        assert doc["slice"], "certified certificate must carry its slice"
        assert doc["delta_rules"], "slice rules must carry delta summaries"
        delta_positions = [r["delta_positions"] for r in doc["delta_rules"]]
        assert all(p is not None for p in delta_positions)

    def test_check_certificate_accepts_sound_and_flags_tampered(self):
        program = source_program(
            """
            schema { relation S: D; relation Holds: [A1: D, A2: P]; class P: []; }
            var x: D
            var p: P
            input S
            output Holds, P
            rules { Holds(x, p) :- S(x). }
            """
        )
        (cert,) = build_certificates(program, ops=("insert",))
        assert cert.strategy == RECOMPUTE
        assert check_certificate(program, cert) == []
        # Tampering the strategy to "counting" must be caught: the cone
        # carries an invention hazard.
        forged = dataclasses.replace(cert, strategy=COUNTING)
        violations = check_certificate(program, forged)
        assert any("hazard" in v for v in violations)
        assert any("invention" in v for v in violations)

    def test_replay_rejects_uncertified_and_wrong_op(self):
        program = source_program(
            """
            schema { relation S: D; relation Holds: [A1: D, A2: P]; class P: []; }
            var x: D
            var p: P
            input S
            output Holds, P
            rules { Holds(x, p) :- S(x). }
            """
        )
        cone = impact_cone(program, "S")
        insert_cert = build_certificate(program, cone, "insert")
        delete_cert = build_certificate(program, cone, "delete")
        instance = Instance(program.input_schema, relations={"S": ["a"]})
        full = Evaluator(program).run(instance).full
        with pytest.raises(ValueError, match="not certified"):
            replay_insert(program, full, insert_cert, "b")
        tc = datalog_to_iql(transitive_closure_program())
        tc_cone = impact_cone(tc, "E")
        tc_delete = build_certificate(tc, tc_cone, "delete")
        tc_full = Evaluator(tc).run(
            Instance(tc.input_schema, relations={"E": [OTuple(A01="a", A02="b")]})
        ).full
        with pytest.raises(ValueError, match="delete"):
            replay_insert(tc, tc_full, tc_delete, OTuple(A01="b", A02="c"))

    def test_noop_replay_only_adds_the_fact(self):
        program = source_program(
            """
            schema { relation S: D; relation Extra: D; relation Out: D; }
            var x: D
            input S, Extra
            output Out
            rules { Out(x) :- S(x). }
            """
        )
        cone = impact_cone(program, "Extra")
        cert = build_certificate(program, cone, "insert")
        assert cert.strategy == NOOP
        instance = Instance(program.input_schema, relations={"S": ["a"], "Extra": []})
        full = Evaluator(program).run(instance).full
        maintained = replay_insert(program, full, cert, "z")
        assert maintained.relations["Extra"] == {"z"}
        assert maintained.relations["Out"] == {"a"}


# -- the E11 / E19 acceptance shapes -------------------------------------------------


class TestAcceptanceShapes:
    def test_e11_every_derived_symbol_classified(self):
        program = datalog_to_iql(transitive_closure_program())
        (cone,) = program_cones(program)
        strategies = classify_cone(cone)
        assert set(strategies) == set(cone.derived) == {"T"}
        assert strategies["T"] == DRED

    def test_e11_replay_matches_full_evaluation(self):
        program = datalog_to_iql(transitive_closure_program())
        edges = [OTuple(A01=f"n{i}", A02=f"n{i+1}") for i in range(6)]
        instance = Instance(program.input_schema, relations={"E": edges})
        full = Evaluator(program).run(instance).full
        cert = build_certificate(program, impact_cone(program, "E"), "insert")
        assert check_certificate(program, cert) == []
        new_edge = OTuple(A01="n6", A02="n0")  # closes the cycle
        maintained = replay_insert(program, full, cert, new_edge)
        fresh_input = instance.copy()
        fresh_input.add_relation_member("E", new_edge)
        fresh = Evaluator(program).run(fresh_input).full
        assert maintained.ground_facts() == fresh.ground_facts()

    def test_e19_every_derived_symbol_classified(self):
        program = source_program(E19_PROGRAM)
        cones = {cone.base: cone for cone in program_cones(program)}
        assert set(cones) == {"E", "Seed", "P"}
        assert classify_cone(cones["E"]) == {"T": DRED, "F": COUNTING}
        assert classify_cone(cones["Seed"]) == {"^P": RECOMPUTE}
        assert classify_cone(cones["P"]) == {"^P": RECOMPUTE}
        # Every update class certificate carries a strategy.
        for cert in build_certificates(program):
            assert cert.strategy in (COUNTING, DRED, RECOMPUTE, NOOP)
            assert check_certificate(program, cert) == []

    def test_e19_replay_matches_full_evaluation(self):
        program = source_program(E19_PROGRAM)
        oids = [Oid() for _ in range(3)]
        instance = Instance(
            program.input_schema,
            relations={
                "E": [
                    OTuple(A1="a", A2="b"),
                    OTuple(A1="b", A2="c"),
                    OTuple(A1="c", A2="a"),
                ],
                "Seed": [OTuple(A1=o) for o in oids],
            },
            classes={"P": oids},
        )
        full = Evaluator(program).run(instance).full
        cert = build_certificate(program, impact_cone(program, "E"), "insert")
        assert cert.strategy == DRED
        assert check_certificate(program, cert) == []
        new_edge = OTuple(A1="c", A2="d")
        maintained = replay_insert(program, full, cert, new_edge)
        fresh_input = instance.copy()
        fresh_input.add_relation_member("E", new_edge)
        fresh = Evaluator(program).run(fresh_input).full
        assert maintained.ground_facts() == fresh.ground_facts()


# -- renderers and edge cases -------------------------------------------------------


def assert_valid_dot(text):
    """A structural validity check: one digraph, balanced braces, and
    every statement line inside it brace-, arrow- or attribute-shaped."""
    lines = text.splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    depth = 0
    for line in lines:
        depth += line.count("{") - line.count("}")
        assert depth >= 0, f"unbalanced braces at {line!r}"
        stripped = line.strip()
        if not stripped or stripped in ("{", "}"):
            continue
        assert (
            stripped.endswith("{") or stripped.endswith(";") or stripped == "}"
        ), f"unterminated DOT statement: {line!r}"
    assert depth == 0, "unbalanced braces"


class TestRenderers:
    def test_zero_rule_program_is_constructible(self):
        schema = Schema(relations={"R": D})
        program = Program(schema, rules=(), input_names=["R"], output_names=["R"])
        assert program.stages == ()
        # A present-but-empty stage is still a construction bug.
        with pytest.raises(TypeCheckError):
            Program(schema, stages=[[]])

    def test_zero_rule_program_dot_is_valid(self):
        schema = Schema(relations={"R": D})
        program = Program(schema, rules=(), input_names=["R"], output_names=["R"])
        graphs = program_graphs(program)
        assert graphs == []
        assert_valid_dot(graphs_to_dot(graphs))
        assert_valid_dot(impact_to_dot(program_cones(program), graphs))

    def test_zero_rule_program_evaluates_as_identity(self):
        schema = Schema(relations={"R": D})
        program = Program(schema, rules=(), input_names=["R"], output_names=["R"])
        out = Evaluator(program).run(
            Instance(program.input_schema, relations={"R": ["a"]})
        ).output
        assert out.relations["R"] == {"a"}

    def test_zero_rule_program_impact(self):
        schema = Schema(relations={"R": D})
        program = Program(schema, rules=(), input_names=["R"], output_names=["R"])
        diags = impact_pass(program)
        assert [d.code for d in diags] == ["IQL703"]

    def test_example_dot_outputs_are_valid(self, capsys):
        for name in ("transitive_closure", "divergent_invention", "graph_objects"):
            assert main(["analyze", f"examples/{name}.iql", "--format", "dot"]) == 0
            assert_valid_dot(capsys.readouterr().out)
            assert main(["impact", f"examples/{name}.iql", "--format", "dot"]) == 0
            assert_valid_dot(capsys.readouterr().out)

    def test_render_impact_text_mentions_every_base(self):
        program = source_program(E19_PROGRAM)
        text = render_impact_text(program_cones(program))
        for base in ("E", "Seed", "P"):
            assert f"update {base} " in text
        assert "counting" in text and "dred" in text and "recompute" in text


# -- the CLI ------------------------------------------------------------------------


class TestImpactCli:
    def test_text_output(self, capsys):
        assert main(["impact", "examples/transitive_closure.iql"]) == 0
        out = capsys.readouterr().out
        assert "update E" in out
        assert "IQL704" in out

    def test_json_output(self, capsys):
        assert main(["impact", "examples/transitive_closure.iql", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {c["op"] for c in doc["certificates"]} == {"insert", "delete"}
        assert doc["certificates"][0]["base"] == "E"
        assert [d["code"] for d in doc["diagnostics"]] == ["IQL704"]

    def test_symbol_and_op_filters(self, capsys):
        assert main(
            [
                "impact",
                "examples/transitive_closure.iql",
                "--symbol",
                "E",
                "--op",
                "insert",
                "--format",
                "json",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(c["base"], c["op"]) for c in doc["certificates"]] == [("E", "insert")]

    def test_unknown_symbol_is_an_error(self, capsys):
        assert main(["impact", "examples/transitive_closure.iql", "--symbol", "Nope"]) == 2
        assert "not an input symbol" in capsys.readouterr().err

    def test_analyze_stats_prints_timings(self, capsys):
        assert main(["analyze", "examples/transitive_closure.iql", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "analysis timings:" in err
        for name in ("lint", "effects", "depgraph", "impact"):
            assert name in err

    def test_analyze_json_carries_impact_section(self, capsys):
        assert main(
            ["analyze", "examples/transitive_closure.iql", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in doc["impact"]["diagnostics"]] == ["IQL704"]
        assert doc["impact"]["cones"][0]["base"] == "E"
        assert set(doc["timings_ms"]) == {"lint", "effects", "depgraph", "impact"}


# -- certificate soundness over the differential corpus ------------------------------
#
# The same 220-seed program/instance generator as test_differential
# (including the two-stage and IQL601-unstratified variants). For every
# updatable base symbol:
#
# * conservativeness — a cone whose slice contains an inventing,
#   deleting, choosing, or ★ rule must NOT be certified,
# * soundness — every certificate must pass check_certificate, and every
#   *certified* insert must replay to the same instance as a fresh full
#   evaluation (exact when the program is invention-free, up to
#   O-isomorphism otherwise).


def run_certificate_soundness(seed):
    rng = random.Random(seed)
    schema = make_schema()
    allow_invention = seed % 5 == 0
    unstratified = seed % 4 == 1
    program = random_scheduled_program(schema, rng, allow_invention, unstratified)
    instance = random_instance(schema, rng)
    invention_free = all(rule.is_invention_free() for rule in program.rules)
    full = Evaluator(program).run(instance.copy()).full

    for cert in build_certificates(program):
        assert check_certificate(program, cert) == [], (
            f"seed {seed}: unsound certificate for ({cert.base}, {cert.op})"
        )
        slice_rules = [
            rule for stratum in cert.cone.slice_rules for rule in stratum
        ]
        hazardous = any(
            not rule.is_invention_free()
            or rule.delete
            or rule.has_choose()
            or isinstance(rule.head, Equality)
            for rule in slice_rules
        )
        if hazardous:
            assert not cert.certified or cert.strategy == NOOP, (
                f"seed {seed}: certified a cone with hazardous rules "
                f"({cert.base}, {cert.op}, {cert.strategy})"
            )
        if cert.op != "insert" or not cert.certified:
            continue
        fact = random_new_fact(cert.base, rng)
        maintained = replay_insert(program, full, cert, fact)
        fresh_input = instance.copy()
        fresh_input.add_relation_member(cert.base, fact)
        fresh = Evaluator(program).run(fresh_input.copy()).full
        if invention_free:
            assert maintained.ground_facts() == fresh.ground_facts(), (
                f"seed {seed}: replay diverges for ({cert.base}, insert, "
                f"{cert.strategy})"
            )
        else:
            assert are_o_isomorphic(maintained, fresh), (
                f"seed {seed}: replay not O-isomorphic for ({cert.base}, "
                f"insert, {cert.strategy})"
            )


@pytest.mark.parametrize("seed", range(220))
def test_certificate_soundness(seed):
    run_certificate_soundness(seed)
