"""Tests for JSON serialization (repro.io) and the CLI (python -m repro)."""

import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import io
from repro.errors import OValueError, SchemaError
from repro.schema import Instance, Schema, are_o_isomorphic
from repro.typesys import D, classref, set_of, tuple_of, union
from repro.values import Oid, OSet, OTuple
from repro.values.ovalues import sort_key
from repro.workloads import genesis_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent


def instance_to_dict(instance: Instance) -> dict:
    """The oracle: an instance document as a dict tree, built value by
    value with :func:`repro.io.value_to_json`. ``io.dumps`` must write
    exactly ``json.dumps(instance_to_dict(i), indent=2, ensure_ascii=False)``."""
    oid_names = io._oid_names(instance.objects())
    return {
        "schema": {
            "relations": {
                name: io._render_type(t) for name, t in sorted(instance.schema.relations.items())
            },
            "classes": {
                name: io._render_type(t) for name, t in sorted(instance.schema.classes.items())
            },
        },
        "relations": {
            name: [io.value_to_json(v, oid_names) for v in sorted(members, key=sort_key)]
            for name, members in sorted(instance.relations.items())
        },
        "classes": {
            name: sorted(oid_names[o] for o in oids)
            for name, oids in sorted(instance.classes.items())
        },
        "nu": {
            oid_names[o]: io.value_to_json(v, oid_names)
            for o, v in sorted(instance.nu.items(), key=lambda kv: kv[0].serial)
        },
    }


def oracle_text(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2, ensure_ascii=False)


class TestValueCodec:
    def test_scalars_pass_through(self):
        assert io.value_to_json("x", {}) == "x"
        assert io.value_from_json(42, {}) == 42

    def test_composites(self):
        o = Oid("obj")
        names = {o: "obj"}
        v = OTuple(a=OSet(["x", o]), b=1)
        doc = io.value_to_json(v, names)
        # canonical set order: constants before oids (sort_key kinds)
        assert doc == {"tuple": {"a": {"set": ["x", {"oid": "obj"}]}, "b": 1}}
        back = io.value_from_json(doc, {"obj": o})
        assert back == v

    def test_undeclared_oid_rejected(self):
        with pytest.raises(OValueError):
            io.value_from_json({"oid": "ghost"}, {})

    def test_junk_rejected(self):
        with pytest.raises(OValueError):
            io.value_from_json({"weird": 1}, {})


class TestInstanceRoundTrip:
    def test_relational(self):
        schema = Schema(relations={"R": tuple_of(A1=D, A2=D)})
        instance = Instance(
            schema, relations={"R": [OTuple(A1="a", A2="b")]}
        )
        loaded = io.loads(io.dumps(instance))
        assert loaded == instance

    def test_genesis_round_trip_up_to_renaming(self):
        instance, _ = genesis_instance()
        loaded = io.loads(io.dumps(instance))
        loaded.validate()
        assert are_o_isomorphic(instance, loaded)

    def test_cyclic_values(self):
        schema = Schema(classes={"P": tuple_of(peer=classref("P"))})
        a, b = Oid("a"), Oid("b")
        instance = Instance(
            schema,
            classes={"P": [a, b]},
            nu={a: OTuple(peer=b), b: OTuple(peer=a)},
        )
        loaded = io.loads(io.dumps(instance))
        assert are_o_isomorphic(instance, loaded)

    def test_union_types_render(self):
        schema = Schema(relations={"R": union(D, tuple_of(s=D))})
        instance = Instance(schema, relations={"R": ["x", OTuple(s="y")]})
        loaded = io.loads(io.dumps(instance))
        assert loaded == instance

    def test_duplicate_display_names_disambiguated(self):
        schema = Schema(classes={"P": tuple_of()})
        instance = Instance(schema, classes={"P": [Oid("twin"), Oid("twin")]})
        doc = json.loads(io.dumps(instance))
        assert len(set(doc["classes"]["P"])) == 2

    def test_missing_schema_rejected(self):
        with pytest.raises(SchemaError):
            io.loads("{}")

    def test_nu_for_undeclared_oid_rejected(self):
        doc = {
            "schema": {"relations": {}, "classes": {"P": "[]"}},
            "classes": {"P": []},
            "nu": {"ghost": {"tuple": {}}},
            "relations": {},
        }
        with pytest.raises(SchemaError):
            io.instance_from_dict(doc)


class TestCli:
    PROGRAM = """
    schema {
      relation E: [A1: D, A2: D];
      relation T: [A1: D, A2: D];
    }
    input E
    output T
    rules {
      T(x, y) :- E(x, y).
      T(x, z) :- T(x, y), E(y, z).
    }
    """

    @pytest.fixture
    def files(self, tmp_path):
        program = tmp_path / "tc.iql"
        program.write_text(self.PROGRAM)
        schema = Schema(relations={"E": tuple_of(A1=D, A2=D)})
        instance = Instance(
            schema,
            relations={"E": [OTuple(A1="a", A2="b"), OTuple(A1="b", A2="c")]},
        )
        data = tmp_path / "in.json"
        data.write_text(io.dumps(instance))
        return program, data, tmp_path

    def test_check(self, files, capsys):
        from repro.__main__ import main

        program, _, _ = files
        assert main(["check", str(program)]) == 0
        out = capsys.readouterr().out
        assert "IQLrr" in out

    def test_run(self, files, capsys):
        from repro.__main__ import main

        program, data, tmp = files
        out_path = tmp / "out.json"
        assert main(["run", str(program), "--input", str(data), "--output", str(out_path)]) == 0
        result = io.load(str(out_path))
        assert len(result.relations["T"]) == 3

    def test_run_rejects_ill_typed_program(self, files, capsys, tmp_path):
        from repro.__main__ import main

        bad = tmp_path / "bad.iql"
        bad.write_text(
            """
            schema { relation S: D; relation Q: {D}; }
            var x: {D}
            input S
            output S
            rules { S(x) :- Q(x). }
            """
        )
        _, data, _ = files
        assert main(["run", str(bad), "--input", str(data)]) == 1

    def test_validate(self, files, capsys):
        from repro.__main__ import main

        _, data, _ = files
        assert main(["validate", str(data)]) == 0
        assert "legal instance" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        from repro.__main__ import main

        assert main(["check", "/nonexistent.iql"]) == 1


# -- the document writer is byte-identical to the dict-tree oracle ----------------------

#: Strings that stress escaping: empty, non-ASCII, control characters,
#: quotes, backslashes and the JSON-legal line separators.
TEXTS = [
    "", "a", "A1", "n0", "é", "日本語", "😀",
    "\x00", "\x1f", "\n\t", '"', "\\", "\u2028", "\x7f",
]
ATTRS = ["A1", "A2", "b", "é", 'k"ey']
OID_NAMES = ["twin", "twin", "", "adam", 'q"uote', "ü"]

constants = st.one_of(
    st.sampled_from(TEXTS),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.sampled_from([1, True, 1.0, 0, False, -0.0]),
)
flat_tuples = st.dictionaries(st.sampled_from(ATTRS), constants, min_size=1, max_size=3).map(OTuple)


def ovalues(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.dictionaries(st.sampled_from(ATTRS), children, max_size=3).map(OTuple),
            st.lists(children, max_size=4).map(OSet),
        ),
        max_leaves=8,
    )


#: Relation types, rendered into the schema section (union-typed ones too).
TYPES = [
    D,
    tuple_of(A1=D, A2=D),
    union(D, tuple_of(s=D)),
    set_of(classref("P")),
    union(classref("P"), classref("Q"), set_of(D)),
]


@st.composite
def instances(draw):
    oids = [Oid(name) for name in draw(st.lists(st.sampled_from(OID_NAMES), max_size=6))]
    leaves = st.one_of(constants, st.sampled_from(oids)) if oids else constants
    values = ovalues(leaves)
    types = draw(st.lists(st.sampled_from(TYPES), max_size=4))
    schema = Schema(
        relations={f"R{i}": t for i, t in enumerate(types)},
        classes={"P": tuple_of(peer=classref("P")), "Q": set_of(D)},
    )
    relations = {
        name: draw(st.lists(draw(st.sampled_from([flat_tuples, values])), max_size=6))
        for name in schema.relations
    }
    classes: dict = {"P": [], "Q": []}
    for oid in oids:
        home = draw(st.sampled_from(["P", "Q", None]))
        if home is not None:
            classes[home].append(oid)
    members = classes["P"] + classes["Q"]
    nu = {oid: draw(values) for oid in members if draw(st.booleans())}
    return Instance(schema, relations=relations, classes=classes, nu=nu)


def cyclic_instance() -> Instance:
    schema = Schema(classes={"P": tuple_of(peer=classref("P"))})
    a, b = Oid("a"), Oid("b")
    return Instance(
        schema, classes={"P": [a, b]}, nu={a: OTuple(peer=b), b: OTuple(peer=a)}
    )


def chain(depth: int, leaf: str = "leaf"):
    """An alternating OTuple/OSet value of the given depth."""
    value = leaf
    for level in range(depth):
        value = OTuple(a=value) if level % 2 == 0 else OSet([value])
    return value


class TestWriterMatchesOracle:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_generated_instances(self, instance):
        assert io.dumps(instance) == oracle_text(instance)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Instance(Schema()),
            lambda: Instance(Schema(relations={"R": D}, classes={"P": set_of(D)})),
            cyclic_instance,
            lambda: genesis_instance()[0],
            # 1, True and 1.0 are one element of D; the first one kept is written.
            lambda: Instance(
                Schema(relations={"R": union(D, set_of(D))}),
                relations={"R": [1, True, 1.0, OSet([True, 1, 1.0]), OSet([1.0, "1"])]},
            ),
            lambda: Instance(
                Schema(classes={"P": set_of(classref("P"))}),
                classes={"P": [Oid("twin"), Oid("twin"), Oid("")]},
            ),
        ],
        ids=["empty", "empty-extents", "cyclic-nu", "genesis", "one-true-one-point-oh", "twins"],
    )
    def test_fixed_instances(self, build):
        instance = build()
        assert io.dumps(instance) == oracle_text(instance)

    def test_golden_transitive_closure_output(self, capsys):
        """``repro run`` on the shipped example writes the committed bytes."""
        from repro.__main__ import main

        program = ROOT / "examples" / "transitive_closure.iql"
        data = ROOT / "examples" / "path_graph.json"
        assert main(["run", str(program), "--input", str(data)]) == 0
        golden = (ROOT / "tests" / "data" / "tc_path_graph.out.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden


class TestDeepValues:
    @given(depth=st.integers(1, 3000))
    @example(depth=io.MAX_DEPTH)
    @example(depth=io.MAX_DEPTH + 1)
    @example(depth=3000)
    @settings(max_examples=40, deadline=None)
    def test_write_or_refuse_by_the_depth_limit(self, depth):
        schema = Schema(relations={"R": D}, classes={"P": D})
        holder = Oid("holder")
        instance = Instance(
            schema,
            # Two deep values that differ only at the leaf: ordering them
            # compares their sort keys all the way down.
            relations={"R": [chain(depth, "p"), chain(depth, "q"), "c"]},
            classes={"P": [holder]},
            nu={holder: chain(depth, "r")},
        )
        if depth <= io.MAX_DEPTH:
            assert io.dumps(instance) == oracle_text(instance)
        else:
            with pytest.raises(OValueError) as refused:
                io.dumps(instance)
            message = str(refused.value)
            assert "\n" not in message
            assert f"depth {depth}" in message and "MAX_DEPTH" in message
