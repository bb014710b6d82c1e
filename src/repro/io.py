"""JSON (de)serialization of schemas and instances.

O-values are structural but contain oids, which JSON has no native notion
of; the wire format tags every non-scalar:

* constants — JSON scalars (strings, numbers, booleans),
* oids — ``{"oid": "<name>"}`` where the name is unique within the
  document (display names are preserved when unique, synthesized
  otherwise),
* tuples — ``{"tuple": {attr: value, ...}}``,
* sets — ``{"set": [value, ...]}``.

An instance document carries the schema (types rendered in the surface
syntax of :mod:`repro.parser`), the class extents, ν, and the relations::

    {
      "schema": {"relations": {"R": "[A1: D, A2: D]"}, "classes": {...}},
      "relations": {"R": [ ... o-values ... ]},
      "classes": {"P": ["o1", "o2"]},
      "nu": {"o1": ... o-value ...}
    }

The document is canonical: relations, classes and ν keys in name order,
relation members and set elements in :func:`~repro.values.ovalues.sort_key`
order, class extents in wire-name order, ν in oid creation order.
:func:`dumps` writes it straight from the interned o-values, and its
text is byte-for-byte ``json.dumps(doc, indent=2, ensure_ascii=False)``
of the dict tree that :func:`value_to_json` builds value by value (the
tests keep that dict tree as the oracle). It does not build the tree:
with an ``indent``, :mod:`json` cannot use its C encoder and walks the
tree in Python, which cost more than the tree itself. Values deeper than
:data:`MAX_DEPTH` are refused with an :class:`~repro.errors.OValueError`.

Round-trip: ``loads(dumps(instance))`` is equal to the instance up to
renaming of oids (fresh :class:`~repro.values.Oid` objects are minted on
load — oid identity is process-local, exactly as the model prescribes).
"""

from __future__ import annotations

import json
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import OValueError, SchemaError
from repro.parser.grammar import type_from_source
from repro.schema.instance import Instance
from repro.schema.schema import Schema
from repro.typesys.expressions import TypeExpr
from repro.values.ovalues import (
    CONSTANT_TYPES,
    Oid,
    OSet,
    OTuple,
    OValue,
    _oid_from_wire,
    _OID_REGISTRY,
    _OID_REGISTRY_LOCK,
    is_constant,
    oids_of,
    sort_key,
    sorted_elements,
    value_depth,
)


def _render_type(t: TypeExpr) -> str:
    """Types render through repr, which matches the surface syntax up to
    the ∨/∧ glyphs; translate those to | and &."""
    return repr(t).replace("∨", "|").replace("∧", "&").replace("⊥", "none")


def value_to_json(value: OValue, oid_names: Dict[Oid, str]):
    """One o-value as a JSON-ready dict tree (``repro maintain`` queries)."""
    if isinstance(value, Oid):
        return {"oid": oid_names[value]}
    if isinstance(value, OTuple):
        return {"tuple": {attr: value_to_json(v, oid_names) for attr, v in value.items()}}
    if isinstance(value, OSet):
        ordered = sorted(value, key=sort_key)
        return {"set": [value_to_json(v, oid_names) for v in ordered]}
    if is_constant(value):
        return value
    raise OValueError(f"not an o-value: {value!r}")


def value_from_json(doc, oids: Dict[str, Oid]) -> OValue:
    if isinstance(doc, dict):
        if set(doc) == {"oid"}:
            name = doc["oid"]
            if name not in oids:
                raise OValueError(f"value references undeclared oid {name!r}")
            return oids[name]
        if set(doc) == {"tuple"}:
            return OTuple({attr: value_from_json(v, oids) for attr, v in doc["tuple"].items()})
        if set(doc) == {"set"}:
            return OSet(value_from_json(v, oids) for v in doc["set"])
        raise OValueError(f"unrecognized value document: {doc!r}")
    if is_constant(doc):
        return doc
    raise OValueError(f"unrecognized value document: {doc!r}")


def _oid_names(objects: Iterable[Oid]) -> Dict[Oid, str]:
    """Stable unique wire names for ``objects``: the display name when
    unique, else name#serial."""
    ordered = sorted(objects, key=attrgetter("serial"))
    by_name: Dict[str, int] = {}
    for oid in ordered:
        by_name[oid.name or "o"] = by_name.get(oid.name or "o", 0) + 1
    names: Dict[Oid, str] = {}
    for oid in ordered:
        base = oid.name or "o"
        names[oid] = base if by_name[base] == 1 else f"{base}#{oid.serial}"
    return names


#: The deepest o-value :func:`dumps` writes. The writer, :func:`sort_key`
#: and the comparisons that order sets recurse once or a few times per
#: level; a deeper value is refused with an :class:`OValueError` before
#: any of them runs. Well-typed values are no deeper than their type.
MAX_DEPTH = 200

_encode_str = json.encoder.encode_basestring
_INFINITY = float("inf")


def _type_texts(types: Mapping[str, TypeExpr]) -> List[Tuple[str, str]]:
    return [(name, _encode_str(_render_type(t))) for name, t in sorted(types.items())]


def _number_text(value) -> str:
    """An int, float or bool exactly as :mod:`json` writes it."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def dumps(instance: Instance) -> str:
    """Serialize an instance (schema included) to its JSON document: the
    2-space-indented canonical text described in the module docstring,
    emitted straight from the o-values. Raises :class:`OValueError` for a
    value deeper than :data:`MAX_DEPTH`."""
    # nl[k] starts a line at indentation level k. Relation members open at
    # level 3 and ν values at level 2; each o-value level nests two JSON
    # levels ({"tuple": {...}} and {"set": [...]}).
    nl = ["\n" + "  " * k for k in range(8)]
    texts: Dict[str, str] = {}  # string constant -> its JSON text
    keys: Dict[str, str] = {}  # member name -> '"name": '
    out: List[str] = []
    append = out.append

    def constant(value) -> str:
        if isinstance(value, str):
            text = texts.get(value)
            if text is None:
                text = texts[value] = _encode_str(value)
            return text
        return _number_text(value)

    def key(name: str) -> str:
        text = keys.get(name)
        if text is None:
            text = keys[name] = _encode_str(name) + ": "
        return text

    # -- pass 1: render flat facts, collect objects(I), measure the rest --
    #
    # A tuple whose fields are all constants (every fact of a relation
    # over D) holds no oid and has depth 1, so its text is final at once.
    # Its sort key is its sort_key flattened to (attr, kind, constant, ...):
    # the same lexicographic comparisons without the nesting, valid while
    # every member of the relation is such a tuple.
    flat_open = "{" + nl[4] + '"tuple": {' + nl[5]
    flat_separator = "," + nl[5]
    flat_close = nl[4] + "}" + nl[3] + "}"
    objects: set = set()
    for members in instance.classes.values():
        objects.update(members)
    nested: List[OValue] = list(instance.nu.values())
    # (name, (members, rendered)): the members' final texts in order, or
    # the members themselves, to be ordered once their depth is checked.
    relations: List[Tuple[str, Tuple[list, bool]]] = []
    for name, members in sorted(instance.relations.items()):
        rows: list = []
        for value in members:
            if isinstance(value, OTuple) and value._fields:
                sortable: list = []
                rendered: List[str] = []
                for attr, field in value._fields:
                    if isinstance(field, str):
                        sortable += (attr, "str", field)
                    elif isinstance(field, (int, float)):
                        sortable += (attr, "num", field)
                    else:
                        break
                    rendered.append(key(attr) + constant(field))
                else:
                    rows.append(
                        (
                            tuple(sortable),
                            flat_open + flat_separator.join(rendered) + flat_close,
                        )
                    )
                    continue
            rows = []
            break
        if len(rows) == len(members):
            rows.sort(key=itemgetter(0))
            relations.append((name, ([text for _, text in rows], True)))
        else:
            nested.extend(members)
            relations.append((name, (list(members), False)))
    deepest = 1
    for value in nested:
        if isinstance(value, Oid):
            objects.add(value)
        elif isinstance(value, (OTuple, OSet)):
            depth = value_depth(value)
            if depth > MAX_DEPTH:
                raise OValueError(
                    f"cannot write a value of depth {depth}: "
                    f"repro.io.MAX_DEPTH is {MAX_DEPTH}"
                )
            deepest = max(deepest, depth)
            objects |= oids_of(value)
    for _, (members, rendered) in relations:
        if not rendered:
            members.sort(key=sort_key)
    nl.extend("\n" + "  " * k for k in range(len(nl), 2 * deepest + 6))
    names = _oid_names(objects)
    oid_texts = {oid: _encode_str(name) for oid, name in names.items()}

    # -- pass 2: the document --

    def ovalue(value, level: int) -> None:
        if isinstance(value, OTuple):
            fields = value._fields
            if not fields:
                append("{" + nl[level + 1] + '"tuple": {}' + nl[level] + "}")
                return
            append("{" + nl[level + 1] + '"tuple": {')
            inner = nl[level + 2]
            separator = inner
            for attr, field in fields:
                append(separator)
                append(key(attr))
                if isinstance(field, CONSTANT_TYPES):
                    append(constant(field))
                else:
                    ovalue(field, level + 2)
                separator = "," + inner
            append(nl[level + 1] + "}" + nl[level] + "}")
        elif isinstance(value, OSet):
            if not value._elements:
                append("{" + nl[level + 1] + '"set": []' + nl[level] + "}")
                return
            append("{" + nl[level + 1] + '"set": [')
            inner = nl[level + 2]
            separator = inner
            for element in sorted_elements(value):
                append(separator)
                if isinstance(element, CONSTANT_TYPES):
                    append(constant(element))
                else:
                    ovalue(element, level + 2)
                separator = "," + inner
            append(nl[level + 1] + "]" + nl[level] + "}")
        elif isinstance(value, Oid):
            append("{" + nl[level + 1] + '"oid": ' + oid_texts[value] + nl[level] + "}")
        elif is_constant(value):
            append(constant(value))
        else:
            raise OValueError(f"not an o-value: {value!r}")

    def text(value: str, level: int) -> None:
        append(value)

    def obj(items, level: int, write) -> None:
        """A JSON object of ``(name, value)`` pairs opened at ``level``;
        ``write(value, level + 1)`` writes each value."""
        separator = "{" + nl[level + 1]
        for name, value in items:
            append(separator)
            append(key(name))
            write(value, level + 1)
            separator = "," + nl[level + 1]
        append("{}" if separator[0] == "{" else nl[level] + "}")

    def array(values, level: int, write) -> None:
        separator = "[" + nl[level + 1]
        for value in values:
            append(separator)
            write(value, level + 1)
            separator = "," + nl[level + 1]
        append("[]" if separator[0] == "[" else nl[level] + "]")

    def relation(entry, level: int) -> None:
        members, rendered = entry
        array(members, level, text if rendered else ovalue)

    def extent(oids, level: int) -> None:
        array([oid_texts[o] for o in sorted(oids, key=names.__getitem__)], level, text)

    schema = instance.schema
    append('{\n  "schema": {\n    "relations": ')
    obj(_type_texts(schema.relations), 2, text)
    append(',\n    "classes": ')
    obj(_type_texts(schema.classes), 2, text)
    append('\n  },\n  "relations": ')
    obj(relations, 1, relation)
    append(',\n  "classes": ')
    obj(sorted(instance.classes.items()), 1, extent)
    append(',\n  "nu": ')
    nu = sorted(instance.nu.items(), key=lambda kv: kv[0].serial)
    obj(((names[o], v) for o, v in nu), 1, ovalue)
    append("\n}")
    return "".join(out)


def schema_from_dict(doc: dict) -> Schema:
    classes = doc.get("classes", {})
    class_names = list(classes)
    return Schema(
        relations={
            name: type_from_source(src, class_names)
            for name, src in doc.get("relations", {}).items()
        },
        classes={
            name: type_from_source(src, class_names) for name, src in classes.items()
        },
    )


def instance_from_dict(doc: dict, schema: Optional[Schema] = None) -> Instance:
    if schema is None:
        if "schema" not in doc:
            raise SchemaError("instance document has no schema and none was supplied")
        schema = schema_from_dict(doc["schema"])
    oids: Dict[str, Oid] = {}
    instance = Instance(schema)
    for class_name, members in doc.get("classes", {}).items():
        for wire_name in members:
            oid = oids.setdefault(wire_name, Oid(wire_name.split("#")[0]))
            instance.add_class_member(class_name, oid)
    for wire_name, value_doc in doc.get("nu", {}).items():
        if wire_name not in oids:
            raise SchemaError(f"ν defined for undeclared oid {wire_name!r}")
        instance.assign(oids[wire_name], value_from_json(value_doc, oids))
    for relation, values in doc.get("relations", {}).items():
        for value_doc in values:
            instance.add_relation_member(relation, value_from_json(value_doc, oids))
    return instance


def loads(text: str, schema: Optional[Schema] = None) -> Instance:
    """Parse an instance document; fresh oids are minted (renaming is the
    identity of the model, so this loses nothing)."""
    return instance_from_dict(json.loads(text), schema)


# -- the fact-batch wire encoding (the process executor's hot path) ------------------
#
# The JSON document format above mints fresh oids on load — right for
# documents, wrong for a coordinator/worker exchange where identity must
# survive the round trip. Fact batches crossing a process boundary use a
# flat node-table encoding instead:
#
#   (nodes, {name: [root_index, ...]})
#
# where ``nodes`` lists each *distinct* value node once, children before
# parents, as a small tagged tuple —
#
#   ("c", const)                      a constant,
#   ("o", serial, name)               an oid, identity-resolved like pickle,
#   ("t", ((attr, child_idx), ...))   a tuple over earlier nodes,
#   ("s", (child_idx, ...))           a set over earlier nodes.
#
# Hash-consing makes this *compact* by construction: interned sharing is
# preserved on the wire (one table entry per distinct node, however many
# facts reference it), the payload is plain tuples/ints that (un)pickle
# at C speed with no per-object ``__reduce__`` dispatch, and decoding
# rebuilds bottom-up through the interned constructors, so decoded facts
# are canonical nodes of the *receiving* process's store. Oids resolve
# through the same serial registry pickling uses: encoding registers the
# live object so the sender recognizes its own oids in the reply.


class _WireEncoder:
    """Accumulates the node table of one fact batch."""

    __slots__ = ("nodes", "_index")

    def __init__(self) -> None:
        self.nodes: List[tuple] = []
        self._index: Dict[object, int] = {}

    def encode(self, value: OValue) -> int:
        # Interned nodes and oids key by identity (the canonical node IS
        # the identity); constants key by (type, value) so 1/True/1.0
        # keep their Python type across the wire.
        key = (
            (type(value), value)
            if is_constant(value)
            else id(value)
        )
        found = self._index.get(key)
        if found is not None:
            return found
        if isinstance(value, Oid):
            with _OID_REGISTRY_LOCK:
                _OID_REGISTRY[value.serial] = value
            node = ("o", value.serial, value.name)
        elif isinstance(value, OTuple):
            node = ("t", tuple((attr, self.encode(v)) for attr, v in value.items()))
        elif isinstance(value, OSet):
            node = ("s", tuple(self.encode(v) for v in value))
        elif is_constant(value):
            node = ("c", value)
        else:
            raise OValueError(f"not an o-value: {value!r}")
        self.nodes.append(node)
        index = len(self.nodes) - 1
        self._index[key] = index
        return index


#: One fact batch on the wire: the node table plus per-name root indexes.
WireBatch = Tuple[List[tuple], Dict[str, List[int]]]


def batch_to_wire(facts: Mapping[str, Iterable[OValue]]) -> WireBatch:
    """Encode ``{name: facts}`` for a process-boundary crossing."""
    encoder = _WireEncoder()
    payload = {
        name: [encoder.encode(value) for value in values]
        for name, values in facts.items()
    }
    return (encoder.nodes, payload)


def batch_from_wire(wire: WireBatch) -> Dict[str, List[OValue]]:
    """Decode a fact batch into this process's canonical value nodes."""
    nodes, payload = wire
    values: List[OValue] = []
    for node in nodes:
        tag = node[0]
        if tag == "c":
            values.append(node[1])
        elif tag == "o":
            values.append(_oid_from_wire(node[1], node[2]))
        elif tag == "t":
            values.append(OTuple(tuple((attr, values[i]) for attr, i in node[1])))
        elif tag == "s":
            values.append(OSet(values[i] for i in node[1]))
        else:
            raise OValueError(f"unrecognized wire node {node!r}")
    return {
        name: [values[i] for i in roots] for name, roots in payload.items()
    }


def dump(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(instance))


def load(path: str, schema: Optional[Schema] = None) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), schema)
