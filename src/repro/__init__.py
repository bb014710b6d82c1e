"""repro — a full reproduction of *Object Identity as a Query Language
Primitive* (Abiteboul & Kanellakis, SIGMOD 1989 / JACM 1998).

The package implements the paper end to end:

* :mod:`repro.values` — o-values: constants, oids, tuples, sets (§2.1),
* :mod:`repro.typesys` — the type language and its interpretations (§2.2, §6.2),
* :mod:`repro.schema` — schemas, instances, O-/DO-isomorphisms (§2.3, §4.1),
* :mod:`repro.iql` — the IQL language: syntax, type checking, the naive
  inflationary evaluator, ``choose`` (IQL+), deletions (IQL*), and the
  PTIME sublanguages IQLrr ⊂ IQLpr (§3-§5),
* :mod:`repro.parser` — a textual surface syntax with type inference (§3.3),
* :mod:`repro.datalog` — a standalone Datalog engine and the embedding
  Datalog ⊂ IQL (§3.4),
* :mod:`repro.transform` — db-transformations, copies, and the paper's
  worked examples including the Figure-1 quadrangle query (§4),
* :mod:`repro.inheritance` — isa hierarchies compiled to union types (§6),
* :mod:`repro.valuebased` — regular trees, φ/ψ, and IQLv (§7),
* :mod:`repro.workloads` — the Genesis and university fixtures plus
  benchmark generators,
* :mod:`repro.analysis` — the unified static-analysis subsystem (IQL
  lint): ``analyze(program) -> Report`` with source-spanned ``IQLxxx``
  diagnostics and Definition-5.3 certification.

Quickstart::

    from repro import (Schema, Instance, Program, Rule, Var, atom,
                       evaluate, typecheck_program, columns)
    from repro.typesys import D

    schema = Schema(relations={"E": columns(D, D), "T": columns(D, D)})
    x, y, z = (Var(n, D) for n in "xyz")
    program = typecheck_program(Program(schema, rules=[
        Rule(atom(schema, "T", x, y), [atom(schema, "E", x, y)]),
        Rule(atom(schema, "T", x, z), [atom(schema, "T", x, y), atom(schema, "E", y, z)]),
    ], input_names=["E"], output_names=["T"]))
"""

from repro.diagnostics import CODES, Diagnostic, Span
from repro.errors import (
    EvaluationError,
    GenericityError,
    InstanceError,
    NonTerminationError,
    OValueError,
    ParseError,
    ReproError,
    SchemaError,
    SublanguageError,
    TypeCheckError,
    TypeExpressionError,
)
from repro.iql import (
    Choose,
    Equality,
    Evaluator,
    EvaluatorLimits,
    Membership,
    Program,
    ReferenceEvaluator,
    Rule,
    Var,
    atom,
    classify,
    columns,
    evaluate,
    evaluate_full,
    typecheck_program,
)
from repro.parser import program_from_source, schema_from_source
from repro.schema import Instance, Schema, are_o_isomorphic, find_o_isomorphism
from repro.values import Oid, OSet, OTuple, ensure_ovalue

__version__ = "1.0.0"

__all__ = [
    "CODES",
    "Diagnostic",
    "Span",
    "EvaluationError",
    "GenericityError",
    "InstanceError",
    "NonTerminationError",
    "OValueError",
    "ParseError",
    "ReproError",
    "SchemaError",
    "SublanguageError",
    "TypeCheckError",
    "TypeExpressionError",
    "Choose",
    "Equality",
    "Evaluator",
    "EvaluatorLimits",
    "Membership",
    "Program",
    "ReferenceEvaluator",
    "Rule",
    "Var",
    "atom",
    "classify",
    "columns",
    "evaluate",
    "evaluate_full",
    "typecheck_program",
    "program_from_source",
    "schema_from_source",
    "Instance",
    "Schema",
    "are_o_isomorphic",
    "find_o_isomorphism",
    "Oid",
    "OSet",
    "OTuple",
    "ensure_ovalue",
    "__version__",
]
