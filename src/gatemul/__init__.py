"""gatemul: a gate-level multiplier workbench.

Generates Baugh-Wooley, mixed-signedness array, radix-4 Booth, and
four-quadrant decomposed multiplier netlists; verifies them bit-exactly
against integer semantics; and compares critical-path delay and gate-count
area under configurable delay models.  ``generate`` builds each of them
from a ``MultiplierSpec``; a decomposed one has no shorthand.

A name is exported here if the CLI, the benchmark, a demo or the README
uses it, or if it is the argument, return, field or exception type of an
exported name.  Building blocks stay in their modules: the adder cells
and the column reducer in :mod:`gatemul.genlib`, ``encode``, ``decode``
and ``value_range`` in :mod:`gatemul.sim`, ``arrival_times`` in
:mod:`gatemul.timing` and ``boundary_values`` in :mod:`gatemul.verify`.
"""

from .netlist import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    NetId,
    NetlistError,
    Port,
    Signedness,
    ValidationError,
    Violation,
    ViolationKind,
    gate_schedule,
    validate,
)
from .multipliers import (
    Architecture,
    Combiner,
    MultiplierSpec,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    generate,
    mixed_sign_multiplier,
)
from .sim import evaluate, evaluate_batch, evaluate_vector_array
from .timing import (
    AreaReport,
    ComparisonTable,
    DelayModel,
    TimingReport,
    area_report,
    compare,
    critical_path,
    depth,
)
from .verify import VerifyReport, oracle_product, verify_exhaustive, verify_random
from .emit import JsonFormatError, from_json, to_json, to_verilog

__version__ = "0.1.0"

__all__ = [
    "AreaReport",
    "Architecture",
    "Circuit",
    "CircuitBuilder",
    "Combiner",
    "ComparisonTable",
    "DelayModel",
    "Gate",
    "GateKind",
    "JsonFormatError",
    "MultiplierSpec",
    "NetId",
    "NetlistError",
    "Port",
    "Signedness",
    "TimingReport",
    "ValidationError",
    "VerifyReport",
    "Violation",
    "ViolationKind",
    "area_report",
    "baugh_wooley_multiplier",
    "booth_radix4_multiplier",
    "compare",
    "critical_path",
    "depth",
    "evaluate",
    "evaluate_batch",
    "evaluate_vector_array",
    "from_json",
    "gate_schedule",
    "generate",
    "mixed_sign_multiplier",
    "oracle_product",
    "to_json",
    "to_verilog",
    "validate",
    "verify_exhaustive",
    "verify_random",
]
