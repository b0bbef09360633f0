"""gatemul: a gate-level multiplier workbench.

Generates Baugh-Wooley, mixed-signedness array, radix-4 Booth, and
four-quadrant decomposed multiplier netlists; verifies them bit-exactly
against integer semantics; and compares critical-path delay and gate-count
area under configurable delay models.
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
from .genlib import (
    carry_save_reduce,
    full_adder,
    half_adder,
    ripple_carry_adder,
    ripple_carry_adder_mod,
)
from .multipliers import (
    Architecture,
    Combiner,
    MultiplierSpec,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    decomposed_multiplier,
    generate,
    mixed_sign_multiplier,
    unsigned_array_multiplier,
)
from .sim import (
    decode,
    encode,
    evaluate,
    evaluate_batch,
    evaluate_vector_array,
    value_range,
)
from .timing import (
    AreaReport,
    ComparisonTable,
    DelayModel,
    TimingReport,
    area_report,
    arrival_times,
    compare,
    critical_path,
    depth,
)
from .verify import (
    VerifyReport,
    boundary_values,
    oracle_product,
    verify_exhaustive,
    verify_random,
)
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
    "arrival_times",
    "baugh_wooley_multiplier",
    "booth_radix4_multiplier",
    "boundary_values",
    "carry_save_reduce",
    "compare",
    "critical_path",
    "decode",
    "decomposed_multiplier",
    "depth",
    "encode",
    "evaluate",
    "evaluate_batch",
    "evaluate_vector_array",
    "from_json",
    "full_adder",
    "gate_schedule",
    "generate",
    "half_adder",
    "mixed_sign_multiplier",
    "oracle_product",
    "ripple_carry_adder",
    "ripple_carry_adder_mod",
    "to_json",
    "to_verilog",
    "unsigned_array_multiplier",
    "validate",
    "value_range",
    "verify_exhaustive",
    "verify_random",
]
