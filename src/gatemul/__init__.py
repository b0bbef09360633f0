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

Importing gatemul loads none of its modules.  A module is imported when one
of its exported names is first read, so a program (or a CLI command) loads
only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module it lives in.  A name's value is kept in
# this module's namespace once it has been read.
_HOMES = {
    **dict.fromkeys([
        "Circuit", "CircuitBuilder", "Gate", "GateKind", "NetId",
        "NetlistError", "Port", "Signedness", "ValidationError", "Violation",
        "ViolationKind", "depth", "gate_schedule", "validate",
    ], "netlist"),
    **dict.fromkeys([
        "Architecture", "Combiner", "MultiplierSpec", "baugh_wooley_multiplier",
        "booth_radix4_multiplier", "generate", "mixed_sign_multiplier",
    ], "multipliers"),
    **dict.fromkeys(["evaluate", "evaluate_batch", "evaluate_vector_array"], "sim"),
    **dict.fromkeys([
        "AreaReport", "ComparisonTable", "DelayModel", "TimingReport",
        "area_report", "compare", "critical_path",
    ], "timing"),
    **dict.fromkeys([
        "VerifyReport", "oracle_product", "verify_exhaustive", "verify_random",
    ], "verify"),
    **dict.fromkeys(["JsonFormatError", "from_json", "to_json", "to_verilog"], "emit"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
