"""The package's top level exports exactly the names its users need.

A name is public if the CLI, the benchmark, a demo or the README uses it,
or if it is the argument, return, field or exception type of a public
name.  Building blocks are imported from their own modules.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import gatemul

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "Architecture", "AreaReport", "Circuit", "CircuitBuilder", "Combiner",
    "ComparisonTable", "DelayModel", "Gate", "GateKind", "JsonFormatError",
    "MultiplierSpec", "NetId", "NetlistError", "Port", "Signedness",
    "TimingReport", "ValidationError", "VerifyReport", "Violation",
    "ViolationKind", "area_report", "baugh_wooley_multiplier",
    "booth_radix4_multiplier", "compare", "critical_path",
    "decomposed_multiplier", "depth", "evaluate", "evaluate_batch",
    "evaluate_vector_array", "from_json", "gate_schedule", "generate",
    "mixed_sign_multiplier", "oracle_product", "to_json", "to_verilog",
    "validate", "verify_exhaustive", "verify_random",
]

# Names the top level no longer exports, and the module each lives in.
MODULE_ONLY = {
    "arrival_times": "timing",
    "boundary_values": "verify",
    "carry_save_reduce": "genlib",
    "decode": "sim",
    "encode": "sim",
    "full_adder": "genlib",
    "half_adder": "genlib",
    "ripple_carry_adder": "genlib",
    "ripple_carry_adder_mod": "genlib",
    "value_range": "sim",
}


def _from_gatemul_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "gatemul"
        for alias in node.names
    }


def test_all_is_the_public_list():
    assert sorted(gatemul.__all__) == PUBLIC
    assert len(PUBLIC) == 40


def test_every_public_name_resolves():
    for name in gatemul.__all__:
        assert getattr(gatemul, name) is not None, name


@pytest.mark.parametrize("name, module", sorted(MODULE_ONLY.items()))
def test_building_blocks_import_from_their_module(name, module):
    assert name not in gatemul.__all__
    assert callable(getattr(importlib.import_module(f"gatemul.{module}"), name))


@pytest.mark.parametrize("name", ["unsigned_array_multiplier", "encode"])
def test_dropped_names_are_not_attributes(name):
    with pytest.raises(AttributeError):
        getattr(gatemul, name)


def test_demo_imports_are_public():
    used = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _from_gatemul_imports(demo.read_text())
    assert used and used <= set(gatemul.__all__)


def test_bench_probe_reads_public_names():
    # bench/traced_op.py's probe receives the package as ``g``.
    used = set(re.findall(r"\bg\.(\w+)", (ROOT / "bench" / "traced_op.py").read_text()))
    assert used and used <= set(gatemul.__all__)


def test_readme_imports_are_public():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    used = set().union(*map(_from_gatemul_imports, blocks))
    assert used and used <= set(gatemul.__all__)
