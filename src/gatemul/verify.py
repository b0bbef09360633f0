"""Equivalence checking of multiplier netlists against host-integer products.

The oracle is deliberately boring: multiply the operands on the host,
compare.  It never touches generator or simulator word paths, so a bug in
the netlist machinery cannot hide itself.  The exhaustive sweep runs
without numpy: the simulator's lane batch of every operand pair gives the
products as a list, against ``[x * y for x in range_a for y in range_b]``.
The random run multiplies numpy int64 arrays when every operand and every
product fits in int64 (decided from the port ranges with Python ints) and
exact Python ints otherwise.  numpy is imported inside the functions that
use it, not at module top, so importing gatemul (as ``gen`` and
``compare`` do) does not load it.  Both entry points first refuse a spec
whose operand widths or signs differ from the circuit's ports, before any
vector is made; every other operand fact (ranges, boundary values, draws,
the oracle's dtype) is the ports'.

A report's ``failures`` is a read-only sequence of ``(inputs, expected,
actual)`` rows.  The failing vectors stay in four columns, numpy arrays or
lists of Python ints, and a row's tuple is built only when the row is read:
a FAIL report that prints 20 witnesses builds 20 tuples, however many
vectors failed.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING

from .multipliers import MultiplierSpec
from .netlist import Circuit
from .sim import (
    _evaluate_sweep,
    _ints_from_limbs,
    evaluate_vector_array,
    fits_int64,
    port_dtype,
    value_range,
)

if TYPE_CHECKING:
    import numpy as np

#: PRNG identifier recorded in random reports.
RANDOM_ALGORITHM = "numpy-pcg64"

#: Widest operand :func:`verify_exhaustive` sweeps (2**16 vectors at 8 bits).
EXHAUSTIVE_MAX_WIDTH = 8

# Most random vectors :func:`verify_random` draws: 2**24 check bw16 in about
# 2 s at under 600 MB.
_MAX_COUNT = 1 << 24

# Failing vectors that ``VerifyReport.to_text`` lists before "... and N more".
_MAX_WITNESSES = 20


# One failing vector: its operands by port name, the product, the netlist's output.
_Failure = tuple[dict[str, int], int, int]

# Rows built per step when a failure sequence is iterated.
_ROW_BLOCK = 4096


class _Failures(Sequence):
    """The failing vectors of one run, held as four equal-length columns,
    numpy arrays or lists of Python ints.

    A row reads as ``({name_a: a, name_b: b}, expected, actual)`` with Python
    ints, the tuple a list of failures would hold; it is built when indexed,
    sliced (a slice is a list) or iterated.  Equality is element-wise with
    any sequence, as for a list.
    """

    __slots__ = ("_names", "_a", "_b", "_expected", "_actual")

    def __init__(self, names: tuple[str, str], a, b, expected, actual):
        self._names = names
        self._a, self._b, self._expected, self._actual = a, b, expected, actual

    def __len__(self) -> int:
        return len(self._a)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._rows(index)
        i = range(len(self._a))[index]  # int index rules, IndexError included
        return self._rows(slice(i, i + 1))[0]

    def __iter__(self):
        for start in range(0, len(self._a), _ROW_BLOCK):
            yield from self._rows(slice(start, start + _ROW_BLOCK))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))

    def _rows(self, index: slice) -> list[_Failure]:
        name_a, name_b = self._names
        columns = (self._a[index], self._b[index], self._expected[index], self._actual[index])
        return [
            ({name_a: a, name_b: b}, e, g)
            for a, b, e, g in zip(*(c if type(c) is list else c.tolist() for c in columns))
        ]


@dataclass
class VerifyReport:
    """Outcome of one verification run; passing means no failures."""

    mode: str  # "exhaustive" | "random"
    total_vectors: int
    failures: Sequence[_Failure] = field(default_factory=list)
    boundary_vectors: int = 0
    requested_count: int | None = None
    seed: int | None = None
    algorithm: str | None = None

    @property
    def passed(self) -> bool:
        return len(self.failures) == 0

    def to_text(self) -> str:
        lines = [f"mode: {self.mode}"]
        if self.mode == "random":
            lines.append(
                f"algorithm: {self.algorithm}, seed: {self.seed}, "
                f"requested: {self.requested_count}"
            )
            lines.append(
                f"vectors: {self.total_vectors} "
                f"(boundary {self.boundary_vectors} + random {self.requested_count})"
            )
        else:
            lines.append(f"vectors: {self.total_vectors}")
        if self.passed:
            lines.append(f"result: PASS ({self.total_vectors} vectors, 0 failures)")
        else:
            lines.append(f"result: FAIL ({len(self.failures)} failures)")
            for inputs, expected, actual in self.failures[:_MAX_WITNESSES]:
                assign = " ".join(f"{k}={v}" for k, v in inputs.items())
                lines.append(f"  {assign}: expected {expected}, got {actual}")
            if len(self.failures) > _MAX_WITNESSES:
                lines.append(f"  ... and {len(self.failures) - _MAX_WITNESSES} more")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "passed": self.passed,
            "total_vectors": self.total_vectors,
            "boundary_vectors": self.boundary_vectors,
            "requested_count": self.requested_count,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "failures": [
                {"inputs": inputs, "expected": expected, "actual": actual}
                for inputs, expected, actual in self.failures
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def oracle_product(a: int, b: int, spec: MultiplierSpec) -> int:
    """Exact reference product on host integers, with range checks."""
    lo_a, hi_a = value_range(spec.width_a, spec.sign_a)
    lo_b, hi_b = value_range(spec.width_b, spec.sign_b)
    if not lo_a <= a <= hi_a:
        raise ValueError(f"a={a} out of range [{lo_a}, {hi_a}]")
    if not lo_b <= b <= hi_b:
        raise ValueError(f"b={b} out of range [{lo_b}, {hi_b}]")
    return a * b


def _ports(circuit: Circuit, spec: MultiplierSpec):
    """Operand and product ports, once the spec's widths and signs match the
    operand ports'; with :func:`oracle_product`, the only reader of a spec."""
    if len(circuit.inputs) != 2 or len(circuit.outputs) != 1:
        raise ValueError("expected a 2-input, 1-output multiplier circuit")
    pa, pb = circuit.inputs
    if pa.width != spec.width_a or pb.width != spec.width_b:
        raise ValueError(
            f"circuit widths {pa.width}x{pb.width} do not match the spec "
            f"{spec.width_a}x{spec.width_b}"
        )
    if pa.signedness is not spec.sign_a or pb.signedness is not spec.sign_b:
        raise ValueError(
            f"circuit signs {pa.signedness.value} x {pb.signedness.value} do not "
            f"match the spec {spec.sign_a.value} x {spec.sign_b.value}"
        )
    return pa, pb, circuit.outputs[0]


def _cross(a_vals: np.ndarray, b_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of an A value and a B value, A-major, as two arrays."""
    import numpy as np

    return np.repeat(a_vals, len(b_vals)), np.tile(b_vals, len(a_vals))


def _run(circuit: Circuit, ports, a_vals, b_vals):
    """Failing vectors against whole-array ``a * b``, unchecked (the simulator
    checks operands against the ports): int64 when every operand and product
    fits in int64, else exact Python ints in an object array."""
    import numpy as np

    pa, pb, po = ports
    ra, rb = value_range(pa.width, pa.signedness), value_range(pb.width, pb.signedness)
    if fits_int64(*ra, *rb, *(x * y for x in ra for y in rb)):
        expected = a_vals * b_vals
    else:
        expected = a_vals.astype(object) * b_vals.astype(object)
    out = evaluate_vector_array(circuit, {pa.name: a_vals, pb.name: b_vals})
    actual = out[po.name]
    bad = np.flatnonzero(actual != expected)
    # Sorted by (A, B); stable, so equal pairs keep vector order.
    bad = bad[np.lexsort((b_vals[bad], a_vals[bad]))]
    return _Failures(
        (pa.name, pb.name), a_vals[bad], b_vals[bad], expected[bad], actual[bad]
    )


def verify_exhaustive(circuit: Circuit, spec: MultiplierSpec) -> VerifyReport:
    """Sweep every operand pair (at most :data:`EXHAUSTIVE_MAX_WIDTH` bits);
    collects all failures, never stops early.  Runs without numpy."""
    pa, pb, po = _ports(circuit, spec)
    if max(pa.width, pb.width) > EXHAUSTIVE_MAX_WIDTH:
        raise ValueError(
            f"width {max(pa.width, pb.width)} exceeds the exhaustive cap "
            f"({EXHAUSTIVE_MAX_WIDTH}); use verify_random"
        )
    (lo_a, hi_a), (lo_b, hi_b) = (value_range(p.width, p.signedness) for p in (pa, pb))
    expected = [x * y for x in range(lo_a, hi_a + 1) for y in range(lo_b, hi_b + 1)]
    count, out = _evaluate_sweep(circuit)
    actual = out[po.name]
    # Vector k is (lo_a + k // 2**nb, lo_b + k % 2**nb): (A, B) order already.
    bad = [] if actual == expected else list(
        compress(range(count), map(operator.ne, actual, expected)))
    failures = _Failures(
        (pa.name, pb.name),
        [lo_a + (k >> pb.width) for k in bad],
        [lo_b + (k & (hi_b - lo_b)) for k in bad],
        list(map(expected.__getitem__, bad)),
        list(map(actual.__getitem__, bad)),
    )
    return VerifyReport(mode="exhaustive", total_vectors=count, failures=failures)


def boundary_values(width: int, signedness) -> list[int]:
    """Deterministic corner values for one operand: 0, 1, -1, max, min."""
    lo, hi = value_range(width, signedness)
    candidates = [0, 1, -1, hi, lo]
    out: list[int] = []
    for v in candidates:
        if lo <= v <= hi and v not in out:
            out.append(v)
    return out


def _draw(rng: np.random.Generator, width: int, signedness, count: int) -> np.ndarray:
    """``count`` uniform draws from the range of one operand port.

    A range that fits in int64 is drawn as ``rng.integers(lo, hi,
    dtype=np.int64, endpoint=True)``.  A wider range spans ``2**width``
    values: it is drawn as one ``(count, ceil(width / 64))`` uint64 array,
    a row per value with its least significant limb first and the top limb
    masked to the remaining bits, and ``lo`` is then added.  For 64-bit
    unsigned this is one unmasked uint64 per value.
    """
    import numpy as np

    lo, hi = value_range(width, signedness)
    if fits_int64(lo, hi):
        return rng.integers(lo, hi, size=count, dtype=np.int64, endpoint=True)
    nlimbs = -(-width // 64)
    words = rng.integers(0, (1 << 64) - 1, size=(count, nlimbs), dtype=np.uint64, endpoint=True)
    words[:, -1] &= np.uint64((1 << (width - 64 * (nlimbs - 1))) - 1)
    return _ints_from_limbs(words) + lo


def verify_random(
    circuit: Circuit, spec: MultiplierSpec, count: int, seed: int
) -> VerifyReport:
    """Seeded random vectors plus the full boundary-pair cross product.

    The same (seed, count, ports) always tests the same vectors; the PRNG is
    recorded in the report so runs are reproducible elsewhere.  One PCG64
    generator draws ``count`` values for A, then ``count`` for B (see
    :func:`_draw` for operand ranges wider than int64).
    """
    if type(count) is not int:
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _MAX_COUNT:
        raise ValueError(f"count must be <= {_MAX_COUNT}")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    pa, pb, po = _ports(circuit, spec)
    import numpy as np

    corner_a, corner_b = _cross(*(
        np.array(boundary_values(p.width, p.signedness), dtype=port_dtype(p.width, p.signedness))
        for p in (pa, pb)
    ))
    rng = np.random.default_rng(seed)
    a_vals = np.concatenate([corner_a, _draw(rng, pa.width, pa.signedness, count)])
    b_vals = np.concatenate([corner_b, _draw(rng, pb.width, pb.signedness, count)])
    failures = _run(circuit, (pa, pb, po), a_vals, b_vals)
    return VerifyReport(
        mode="random",
        total_vectors=len(a_vals),
        failures=failures,
        boundary_vectors=len(corner_a),
        requested_count=count,
        seed=seed,
        algorithm=RANDOM_ALGORITHM,
    )
