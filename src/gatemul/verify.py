"""Equivalence checking of multiplier netlists against host-integer products.

The oracle is deliberately boring: multiply the operand arrays on the host,
compare.  When every operand and every product fits in int64 (decided from
the port ranges with Python ints) it multiplies numpy int64 arrays;
otherwise it multiplies exact Python ints.  It never touches generator or
simulator word paths, so a bug in the netlist machinery cannot hide itself.
numpy is imported inside the functions that use it, not at module top, so
importing gatemul (as ``gen`` and ``compare`` do) does not load it.

A report's ``failures`` is a read-only sequence of ``(inputs, expected,
actual)`` rows.  The failing vectors stay in numpy arrays, and a row's tuple
of Python ints is built only when the row is read: a FAIL report that prints
20 witnesses builds 20 tuples, however many vectors failed.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .multipliers import MultiplierSpec
from .netlist import Circuit
from .sim import _ints_from_limbs, evaluate_vector_array, fits_int64, port_dtype, value_range

if TYPE_CHECKING:
    import numpy as np

#: PRNG identifier recorded in random reports.
RANDOM_ALGORITHM = "numpy-pcg64"


# One failing vector: its operands by port name, the product, the netlist's output.
_Failure = tuple[dict[str, int], int, int]

# Rows built per step when a failure sequence is iterated.
_ROW_BLOCK = 4096


class _Failures(Sequence):
    """The failing vectors of one run, held as four equal-length arrays.

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
        return [
            ({name_a: a, name_b: b}, e, g)
            for a, b, e, g in zip(
                self._a[index].tolist(),
                self._b[index].tolist(),
                self._expected[index].tolist(),
                self._actual[index].tolist(),
            )
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

    def to_text(self, max_witnesses: int = 20) -> str:
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
            for inputs, expected, actual in self.failures[:max_witnesses]:
                assign = " ".join(f"{k}={v}" for k, v in inputs.items())
                lines.append(f"  {assign}: expected {expected}, got {actual}")
            if len(self.failures) > max_witnesses:
                lines.append(f"  ... and {len(self.failures) - max_witnesses} more")
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
    if len(circuit.inputs) != 2 or len(circuit.outputs) != 1:
        raise ValueError("expected a 2-input, 1-output multiplier circuit")
    pa, pb = circuit.inputs
    if pa.width != spec.width_a or pb.width != spec.width_b:
        raise ValueError(
            f"circuit widths {pa.width}x{pb.width} do not match the spec "
            f"{spec.width_a}x{spec.width_b}"
        )
    return pa, pb, circuit.outputs[0]


def _oracle(a_vals: np.ndarray, b_vals: np.ndarray, spec: MultiplierSpec) -> np.ndarray:
    """Whole-array :func:`oracle_product`: range checks, then ``a * b``.

    The product is an int64 array when every operand and product fits in
    int64, else an object array of exact Python ints.
    """
    import numpy as np

    lo_a, hi_a = value_range(spec.width_a, spec.sign_a)
    lo_b, hi_b = value_range(spec.width_b, spec.sign_b)
    bad = (a_vals < lo_a) | (a_vals > hi_a) | (b_vals < lo_b) | (b_vals > hi_b)
    if bad.any():
        i = int(np.argmax(bad))
        oracle_product(int(a_vals[i]), int(b_vals[i]), spec)  # raises the range error
    corners = [x * y for x in (lo_a, hi_a) for y in (lo_b, hi_b)]
    if fits_int64(lo_a, hi_a, lo_b, hi_b, *corners):
        return a_vals * b_vals
    return a_vals.astype(object) * b_vals.astype(object)


def _run(circuit: Circuit, spec: MultiplierSpec, a_vals, b_vals, sort_failures: bool):
    import numpy as np

    pa, pb, po = _ports(circuit, spec)
    expected = _oracle(a_vals, b_vals, spec)
    out = evaluate_vector_array(circuit, {pa.name: a_vals, pb.name: b_vals})
    actual = out[po.name]
    bad = np.flatnonzero(actual != expected)
    if sort_failures:
        # Stable, so equal (a, b) pairs keep vector order.
        bad = bad[np.lexsort((b_vals[bad], a_vals[bad]))]
    return _Failures(
        (pa.name, pb.name), a_vals[bad], b_vals[bad], expected[bad], actual[bad]
    )


def verify_exhaustive(
    circuit: Circuit, spec: MultiplierSpec, max_width: int = 8
) -> VerifyReport:
    """Sweep every operand pair; collects all failures, never stops early."""
    import numpy as np

    if max(spec.width_a, spec.width_b) > max_width:
        raise ValueError(
            f"width {max(spec.width_a, spec.width_b)} exceeds the exhaustive cap "
            f"({max_width}); use verify_random"
        )
    lo_a, hi_a = value_range(spec.width_a, spec.sign_a)
    lo_b, hi_b = value_range(spec.width_b, spec.sign_b)
    a_range = np.arange(lo_a, hi_a + 1, dtype=np.int64)
    b_range = np.arange(lo_b, hi_b + 1, dtype=np.int64)
    a_vals = np.repeat(a_range, len(b_range))
    b_vals = np.tile(b_range, len(a_range))
    failures = _run(circuit, spec, a_vals, b_vals, sort_failures=False)
    return VerifyReport(mode="exhaustive", total_vectors=len(a_vals), failures=failures)


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
    dtype=np.int64, endpoint=True)``.  A wider range of span ``hi - lo``
    with ``k`` bits is drawn as ``ceil(k / 64)`` uint64 limbs per value
    (least significant first; all limbs of a value come from one row of a
    ``(m, limbs)`` uint64 draw), the top limb masked to the remaining bits.
    Values above the span are rejected and the shortfall is drawn again;
    ``lo`` is then added.  For 64-bit unsigned this is one unmasked uint64
    per value, and nothing is ever rejected.
    """
    import numpy as np

    lo, hi = value_range(width, signedness)
    if fits_int64(lo, hi):
        return rng.integers(lo, hi, size=count, dtype=np.int64, endpoint=True)
    span = hi - lo
    nlimbs = -(-span.bit_length() // 64)
    top_mask = np.uint64((1 << (span.bit_length() - 64 * (nlimbs - 1))) - 1)
    vals = np.zeros(0, dtype=object)
    while len(vals) < count:
        words = rng.integers(
            0, (1 << 64) - 1, size=(count - len(vals), nlimbs),
            dtype=np.uint64, endpoint=True,
        )
        words[:, -1] &= top_mask
        cand = _ints_from_limbs(words)
        vals = np.concatenate([vals, cand[cand <= span]])
    return vals + lo


def verify_random(
    circuit: Circuit, spec: MultiplierSpec, count: int, seed: int
) -> VerifyReport:
    """Seeded random vectors plus the full boundary-pair cross product.

    The same (seed, count, spec) always tests the same vectors; the PRNG is
    recorded in the report so runs are reproducible elsewhere.  One PCG64
    generator draws ``count`` values for A, then ``count`` for B (see
    :func:`_draw` for operand ranges wider than int64).
    """
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    ba = boundary_values(spec.width_a, spec.sign_a)
    bb = boundary_values(spec.width_b, spec.sign_b)
    corner_a = [a for a in ba for _ in bb]
    corner_b = [b for _ in ba for b in bb]

    rng = np.random.default_rng(seed)
    a_vals = np.concatenate([
        np.array(corner_a, dtype=port_dtype(spec.width_a, spec.sign_a)),
        _draw(rng, spec.width_a, spec.sign_a, count),
    ])
    b_vals = np.concatenate([
        np.array(corner_b, dtype=port_dtype(spec.width_b, spec.sign_b)),
        _draw(rng, spec.width_b, spec.sign_b, count),
    ])
    failures = _run(circuit, spec, a_vals, b_vals, sort_failures=True)
    return VerifyReport(
        mode="random",
        total_vectors=len(a_vals),
        failures=failures,
        boundary_vectors=len(corner_a),
        requested_count=count,
        seed=seed,
        algorithm=RANDOM_ALGORITHM,
    )
