"""Equivalence checking of multiplier netlists against host-integer products.

The oracle is deliberately boring: multiply the operands on the host,
compare.  It never touches generator or simulator word paths, so a bug in
the netlist machinery cannot hide itself.  The exhaustive sweep runs
without numpy: the simulator's lane batch of every operand pair gives the
products as a list, against ``[x * y for x in range_a for y in range_b]``.
The random run streams: it simulates, multiplies and compares one chunk
at a time, the boundary pairs first and then ``sim._CHUNK`` (65,536) draws
at a time, and keeps only the failing vectors, so a passing run holds one
chunk whatever its count.  It multiplies numpy int64 arrays when every
operand and every product fits in int64 (decided from the port ranges with
Python ints) and exact Python ints otherwise.  numpy is imported inside
the functions that use it, not at module top, so an exhaustive ``verify``
does not load it; ``gen`` and ``compare`` do not import this module at all.
Both entry points first refuse a spec whose operand widths or signs differ
from the circuit's ports, before any vector is made; every other operand
fact (ranges, boundary values, draws, the oracle's dtype) is the ports'.

A report's ``failures`` is a read-only sequence of ``(inputs, expected,
actual)`` rows in (A, B) order.  The failing vectors stay in four columns,
lists of Python ints after an exhaustive run, which finds them in that
order, and numpy arrays of the narrowest integer dtype that holds each
column after a random run, which sorts them once at its end with
:func:`_sort_rows`.  A row's tuple is built only when the row is read: a
FAIL report that prints 20 witnesses builds 20 tuples, however many
vectors failed.  The JSON report is written from the columns, a block of
rows at a time.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import TYPE_CHECKING

from .netlist import Circuit
from .sim import (
    _CHUNK,
    _evaluate_sweep,
    _ints_from_limbs,
    evaluate_vector_array,
    fits_int64,
    port_dtype,
    value_range,
)

if TYPE_CHECKING:
    import numpy as np

    from .multipliers import MultiplierSpec

#: PRNG identifier recorded in random reports.
RANDOM_ALGORITHM = "numpy-pcg64"

#: Widest operand :func:`verify_exhaustive` sweeps (2**16 vectors at 8 bits).
EXHAUSTIVE_MAX_WIDTH = 8

# Most random vectors :func:`verify_random` draws: 2**24 check bw16 in about
# 2.5 s.  The process peaks at 43 MB RSS when they pass, as a run holds one
# chunk of vectors at a time, and at 264 MB when half of them fail (text or
# JSON report): the failing vectors take 12 bytes each at 16 bits, and
# sorting them about 14 more, for the order and one sorted column at a time.
_MAX_COUNT = 1 << 24

# Failing vectors that ``VerifyReport.to_text`` lists before "... and N more".
_MAX_WITNESSES = 20


# One failing vector: its operands by port name, the product, the netlist's output.
_Failure = tuple[dict[str, int], int, int]

# Rows built per step when a failure sequence is iterated or written as JSON.
_ROW_BLOCK = 4096


class _Failures(Sequence):
    """The failing vectors of one run, held as four equal-length columns
    (A, B, expected, actual) in (A, B) order: numpy arrays or lists of
    Python ints.

    A row reads as ``({name_a: a, name_b: b}, expected, actual)`` with Python
    ints, the tuple a list of failures would hold; it is built when indexed,
    sliced (a slice is a list) or iterated.  Equality is element-wise with
    any sequence, as for a list.
    """

    __slots__ = ("_names", "_columns")

    def __init__(self, names: tuple[str, str], columns):
        self._names = names
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._rows(index)
        i = range(len(self))[index]  # int index rules, IndexError included
        return self._rows(slice(i, i + 1))[0]

    def __iter__(self):
        for start in range(0, len(self), _ROW_BLOCK):
            yield from self._rows(slice(start, start + _ROW_BLOCK))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))

    def _rows(self, index: slice) -> list[_Failure]:
        name_a, name_b = self._names
        return [({name_a: a, name_b: b}, e, g) for a, b, e, g in zip(*self._values(index))]

    def _values(self, index: slice) -> list[list[int]]:
        """Each column's Python ints at the rows of this slice."""
        return [c[index] if type(c) is list else c[index].tolist() for c in self._columns]


_quote = json.encoder.encode_basestring_ascii

# A report as ``json.dumps(doc, indent=2)`` writes it, up to its failures.
_REPORT_JSON = (
    '{\n  "mode": %s,\n  "passed": %s,\n  "total_vectors": %s,\n'
    '  "boundary_vectors": %s,\n  "requested_count": %s,\n  "seed": %s,\n'
    '  "algorithm": %s,\n  "failures": '
)


def _failure_template(names) -> str:
    """%-template of one failure of the JSON report whose inputs have these
    names; the input values, then the expected and actual product fill it."""
    inputs = ",\n".join(
        f"        {_quote(name).replace('%', '%%')}: %d" for name in names
    )
    inputs = "{\n" + inputs + "\n      }" if inputs else "{}"
    return '    {\n      "inputs": ' + inputs + ',\n      "expected": %d,\n      "actual": %d\n    }'


def _failure_blocks(failures: Sequence[_Failure]) -> Iterator[str]:
    """The failures of the JSON report, ``_ROW_BLOCK`` at a time, each block
    its rows joined by ``",\\n"``.  The rows of a :class:`_Failures` are
    written from its columns with one template; any other sequence's rows
    each with their own."""
    template = _failure_template(failures._names) if isinstance(failures, _Failures) else None
    for start in range(0, len(failures), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        if template is None:
            rows = [_failure_template(inputs) % (*inputs.values(), expected, actual)
                    for inputs, expected, actual in failures[block]]
        else:
            rows = [template % values for values in zip(*failures._values(block))]
        yield ",\n".join(rows)


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

    def json_blocks(self) -> Iterator[str]:
        """The JSON report in blocks of text, at most ``_ROW_BLOCK`` failures
        each; joined, they are ``json.dumps(doc, indent=2) + "\\n"`` of the
        fields, each failure as ``{"inputs", "expected", "actual"}``."""
        head = _REPORT_JSON % tuple(map(json.dumps, (
            self.mode, self.passed, self.total_vectors, self.boundary_vectors,
            self.requested_count, self.seed, self.algorithm,
        )))
        blocks = _failure_blocks(self.failures)
        first = next(blocks, None)
        if first is None:
            yield head + "[]\n}\n"
            return
        yield head + "[\n" + first
        for block in blocks:
            yield ",\n" + block
        yield "\n  ]\n}\n"

    def to_json(self) -> str:
        return "".join(self.json_blocks())


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
    failures = _Failures((pa.name, pb.name), (
        [lo_a + (k >> pb.width) for k in bad],
        [lo_b + (k & (hi_b - lo_b)) for k in bad],
        list(map(expected.__getitem__, bad)),
        list(map(actual.__getitem__, bad)),
    ))
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


def _sort_rows(columns: list, lo_a: int, lo_b: int, width_a: int, width_b: int) -> None:
    """Put the rows of ``columns``, A and B first, in (A, B) order in place,
    ties kept in index order, as ``np.lexsort((b, a))`` orders them.  Each
    unsorted column is freed as its sorted copy replaces it: never two
    copies of every column.

    numpy radix-sorts only keys of 16 bits or less.  Wider operands whose
    widths sum to at most 64 are sorted as one packed key,
    ``(a - lo_a) << width_b | (b - lo_b)``, in about half the time of a
    lexsort of the two columns.  A and B are dropped once the key is built
    and rebuilt, in their dtypes, from the sorted key, so neither lives
    next to the key, the order and the sort's buffer.
    """
    import numpy as np

    a, b = columns[:2]
    if max(a.itemsize, b.itemsize) <= 2 or width_a + width_b > 64:
        order = np.lexsort((b, a))
        del a, b
        for i in range(len(columns)):
            columns[i] = columns[i][order]
        return
    dtype_a, dtype_b = a.dtype, b.dtype
    columns[:2] = None, None
    key = np.subtract(a, lo_a, dtype=np.int64).view(np.uint64)
    del a
    key <<= np.uint64(width_b)
    key |= np.subtract(b, lo_b, dtype=np.int64).view(np.uint64)
    del b
    order = np.argsort(key, kind="stable")
    for i in range(2, len(columns)):
        columns[i] = columns[i][order]
    del order
    # Equal keys are equal (A, B) pairs, so an in-place sort, which needs
    # no copy, gives the sorted key.
    key.sort()
    a = (key >> np.uint64(width_b)).view(np.int64)
    a += lo_a
    columns[0] = a.astype(dtype_a, copy=False)
    del a
    b = key.view(np.int64)
    b &= (1 << width_b) - 1
    b += lo_b
    columns[1] = b.astype(dtype_b, copy=False)


def _pair_order(a, b, lo_a: int, lo_b: int, width_a: int, width_b: int):
    """Indices that sort the pairs ``(a[i], b[i])`` by A, then B, ties kept
    in index order: the order :func:`_sort_rows` puts rows in."""
    import numpy as np

    rows = [a, b, np.arange(len(a))]
    _sort_rows(rows, lo_a, lo_b, width_a, width_b)
    return rows[2]


def verify_random(
    circuit: Circuit, spec: MultiplierSpec, count: int, seed: int
) -> VerifyReport:
    """Seeded random vectors plus the full boundary-pair cross product.

    The same (seed, count, ports) always tests the same vectors; the PRNG is
    recorded in the report so runs are reproducible elsewhere.  One PCG64
    generator draws ``count`` values for A, then ``count`` for B (see
    :func:`_draw` for operand ranges wider than int64).

    The vectors are simulated, multiplied and compared a chunk at a time:
    the boundary pairs are the first chunk, then the draws ``_CHUNK`` at a
    time.  Only the failing ones are kept, each column in its narrowest
    dtype; at the end one sort puts them in (A, B) order.  A
    second generator from the same seed draws A's values once, only to
    reach the state that B's draws start from.  The bit generator keeps the
    unused half of a 64-bit word between calls, so draws made chunk by
    chunk are those of one call per operand.
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

    corner_a, corner_b = (
        np.array(boundary_values(p.width, p.signedness), dtype=port_dtype(p.width, p.signedness))
        for p in (pa, pb)
    )
    sizes = [min(_CHUNK, count - start) for start in range(0, count, _CHUNK)]
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in sizes:
        _draw(rng_b, pa.width, pa.signedness, n)
    ra, rb = value_range(pa.width, pa.signedness), value_range(pb.width, pb.signedness)
    products = [x * y for x in ra for y in rb]
    in_int64 = fits_int64(*ra, *rb, *products)
    # Each column's narrowest signed dtype (every range holds 0), object
    # past int64.
    dtypes = [np.min_scalar_type(min(lo, -hi - 1)) for lo, hi in (
        ra, rb, (min(products), max(products)), value_range(po.width, po.signedness))]
    # The failing values of each column, in vector order: an array.array,
    # whose buffer grows in place, for an integer dtype; pieces for object.
    stores = [[] if dtype == object else array(dtype.char) for dtype in dtypes]
    chunks = chain(
        [(np.repeat(corner_a, len(corner_b)), np.tile(corner_b, len(corner_a)))],
        ((_draw(rng_a, pa.width, pa.signedness, n), _draw(rng_b, pb.width, pb.signedness, n))
         for n in sizes),
    )
    for a, b in chunks:
        # The simulator checks every operand against its port's range.
        actual = evaluate_vector_array(circuit, {pa.name: a, pb.name: b})[po.name]
        expected = a * b if in_int64 else a.astype(object) * b.astype(object)
        bad = np.flatnonzero(actual != expected)
        for store, column, dtype in zip(stores, (a, b, expected, actual), dtypes):
            if dtype == object:
                store.append(column[bad])
            else:
                store.frombytes(column[bad].astype(dtype).tobytes())
    columns = [np.concatenate(store) if dtype == object else np.frombuffer(store, dtype)
               for store, dtype in zip(stores, dtypes)]
    del stores, store  # the last column's store too, which the loop above keeps
    # Into (A, B) order; each column frees its store as it is replaced.
    _sort_rows(columns, ra[0], rb[0], pa.width, pb.width)
    boundary = len(corner_a) * len(corner_b)
    return VerifyReport(
        mode="random",
        total_vectors=boundary + count,
        failures=_Failures((pa.name, pb.name), columns),
        boundary_vectors=boundary,
        requested_count=count,
        seed=seed,
        algorithm=RANDOM_ALGORITHM,
    )
