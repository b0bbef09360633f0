"""Bit-exact combinational evaluation plus the integer <-> bit encoding rules.

Bit 0 is always the LSB; a signed port of width n gives its top bit weight
-2**(n-1).  The simulator walks gates in dependency order holding one value
per net, so the netlist itself (not any word-level shortcut) produces the
result.  Batch evaluation packs many vectors into the bits of one Python
integer per net and runs the same gate table once per chunk; outputs are
bit-identical to scalar evaluation.  Port values travel as int64 arrays when
the port's range fits in int64 and as object arrays of exact Python ints
otherwise, so the array path is exact at every width.  numpy is imported
inside the functions that build or read those arrays, not at module top, so
importing gatemul (as ``gen`` and ``compare`` do) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .netlist import Circuit, GateKind, Signedness, _require_valid

if TYPE_CHECKING:
    import numpy as np

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_M64 = (1 << 64) - 1


def fits_int64(*values: int) -> bool:
    """Whether every one of these Python ints is representable as int64."""
    return all(_INT64_MIN <= v <= _INT64_MAX for v in values)


def port_dtype(width: int, signedness: Signedness):
    """Array dtype for a port's values: int64 if its range fits, else object."""
    import numpy as np

    return np.int64 if fits_int64(*value_range(width, signedness)) else object


def value_range(width: int, signedness: Signedness) -> tuple[int, int]:
    """Inclusive (lo, hi) representable by a port of this width/signedness."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if signedness is Signedness.SIGNED:
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


def encode(value: int, width: int, signedness: Signedness) -> list[int]:
    """Two's-complement (or plain binary) bits of ``value``, LSB first."""
    lo, hi = value_range(width, signedness)
    if not lo <= value <= hi:
        raise ValueError(
            f"value {value} out of range [{lo}, {hi}] for "
            f"{signedness.value} width {width}"
        )
    u = value & ((1 << width) - 1)
    return [(u >> i) & 1 for i in range(width)]


def decode(bits: Sequence[int], signedness: Signedness) -> int:
    """Integer value of LSB-first bits; inverse of :func:`encode`."""
    if not bits:
        raise ValueError("cannot decode an empty bit vector")
    u = 0
    for i, b in enumerate(bits):
        u |= (b & 1) << i
    if signedness is Signedness.SIGNED and bits[-1] & 1:
        u -= 1 << len(bits)
    return u


# Gate semantics over lane integers.  ``m`` is the all-ones mask for the
# active lanes; with m == 1 these are plain single-bit ops.
_GATE_OPS = {
    GateKind.CONST0: lambda ins, m: 0,
    GateKind.CONST1: lambda ins, m: m,
    GateKind.NOT: lambda ins, m: ins[0] ^ m,
    GateKind.BUF: lambda ins, m: ins[0],
    GateKind.AND2: lambda ins, m: ins[0] & ins[1],
    GateKind.NAND2: lambda ins, m: (ins[0] & ins[1]) ^ m,
    GateKind.OR2: lambda ins, m: ins[0] | ins[1],
    GateKind.NOR2: lambda ins, m: (ins[0] | ins[1]) ^ m,
    GateKind.XOR2: lambda ins, m: ins[0] ^ ins[1],
    GateKind.XNOR2: lambda ins, m: (ins[0] ^ ins[1]) ^ m,
}


def _evaluate_lanes(
    circuit: Circuit,
    in_lanes: Mapping[str, Sequence[int]],
    mask: int,
    schedule: Sequence[int],
) -> dict[str, list[int]]:
    values: list[int] = [0] * circuit.net_count
    for port in circuit.inputs:
        lanes = in_lanes[port.name]
        for net, lane in zip(port.bits, lanes):
            values[net] = lane
    gates = circuit.gates
    for gi in schedule:
        g = gates[gi]
        values[g.output] = _GATE_OPS[g.kind]([values[i] for i in g.inputs], mask)
    return {p.name: [values[net] for net in p.bits] for p in circuit.outputs}


def _check_names(circuit: Circuit, names) -> None:
    want = {p.name for p in circuit.inputs}
    got = set(names)
    missing = want - got
    if missing:
        raise ValueError(f"missing value for input port(s) {sorted(missing)}")
    extra = got - want
    if extra:
        raise ValueError(f"unknown input port(s) {sorted(extra)}")


def evaluate(circuit: Circuit, inputs: Mapping[str, int]) -> dict[str, int]:
    """Evaluate one assignment; returns output-port values decoded per port.

    Every input port must be assigned a value in range for its width and
    signedness.  Deterministic and pure: the same circuit and assignment
    always produce the same outputs.
    """
    schedule = _require_valid(circuit).schedule
    _check_names(circuit, inputs.keys())
    lanes = {
        p.name: encode(inputs[p.name], p.width, p.signedness) for p in circuit.inputs
    }
    out = _evaluate_lanes(circuit, lanes, 1, schedule)
    return {
        p.name: decode(out[p.name], p.signedness) for p in circuit.outputs
    }


def _pack_port(values: np.ndarray, width: int) -> list[int]:
    """One lane integer per bit position; lane bit k = vector k's bit.

    Values are split into 64-bit two's-complement limbs: an int64 array is
    its own single limb, an object array of Python ints is cut into as many
    limbs as the width needs.
    """
    import numpy as np

    if values.dtype == object:
        limbs = [
            ((values >> base) & _M64).astype(np.uint64) for base in range(0, width, 64)
        ]
    else:
        limbs = [values.astype(np.uint64)]
    lanes = []
    for j in range(width):
        col = ((limbs[j >> 6] >> np.uint64(j & 63)) & np.uint64(1)).astype(np.uint8)
        lanes.append(int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little"))
    return lanes


def _unpack_port(
    lanes: Sequence[int], width: int, count: int, signedness: Signedness
) -> np.ndarray:
    import numpy as np

    nbytes = (count + 7) // 8
    limbs = [np.zeros(count, dtype=np.uint64) for _ in range(0, width, 64)]
    for j, lane in enumerate(lanes):
        raw = np.frombuffer(lane.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, count=count, bitorder="little").astype(np.uint64)
        limbs[j >> 6] |= bits << np.uint64(j & 63)
    signed = signedness is Signedness.SIGNED
    if port_dtype(width, signedness) is np.int64:
        if not signed:
            return limbs[0].view(np.int64)
        # Move the sign bit to bit 63, then shift back arithmetically.
        shift = np.uint64(64 - width)
        return (limbs[0] << shift).view(np.int64) >> np.int64(shift)
    acc = limbs[-1].astype(object)
    for limb in reversed(limbs[:-1]):
        acc = (acc << 64) | limb.astype(object)
    if signed:
        acc -= ((acc >> (width - 1)) & 1) << width
    return acc


def evaluate_vector_array(
    circuit: Circuit,
    values: Mapping[str, "np.typing.ArrayLike"],
    chunk_size: int = 1 << 16,
) -> dict[str, np.ndarray]:
    """Vectorized :func:`evaluate` over equal-length arrays of port values.

    Vectors are packed into bit lanes and pushed through the netlist in
    chunks of ``chunk_size``; results do not depend on the chunking.  Each
    output is an int64 array when its port's range fits in int64, else an
    object array of exact Python ints.
    """
    import numpy as np

    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    schedule = _require_valid(circuit).schedule
    _check_names(circuit, values.keys())
    arrays: dict[str, np.ndarray] = {}
    n = None
    for port in circuit.inputs:
        arr = np.asarray(values[port.name], dtype=port_dtype(port.width, port.signedness))
        if arr.ndim != 1:
            raise ValueError(f"values for {port.name!r} must be one-dimensional")
        if n is None:
            n = len(arr)
        elif len(arr) != n:
            raise ValueError("all input arrays must have the same length")
        lo, hi = value_range(port.width, port.signedness)
        bad = (arr < lo) | (arr > hi)
        if bad.any():
            idx = int(np.argmax(bad))
            raise ValueError(
                f"vector {idx}: value {int(arr[idx])} out of range "
                f"[{lo}, {hi}] for port {port.name!r}"
            )
        arrays[port.name] = arr
    assert n is not None
    parts: dict[str, list[np.ndarray]] = {p.name: [] for p in circuit.outputs}
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        m = stop - start
        mask = (1 << m) - 1
        lanes = {
            p.name: _pack_port(arrays[p.name][start:stop], p.width)
            for p in circuit.inputs
        }
        out = _evaluate_lanes(circuit, lanes, mask, schedule)
        for p in circuit.outputs:
            parts[p.name].append(_unpack_port(out[p.name], p.width, m, p.signedness))
    return {
        p.name: (
            np.concatenate(parts[p.name]) if parts[p.name]
            else np.zeros(0, dtype=port_dtype(p.width, p.signedness))
        )
        for p in circuit.outputs
    }


def evaluate_batch(
    circuit: Circuit,
    vectors: Sequence[Mapping[str, int]],
    chunk_size: int = 1 << 16,
) -> list[dict[str, int]]:
    """Apply :func:`evaluate` to each assignment, order preserved."""
    if not vectors:
        return []
    names = [p.name for p in circuit.inputs]
    want = set(names)
    for idx, vec in enumerate(vectors):
        if set(vec) != want:
            missing = want - set(vec)
            extra = set(vec) - want
            what = f"missing input port(s) {sorted(missing)}" if missing else \
                f"unknown input port(s) {sorted(extra)}"
            raise ValueError(f"vector {idx}: {what}")
    arrays = {name: [vec[name] for vec in vectors] for name in names}
    out = evaluate_vector_array(circuit, arrays, chunk_size=chunk_size)
    out_names = [p.name for p in circuit.outputs]
    return [
        {name: int(out[name][i]) for name in out_names} for i in range(len(vectors))
    ]
