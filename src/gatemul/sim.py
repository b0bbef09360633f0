"""Bit-exact combinational evaluation plus the integer <-> bit encoding rules.

Bit 0 is always the LSB; a signed port of width n gives its top bit weight
-2**(n-1).  The simulator runs the netlist itself, not any word-level
shortcut.  On its first simulation a circuit is compiled into one program:
its gates in dependency order as parallel lists of op codes and value
slots.  A liveness pass hands a net's slot on to a later net once the net's
last reader has run, so a program holds a few hundred values where the
circuit has thousands of nets.  The program is cached on the ``Circuit``
object like its structural analysis, outside the dataclass fields.

Scalar and batch evaluation run the same program.  A batch packs many
vectors into the bits of one Python integer per value ("lanes"), chunk by
chunk; packing and unpacking transpose whole chunks at once (bytes, then
8x8 bit blocks), and outputs are bit-identical to scalar evaluation.  Every
entry point takes a port value once through ``operator.index``, so any
integer is exact and anything else is refused.  Port values travel as int64
arrays when the port's range fits in int64 and as object arrays of exact
Python ints otherwise.  numpy is imported inside the functions that build or read
those arrays, not at module top, so importing gatemul (as ``gen`` and
``compare`` do) does not load it.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

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
    """Two's-complement (or plain binary) bits of ``operator.index(value)``,
    LSB first; a value without ``__index__`` raises ``TypeError``."""
    value = operator.index(value)
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


# Op codes, in the order _evaluate_lanes tests them: AND2, XOR2 and OR2 make
# up over 98% of every generated multiplier's gates.
_AND2, _XOR2, _OR2, _NOT, _NAND2, _NOR2, _XNOR2, _BUF, _CONST1, _CONST0 = range(10)
_OPCODES = {
    GateKind.AND2: _AND2,
    GateKind.XOR2: _XOR2,
    GateKind.OR2: _OR2,
    GateKind.NOT: _NOT,
    GateKind.NAND2: _NAND2,
    GateKind.NOR2: _NOR2,
    GateKind.XNOR2: _XNOR2,
    GateKind.BUF: _BUF,
    GateKind.CONST1: _CONST1,
    GateKind.CONST0: _CONST0,
}


class _Program(NamedTuple):
    """A circuit compiled for simulation; built by :func:`_compile`.

    Gate ``i`` of the schedule writes slot ``outs[i]`` from slots ``in0[i]``
    and ``in1[i]`` (both 0 for a constant, equal for a one-input gate).  The
    input-port bits, ports in order and LSB first, start in slots 0, 1, ...;
    ``out_slots`` lists the slot of each output-port bit in the same order.
    """

    ops: list[int]
    outs: list[int]
    in0: list[int]
    in1: list[int]
    out_slots: list[int]
    slot_count: int


def _compile(circuit: Circuit) -> _Program:
    """Order the gates, give each net a slot, and reuse a slot once the net
    it holds is dead.

    Input-port bits get distinct slots.  A gate's output takes a free slot
    after the slots of the inputs it reads for the last time are freed, so it
    may overwrite one of them.  Output-port nets are never freed; a net that
    nothing reads frees its slot right after it is written.  Raises
    :class:`ValidationError` on an invalid circuit and ``KeyError`` on a gate
    kind without an op code.
    """
    order = [circuit.gates[gi] for gi in _require_valid(circuit).schedule]
    # Step of each net's last read: -1 if never read, len(order) if an output.
    last = [-1] * circuit.net_count
    for t, g in enumerate(order):
        for net in g.inputs:
            last[net] = t
    for p in circuit.outputs:
        for net in p.bits:
            last[net] = len(order)

    slot = [0] * circuit.net_count
    in_nets = [net for p in circuit.inputs for net in p.bits]
    for s, net in enumerate(in_nets):
        slot[net] = s
    count = len(in_nets)
    free = [slot[net] for net in in_nets if last[net] < 0]
    ops, outs, in0, in1 = [], [], [], []
    for t, (kind, ins, out) in enumerate(order):
        ops.append(_OPCODES[kind])
        in0.append(slot[ins[0]] if ins else 0)
        in1.append(slot[ins[-1]] if ins else 0)
        for net in ins:
            if last[net] == t:
                last[net] = -1  # freed once, even when read twice (x op x)
                free.append(slot[net])
        if free:
            s = free.pop()
        else:
            s = count
            count += 1
        slot[out] = s
        outs.append(s)
        if last[out] < 0:
            free.append(s)
    out_slots = [slot[net] for p in circuit.outputs for net in p.bits]
    return _Program(ops, outs, in0, in1, out_slots, count)


def _program(circuit: Circuit) -> _Program:
    """The circuit's program, compiled on its first simulation.

    It is kept in the instance ``__dict__``, not in a field, so equality,
    hashing, ``repr`` and JSON ignore it.  A concurrent first call may
    compile twice, with the same result.
    """
    program = circuit.__dict__.get("_program")
    if program is None:
        program = circuit.__dict__["_program"] = _compile(circuit)
    return program


def _evaluate_lanes(program: _Program, in_lanes: Sequence[int], mask: int) -> list[int]:
    """Run ``program`` on one lane integer per input-port bit; returns one
    per output-port bit.  ``mask`` is the all-ones mask of the active lanes;
    with ``mask == 1`` these are plain single-bit ops."""
    v = [*in_lanes]
    v += [0] * (program.slot_count - len(v))
    for op, o, a, b in zip(program.ops, program.outs, program.in0, program.in1):
        if op == _AND2:
            v[o] = v[a] & v[b]
        elif op == _XOR2:
            v[o] = v[a] ^ v[b]
        elif op == _OR2:
            v[o] = v[a] | v[b]
        elif op == _NOT:
            v[o] = v[a] ^ mask
        elif op == _NAND2:
            v[o] = (v[a] & v[b]) ^ mask
        elif op == _NOR2:
            v[o] = (v[a] | v[b]) ^ mask
        elif op == _XNOR2:
            v[o] = v[a] ^ v[b] ^ mask
        elif op == _BUF:
            v[o] = v[a]
        elif op == _CONST1:
            v[o] = mask
        else:  # _CONST0; _compile admits no other code
            v[o] = 0
    return [v[s] for s in program.out_slots]


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
    """Evaluate one assignment; returns output-port values as Python ints.

    Every input port must be assigned an integer (``__index__``, so numpy
    integer scalars too) in range for its width and signedness.
    Deterministic and pure: the same circuit and assignment always produce
    the same outputs.
    """
    program = _program(circuit)
    _check_names(circuit, inputs.keys())
    lanes = []
    for p in circuit.inputs:
        try:
            lanes += encode(inputs[p.name], p.width, p.signedness)
        except TypeError:
            raise ValueError(f"values for {p.name!r} must be integers") from None
        except ValueError:
            lo, hi = value_range(p.width, p.signedness)
            raise ValueError(
                f"value {operator.index(inputs[p.name])} out of range "
                f"[{lo}, {hi}] for port {p.name!r}"
            ) from None
    bits = _evaluate_lanes(program, lanes, 1)
    out, at = {}, 0
    for p in circuit.outputs:
        out[p.name] = decode(bits[at:at + p.width], p.signedness)
        at += p.width
    return out


def _transpose8(words: np.ndarray) -> None:
    """Transpose the 8x8 bit matrix held in each uint64, in place: bit
    ``8*r + c`` trades places with bit ``8*c + r`` (Warren, *Hacker's
    Delight*, section 7-3)."""
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        t = ((words >> shift) ^ words) & mask
        words ^= t
        words ^= t << shift


def _pack_port(values: np.ndarray, width: int) -> list[int]:
    """One lane integer per bit position; lane bit k = vector k's bit.

    Values are split into 64-bit two's-complement limbs: an int64 array is
    its own single limb, an object array of Python ints is cut into as many
    limbs as the width needs.  Byte q of every vector makes up plane q, so
    each 8-byte word of a plane holds byte q of eight vectors; one 8x8 bit
    transpose per word turns it into one byte of each of eight lanes.
    """
    import numpy as np

    count = len(values)
    groups = -(-count // 8)
    nbytes = -(-width // 8)
    if values.dtype == object:
        limbs = np.stack([
            ((values >> base) & _M64).astype("<u8") for base in range(0, width, 64)
        ], axis=1)
    else:
        limbs = values.astype("<u8").reshape(count, 1)
    # planes[q, k] = byte q of vector k; padding vectors are 0.  Word i of
    # plane q holds byte q of vectors 8*i to 8*i + 7.
    planes = np.zeros((nbytes, groups * 8), np.uint8)
    planes[:, :count] = limbs.view(np.uint8)[:, :nbytes].T
    words = planes.view("<u8")
    _transpose8(words)
    # Now byte c of words[q, i] is byte i of lane 8*q + c.
    buf = memoryview(words.view(np.uint8).reshape(nbytes, groups, 8)
                     .transpose(0, 2, 1).tobytes())
    return [int.from_bytes(buf[j * groups:(j + 1) * groups], "little")
            for j in range(width)]


def _unpack_port(
    lanes: Sequence[int], width: int, count: int, signedness: Signedness
) -> np.ndarray:
    """Inverse of :func:`_pack_port`: ``count`` port values from one lane per
    bit, as an int64 or object array by :func:`port_dtype`."""
    import numpy as np

    groups = -(-count // 8)
    nbytes = -(-width // 8)
    raw = b"".join(lane.to_bytes(groups, "little") for lane in lanes)
    raw += bytes(groups * (8 * nbytes - width))  # zero lanes up to whole bytes
    # Byte c of words[q, i] is byte i of lane 8*q + c.
    words = (np.frombuffer(raw, np.uint8).reshape(nbytes, 8, groups)
             .transpose(0, 2, 1).copy().view("<u8").reshape(nbytes, groups))
    _transpose8(words)
    # Now byte q of vector k is planes[q, k].
    planes = words.view(np.uint8)
    limbs = np.zeros((count, -(-width // 64)), "<u8")
    limb_bytes = limbs.view(np.uint8)
    for q in range(nbytes):
        limb_bytes[:, q] = planes[q, :count]
    signed = signedness is Signedness.SIGNED
    if port_dtype(width, signedness) is np.int64:
        values = limbs.reshape(count).view(np.int64)
        if signed:
            # Move the sign bit to bit 63, then shift back arithmetically.
            values <<= 64 - width
            values >>= 64 - width
        return values
    acc = _ints_from_limbs(limbs)
    if signed:
        acc -= ((acc >> (width - 1)) & 1) << width
    return acc


def _ints_from_limbs(limbs: np.ndarray) -> np.ndarray:
    """Exact Python ints (an object array) from rows of uint64 limbs, least
    significant limb first."""
    acc = limbs[:, -1].astype(object)
    for k in range(limbs.shape[1] - 2, -1, -1):
        acc = (acc << 64) | limbs[:, k].astype(object)
    return acc


def evaluate_vector_array(
    circuit: Circuit,
    values: Mapping[str, "np.typing.ArrayLike"],
    chunk_size: int = 1 << 16,
) -> dict[str, np.ndarray]:
    """Vectorized :func:`evaluate` over equal-length arrays of port values.

    Each input must be a one-dimensional integer-dtype array, or an object
    array or sequence whose items :func:`evaluate` accepts.  Vectors are
    packed into bit lanes and pushed through the netlist in chunks of
    ``chunk_size``; results do not depend on the chunking.  Each output is
    an int64 array when its port's range fits in int64, else an object
    array of exact Python ints.  A circuit without input ports gives no
    vector count and is refused with ``ValueError``.
    """
    import numpy as np

    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    program = _program(circuit)
    _check_names(circuit, values.keys())
    arrays: dict[str, np.ndarray] = {}
    n = None
    for port in circuit.inputs:
        arr = values[port.name]
        if not isinstance(arr, np.ndarray):
            # Inferred, a dtype would turn ints of 2**63 and up into floats.
            arr = np.array(arr, dtype=object)
        # Before the conversion, which turns a 0-d array into a bare int.
        if arr.ndim != 1:
            raise ValueError(f"values for {port.name!r} must be one-dimensional")
        if arr.dtype == object:
            try:
                arr = np.frompyfunc(operator.index, 1, 1)(arr)
            except TypeError:
                raise ValueError(f"values for {port.name!r} must be integers") from None
        elif arr.dtype.kind not in "iu":
            raise ValueError(f"values for {port.name!r} must be integers, not {arr.dtype}")
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
        arrays[port.name] = arr.astype(port_dtype(port.width, port.signedness), copy=False)
    if n is None:
        raise ValueError("circuit has no input port, so no vector count")
    out = {p.name: np.empty(n, port_dtype(p.width, p.signedness)) for p in circuit.outputs}
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        lanes = []
        for p in circuit.inputs:
            lanes += _pack_port(arrays[p.name][start:stop], p.width)
        bits = _evaluate_lanes(program, lanes, (1 << (stop - start)) - 1)
        at = 0
        for p in circuit.outputs:
            out[p.name][start:stop] = _unpack_port(
                bits[at:at + p.width], p.width, stop - start, p.signedness
            )
            at += p.width
    return out


def evaluate_batch(
    circuit: Circuit,
    vectors: Sequence[Mapping[str, int]],
    chunk_size: int = 1 << 16,
) -> list[dict[str, int]]:
    """Apply :func:`evaluate` to each assignment, order preserved."""
    if not vectors:
        return []
    for idx, vec in enumerate(vectors):
        try:
            _check_names(circuit, vec.keys())
        except ValueError as exc:
            raise ValueError(f"vector {idx}: {exc}") from None
    if not circuit.inputs:
        return [evaluate(circuit, vec) for vec in vectors]
    arrays = {p.name: [vec[p.name] for vec in vectors] for p in circuit.inputs}
    out = evaluate_vector_array(circuit, arrays, chunk_size=chunk_size)
    return [{name: int(col[i]) for name, col in out.items()} for i in range(len(vectors))]
