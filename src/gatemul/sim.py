"""Bit-exact combinational evaluation plus the integer <-> bit encoding rules.

Bit 0 is always the LSB; a signed port of width n gives its top bit weight
-2**(n-1).  The simulator runs the netlist itself, not any word-level
shortcut.  On its first simulation a circuit is compiled into one program:
the gates its outputs depend on, depth first from the output bits so that
each runs right after the gates it reads, each a step of its gate kind and
value slots.  A liveness pass hands a net's slot on to a later net once the
net's last reader has run, so a program holds few values: 104 slots for
bw16's 1,443 nets, 440 for bw64's 24,195 and 1,784 for bw256's 391,683.
In gate order, which builds every partial product before the reducer reads
any, they would be 258, 4,098 and 65,538.  The program is cached on the
``Circuit`` object like its structural analysis, outside the dataclass
fields.

Scalar and batch evaluation run the same program.  A batch packs many
vectors into the bits of one Python integer per value ("lanes"), chunk by
chunk; packing and unpacking transpose whole chunks at once (bytes, then
8x8 bit blocks), and outputs are bit-identical to scalar evaluation.  Every
entry point takes a port value once through ``operator.index``, so any
integer is exact and anything else is refused.  Port values travel as int64
arrays when the port's range fits in int64 and as object arrays of exact
Python ints otherwise; within one lane batch, which ``verify_random``
runs directly, they keep the dtype they are given or read in.  numpy is
imported inside the functions that build or read those arrays, not at
module top, so an exhaustive ``verify`` does not load it; ``gen`` and
``compare`` do not import this module at all.  The exhaustive sweep of a
narrow circuit needs no numpy at all: its input lanes are counting
patterns built from repeated bytes.  One reader,
:func:`_unpack_lanes`, and one 8x8 bit transpose, :func:`_transpose8`,
unpack the output lanes of both: a vector array's in numpy, the sweep's
with Python ints and ``array.array``.
"""

from __future__ import annotations

import operator
from array import array
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .netlist import Circuit, Gate, GateKind, Signedness, _require_valid

if TYPE_CHECKING:
    import numpy as np

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_M64 = (1 << 64) - 1
_CHUNK = 1 << 16  # vectors per lane batch in evaluate_vector_array


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


# The gate kinds in the order _evaluate_lanes tests them: AND2, XOR2 and OR2
# make up over 98% of every generated multiplier's gates.
_AND2, _XOR2, _OR2, _NOT = GateKind.AND2, GateKind.XOR2, GateKind.OR2, GateKind.NOT
_NAND2, _NOR2, _XNOR2, _BUF = GateKind.NAND2, GateKind.NOR2, GateKind.XNOR2, GateKind.BUF
_CONST1, _CONST0 = GateKind.CONST1, GateKind.CONST0


class _Program(NamedTuple):
    """A circuit compiled for simulation; built by :func:`_compile`.

    Step ``(kind, out, in0, in1)`` runs one gate: it writes
    slot ``out`` from slots ``in0`` and ``in1`` (both 0 for a constant, equal
    for a one-input gate).  The input-port bits, ports in order and LSB
    first, start in slots 0, 1, ...; ``out_slots`` lists the slot of each
    output-port bit in the same order.
    """

    steps: list[tuple[GateKind, int, int, int]]
    out_slots: list[int]
    slot_count: int


def _step_order(circuit: Circuit) -> list[Gate]:
    """The gates the outputs read, in depth-first order from the output
    bits: each gate comes right after the gates it reads, in input order.

    A value is then read soon after it is made, so few are live at once, as
    in Sethi and Ullman's order for expression trees ("The Generation of
    Optimal Code for Arithmetic Expressions", JACM 1970), which would also
    pick the input to visit first; in gate order every partial product of a
    multiplier is built before the reducer reads any.  Gates that no output
    reads are left out.  The walk keeps its own stack, as a circuit can be
    thousands of levels deep.  The circuit must be valid.
    """
    driver: list[Gate | None] = [None] * circuit.net_count
    for g in circuit.gates:
        driver[g.output] = g
    seen = bytearray(circuit.net_count)
    order = []
    for root in (net for p in circuit.outputs for net in p.bits):
        g = driver[root]
        if g is None or seen[root]:
            continue
        seen[root] = 1
        stack = [(g, iter(g.inputs))]
        while stack:
            g, ins = stack[-1]
            for net in ins:
                d = driver[net]
                if d is not None and not seen[net]:
                    seen[net] = 1
                    stack.append((d, iter(d.inputs)))
                    break
            else:
                stack.pop()
                order.append(g)
    return order


def _compile(circuit: Circuit) -> _Program:
    """Order the gates by :func:`_step_order`, give each net a slot, and
    reuse a slot once the net it holds is dead.

    Input-port bits get distinct slots.  A gate's output takes a free slot
    after the slots of the inputs it reads for the last time are freed, so it
    may overwrite one of them.  Output-port nets are never freed.  Raises
    :class:`ValidationError` on an invalid circuit.
    """
    _require_valid(circuit)
    order = _step_order(circuit)
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
    steps = []
    for t, (kind, ins, out) in enumerate(order):
        a, b = (slot[ins[0]], slot[ins[-1]]) if ins else (0, 0)
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
        steps.append((kind, s, a, b))
    out_slots = [slot[net] for p in circuit.outputs for net in p.bits]
    return _Program(steps, out_slots, count)


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


def _evaluate_lanes(program: _Program, in_lanes: Iterable[int], mask: int) -> list[int]:
    """Run ``program`` on one lane integer per input-port bit; returns one
    per output-port bit.  ``mask`` is the all-ones mask of the active lanes;
    with ``mask == 1`` these are plain single-bit ops."""
    v = [*in_lanes]
    v += [0] * (program.slot_count - len(v))
    for op, o, a, b in program.steps:
        if op is _AND2:
            v[o] = v[a] & v[b]
        elif op is _XOR2:
            v[o] = v[a] ^ v[b]
        elif op is _OR2:
            v[o] = v[a] | v[b]
        elif op is _NOT:
            v[o] = v[a] ^ mask
        elif op is _NAND2:
            v[o] = (v[a] & v[b]) ^ mask
        elif op is _NOR2:
            v[o] = (v[a] | v[b]) ^ mask
        elif op is _XNOR2:
            v[o] = v[a] ^ v[b] ^ mask
        elif op is _BUF:
            v[o] = v[a]
        elif op is _CONST1:
            v[o] = mask
        elif op is _CONST0:
            v[o] = 0
        else:
            raise NotImplementedError(f"no simulation rule for gate kind {op!r}")
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


# (shift, mask) of the three swap steps of an 8x8 bit transpose.
_TRANSPOSE_STEPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                    (28, 0x00000000F0F0F0F0))


@lru_cache(maxsize=1)
def _repeated_steps(groups: int) -> tuple[tuple[int, int], ...]:
    """:data:`_TRANSPOSE_STEPS` with each mask repeated over ``groups`` words
    of one Python int, built once for the sweep's outputs and bytes."""
    return tuple((shift, int.from_bytes(mask.to_bytes(8, "little") * groups, "little"))
                 for shift, mask in _TRANSPOSE_STEPS)


def _transpose8(words: np.ndarray | int, groups: int) -> np.ndarray | int:
    """Transpose the 8x8 bit matrix held in each of ``groups`` 64-bit words:
    bit ``8*r + c`` trades places with bit ``8*c + r`` (Warren, *Hacker's
    Delight*, section 7-3).

    ``words`` is a uint64 array, changed in place, or one Python int holding
    the words end to end, least significant first, with each mask repeated
    per word; no masked bit moves past its own word.  Returns the words.
    """
    steps = _repeated_steps(groups) if isinstance(words, int) else _TRANSPOSE_STEPS
    for shift, mask in steps:
        t = ((words >> shift) ^ words) & mask
        words ^= t
        words ^= t << shift
    return words


def _pack_port(values: np.ndarray, width: int) -> list[int]:
    """One lane integer per bit position; lane bit k = vector k's bit.

    Each vector's two's-complement bytes are read through a byte view, with
    no copy, from an integer array of any stride whose native (little-endian,
    as :func:`_unpack_lanes` reads too) items hold ``ceil(width / 8)``
    bytes; an object array of Python ints is cut into as many 64-bit limbs
    as the width needs.  Byte q of every vector makes up plane q, so each
    8-byte word of a plane holds byte q of eight vectors; one 8x8 bit
    transpose per word turns it into one byte of each of eight lanes.
    """
    import numpy as np

    count = len(values)
    groups = -(-count // 8)
    nbytes = -(-width // 8)
    if values.dtype == object:
        rows = np.stack([
            ((values >> base) & _M64).astype("<u8") for base in range(0, width, 64)
        ], axis=1)
    else:
        # Each row a one-item view of a value, strided or not, which reads
        # as its bytes, low first.
        rows = values.reshape(count, 1)
    # planes[q, k] = byte q of vector k; padding vectors are 0.  Word i of
    # plane q holds byte q of vectors 8*i to 8*i + 7.
    planes = np.zeros((nbytes, groups * 8), np.uint8)
    planes[:, :count] = rows.view(np.uint8)[:, :nbytes].T
    del rows
    words = planes.view("<u8")
    _transpose8(words, groups)
    # Now byte c of words[q, i] is byte i of lane 8*q + c.
    buf = memoryview(words.view(np.uint8).reshape(nbytes, groups, 8)
                     .transpose(0, 2, 1).tobytes())
    return [int.from_bytes(buf[j * groups:(j + 1) * groups], "little")
            for j in range(width)]


# array.array typecodes by item size: (unsigned, signed); numpy reads the same.
_TYPECODES = {array(u).itemsize: (u, s) for u, s in zip("BHIQ", "bhiq")}


def _unpack_lanes(
    lanes: Sequence[int], width: int, count: int, signedness: Signedness, np=None
) -> list[int] | np.ndarray:
    """Inverse of :func:`_pack_port`: ``count`` port values from one lane per
    bit, as a list of Python ints, or, given the numpy module as ``np``, as
    an array: up to 64 bits, of the item size it reads (signed for a signed
    port), with no copy; an object array past that.

    Byte q of every value comes from lanes 8q to 8q + 7: their bytes,
    interleaved, make word i hold byte i of each of the eight lanes, and one
    8x8 bit transpose per word turns it into byte q of vectors 8i to 8i + 7.
    Those bytes go to every ``size``-th byte of one buffer.  A signed port's
    top lane stands in for the lanes above it, which sign-extends every value
    to the whole item.  Up to 64 bits, one ``array.array`` or numpy buffer of
    that item size reads the buffer; a wider port reads one
    ``int.from_bytes`` per value.
    """
    groups = -(-count // 8)
    signed = signedness is Signedness.SIGNED
    fill = lanes[-1] if signed else 0
    nbytes = -(-width // 8)
    size = next((s for s in _TYPECODES if s >= nbytes), nbytes)
    raw = bytearray(8 * groups * size)
    for q in range(size):
        byte_lanes = [*lanes[8 * q:8 * q + 8]]
        byte_lanes += [fill] * (8 - len(byte_lanes))
        if not any(byte_lanes):
            continue
        words = bytearray(8 * groups)
        for c, lane in enumerate(byte_lanes):
            words[c::8] = lane.to_bytes(groups, "little")
        if np is None:
            words = _transpose8(int.from_bytes(words, "little"), groups).to_bytes(
                8 * groups, "little")
        else:
            _transpose8(np.frombuffer(words, "<u8"), groups)  # in place, in words
        raw[q::size] = words
    del raw[count * size:]  # the padding vectors
    if size in _TYPECODES:
        typecode = _TYPECODES[size][signed]
        if np is None:
            return array(typecode, raw).tolist()
        return np.frombuffer(raw, typecode)
    values = [int.from_bytes(raw[i:i + size], "little", signed=signed)
              for i in range(0, len(raw), size)]
    return values if np is None else np.array(values, object)


def _ints_from_limbs(limbs: np.ndarray) -> np.ndarray:
    """Exact Python ints (an object array) from rows of uint64 limbs, least
    significant limb first."""
    acc = limbs[:, -1].astype(object)
    for k in range(limbs.shape[1] - 2, -1, -1):
        acc = (acc << 64) | limbs[:, k].astype(object)
    return acc


def _check_range(values: np.ndarray, port) -> None:
    """Refuse an array of port values with one outside the port's range."""
    lo, hi = value_range(port.width, port.signedness)
    bad = (values < lo) | (values > hi)
    if bad.any():
        idx = int(bad.argmax())
        raise ValueError(
            f"vector {idx}: value {int(values[idx])} out of range "
            f"[{lo}, {hi}] for port {port.name!r}"
        )


def _evaluate_chunk(
    circuit: Circuit, arrays: Sequence[np.ndarray], count: int
) -> list[np.ndarray]:
    """One lane batch: ``count`` vectors, an array of in-range values per
    input port in port order, each as :func:`_pack_port` reads it, through
    the circuit.  Returns each output port's values as :func:`_unpack_lanes`
    reads them: an array of the smallest item size that holds the port up
    to 64 bits, an object array past that.
    """
    import numpy as np

    program = _program(circuit)
    # An iterator, so that only the lane loop holds an input lane and frees
    # it once its slot is reused.
    lanes = chain.from_iterable(map(_pack_port, arrays, (p.width for p in circuit.inputs)))
    bits = _evaluate_lanes(program, lanes, (1 << count) - 1)
    out, at = [], 0
    for p in circuit.outputs:
        out.append(_unpack_lanes(bits[at:at + p.width], p.width, count, p.signedness, np))
        at += p.width
    return out


def evaluate_vector_array(
    circuit: Circuit,
    values: Mapping[str, "np.typing.ArrayLike"],
) -> dict[str, np.ndarray]:
    """Vectorized :func:`evaluate` over equal-length arrays of port values.

    Each input must be a one-dimensional integer-dtype array, or an object
    array or sequence whose items :func:`evaluate` accepts.  Vectors are
    packed into bit lanes and pushed through the netlist in chunks of
    ``_CHUNK`` (65,536); results do not depend on the chunking.  Each
    output is an int64 array when its port's range fits in int64, else an
    object array of exact Python ints.
    """
    import numpy as np

    _program(circuit)  # an invalid circuit is refused before its values
    _check_names(circuit, values.keys())
    arrays = []
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
        _check_range(arr, port)
        arrays.append(arr.astype(port_dtype(port.width, port.signedness), copy=False))
    out = {p.name: np.empty(n, port_dtype(p.width, p.signedness)) for p in circuit.outputs}
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        chunk = _evaluate_chunk(circuit, [arr[start:stop] for arr in arrays], stop - start)
        for p, values in zip(circuit.outputs, chunk):
            out[p.name][start:stop] = values
    return out


# Lane bytes whose bit k is bit m of k, for m = 0, 1, 2.
_SHORT_PERIODS = (b"\xaa", b"\xcc", b"\xf0")


def _counting_lane(m: int, nbytes: int) -> int:
    """The lane of ``8 * nbytes`` vectors whose bit k is bit ``m`` of k:
    runs of ``2**m`` zeros and ``2**m`` ones, for ``2**(m - 2) <= nbytes``."""
    if m < 3:
        block = _SHORT_PERIODS[m]
    else:
        half = 1 << (m - 3)
        block = bytes(half) + b"\xff" * half
    return int.from_bytes(block * (nbytes // len(block)), "little")


def _evaluate_sweep(circuit: Circuit) -> tuple[int, dict[str, list[int]]]:
    """Every input assignment in one lane batch, without numpy: the vector
    count and each output port's values as a list of Python ints.

    Vector k takes each input port's bits from its own bits of k, the first
    port's the most significant, and gives the port the value ``lo + i`` for
    the number i they make: for two ports that is the A-major cross product
    of their ranges.  ``lo + i`` has the bits of i with the top one inverted
    for a signed port.  The batch is ``2**total_input_width`` vectors, so
    this is for narrow circuits (``verify_exhaustive`` sweeps 16 bits).
    """
    program = _program(circuit)
    total = sum(p.width for p in circuit.inputs)
    count = 1 << total
    mask = (1 << count) - 1
    nbytes = max(1, count >> 3)
    lanes, m = [], total
    for p in circuit.inputs:
        m -= p.width
        port_lanes = [_counting_lane(m + j, nbytes) & mask for j in range(p.width)]
        if p.signedness is Signedness.SIGNED:
            port_lanes[-1] ^= mask
        lanes += port_lanes
    bits = _evaluate_lanes(program, lanes, mask)
    out, at = {}, 0
    for p in circuit.outputs:
        out[p.name] = _unpack_lanes(bits[at:at + p.width], p.width, count, p.signedness)
        at += p.width
    return count, out


def evaluate_batch(
    circuit: Circuit,
    vectors: Sequence[Mapping[str, int]],
) -> list[dict[str, int]]:
    """Apply :func:`evaluate` to each assignment, order preserved."""
    _program(circuit)  # an invalid circuit is refused before its vectors
    for idx, vec in enumerate(vectors):
        try:
            _check_names(circuit, vec.keys())
        except ValueError as exc:
            raise ValueError(f"vector {idx}: {exc}") from None
    arrays = {p.name: [vec[p.name] for vec in vectors] for p in circuit.inputs}
    out = evaluate_vector_array(circuit, arrays)
    return [{name: int(col[i]) for name, col in out.items()} for i in range(len(vectors))]
