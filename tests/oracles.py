"""Independent reference implementations used to cross-check the library.

Nothing here shares algorithms with the package: timing is checked by
literally enumerating every input-to-output path, and simulation by a
demand-driven evaluator that pulls values backwards through the DAG.  The
one exception is :func:`carry_save_reduce`, a verbatim copy of the
library's earlier reducer, which visited every column on every pass; it is
the reference the faster reducer must match gate for gate.
:func:`read_verilog` reads emitted Verilog back without ``gatemul.emit``.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict
from fractions import Fraction
from typing import Sequence

from gatemul.genlib import Row, _add_bit3, _as_int, _sum_bit3
from gatemul.netlist import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    NetId,
    NetlistError,
    Port,
    Signedness,
)
from gatemul.sim import encode


def bits_msb(text: str) -> list[int]:
    """Parse an MSB-first bit string like "0100" into an LSB-first list."""
    return [int(ch) for ch in reversed(text)]


def enumerate_path_delays(circuit: Circuit, model) -> list[Fraction]:
    """Summed gate delays of every source-to-net path ending at an output.

    Exponential-time DFS; only usable on small circuits, which is the point:
    it is a brute-force oracle for static timing analysis.
    """
    driver = {g.output: g for g in circuit.gates}
    input_nets = circuit.input_nets()

    def paths_to(net) -> list[Fraction]:
        if net in input_nets:
            return [Fraction(0)]
        g = driver[net]
        d = Fraction(model[g.kind])
        if not g.inputs:
            return [d]
        out: list[Fraction] = []
        for src in g.inputs:
            out.extend(p + d for p in paths_to(src))
        return out

    sums: list[Fraction] = []
    for port in circuit.outputs:
        for net in port.bits:
            sums.extend(paths_to(net))
    return sums


def longest_path_delay(circuit: Circuit, model) -> Fraction:
    return max(enumerate_path_delays(circuit, model))


_EVAL = {
    GateKind.CONST0: lambda ins: 0,
    GateKind.CONST1: lambda ins: 1,
    GateKind.NOT: lambda ins: 1 - ins[0],
    GateKind.BUF: lambda ins: ins[0],
    GateKind.AND2: lambda ins: ins[0] & ins[1],
    GateKind.NAND2: lambda ins: 1 - (ins[0] & ins[1]),
    GateKind.OR2: lambda ins: ins[0] | ins[1],
    GateKind.NOR2: lambda ins: 1 - (ins[0] | ins[1]),
    GateKind.XOR2: lambda ins: ins[0] ^ ins[1],
    GateKind.XNOR2: lambda ins: 1 - (ins[0] ^ ins[1]),
}


def demand_evaluate(circuit: Circuit, inputs: dict[str, int]) -> dict[str, int]:
    """Pull-based evaluator: resolve each output net by walking its cone.

    Uses an explicit stack (no recursion limit) and no topological order,
    so it is structurally independent of the forward simulator.
    """
    known: dict[int, int] = {}
    for port in circuit.inputs:
        for net, bit in zip(port.bits, encode(inputs[port.name], port.width, port.signedness)):
            known[net] = bit
    driver = {g.output: g for g in circuit.gates}

    def resolve(target: int) -> int:
        stack = [target]
        while stack:
            net = stack[-1]
            if net in known:
                stack.pop()
                continue
            g = driver[net]
            pending = [i for i in g.inputs if i not in known]
            if pending:
                stack.extend(pending)
                continue
            known[net] = _EVAL[g.kind]([known[i] for i in g.inputs])
            stack.pop()
        return known[target]

    result = {}
    for port in circuit.outputs:
        bits = [resolve(net) for net in port.bits]
        value = 0
        for i, b in enumerate(bits):
            value |= b << i
        if port.signedness is Signedness.SIGNED and bits[-1]:
            value -= 1 << port.width
        result[port.name] = value
    return result


def random_circuit(rng: random.Random, max_gates: int = 20) -> Circuit:
    """Small random combinational DAG, valid by construction."""
    b = CircuitBuilder(f"rand{rng.randrange(10**6)}")
    nets: list[int] = []
    for i in range(rng.randint(1, 2)):
        width = rng.randint(1, 3)
        sgn = rng.choice([Signedness.SIGNED, Signedness.UNSIGNED])
        if sgn is Signedness.SIGNED and width == 1:
            width = 2
        nets.extend(b.add_input(f"in{i}", width, sgn))
    kinds = list(GateKind)
    for _ in range(rng.randint(1, max_gates)):
        kind = rng.choice(kinds)
        arity = {GateKind.CONST0: 0, GateKind.CONST1: 0,
                 GateKind.NOT: 1, GateKind.BUF: 1}.get(kind, 2)
        ins = [rng.choice(nets) for _ in range(arity)]
        nets.append(b.add_gate(kind, ins))
    last = nets[-1]
    outs = sorted({last, *(rng.choice(nets) for _ in range(rng.randint(0, 2)))})
    b.add_output("out", outs, Signedness.UNSIGNED)
    return b.finalize()


def random_assignment(rng: random.Random, circuit: Circuit) -> dict[str, int]:
    out = {}
    for port in circuit.inputs:
        if port.signedness is Signedness.SIGNED:
            lo, hi = -(1 << (port.width - 1)), (1 << (port.width - 1)) - 1
        else:
            lo, hi = 0, (1 << port.width) - 1
        out[port.name] = rng.randint(lo, hi)
    return out


def carry_save_reduce(
    b: CircuitBuilder,
    rows: Sequence[Row],
    drop_above: int | None = None,
) -> tuple[list[NetId], list[NetId]]:
    """Compress any number of weighted rows to two rows whose sum equals
    the weighted row total.

    Greedy per-column 3:2 compression, columns taken in ascending order
    within each pass, until every column holds at most two dots.  The two
    returned rows are aligned at column 0 and have equal length; one final
    ripple addition of the pair yields the total.  A column that already
    holds two dots or fewer gets no adder cell.

    ``drop_above`` discards columns at or above the given index, i.e. the
    preserved total is modulo 2**drop_above, and both rows then have
    exactly ``drop_above`` columns.  Non-int or negative weights and a
    ``drop_above`` that is not an int >= 1 raise :class:`NetlistError`.
    """
    if not rows:
        raise NetlistError("carry_save_reduce needs at least one row")
    top = float("inf") if drop_above is None else _as_int(drop_above, "drop_above")
    if top < 1:
        raise NetlistError(f"drop_above must be >= 1, got {top}")

    # Dots in columns from ``top`` up and CONST0 dots are never placed.  A cell
    # may allocate CONST0, so it is read from the builder after each cell.
    cols: dict[int, list[NetId]] = defaultdict(list)
    zero = b._const0
    for bits, w in rows:
        w = _as_int(w, "row weight")
        if not bits:
            raise NetlistError("carry_save_reduce rows must be non-empty")
        if w < 0:
            raise NetlistError("row weights must be non-negative")
        for c, net in enumerate(bits, w):
            if c < top and net != zero:
                cols[c].append(net)

    while any(len(dots) > 2 for dots in cols.values()):
        nxt: dict[int, list[NetId]] = defaultdict(list)
        for c in sorted(cols):
            dots = cols[c]
            full = len(dots) // 3 * 3
            for i in range(0, full, 3):
                if c + 1 < top:
                    s, carry = _add_bit3(b, dots[i], dots[i + 1], dots[i + 2])
                    if carry != b._const0:
                        nxt[c + 1].append(carry)
                else:
                    s = _sum_bit3(b, dots[i], dots[i + 1], dots[i + 2])
                if s != b._const0:
                    nxt[c].append(s)
            if full < len(dots):
                nxt[c] += dots[full:]
        cols = nxt

    width = top if drop_above is not None else (max(cols) + 1 if cols else 1)
    row_a: list[NetId] = []
    row_b: list[NetId] = []
    for c in range(width):
        dots = cols.get(c, [])
        row_a.append(dots[0] if len(dots) > 0 else b.const0())
        row_b.append(dots[1] if len(dots) > 1 else b.const0())
    return row_a, row_b


_REF = r"[A-Za-z_]\w*(?:\[\d+\])?"
_PLAIN = {"&": GateKind.AND2, "|": GateKind.OR2, "^": GateKind.XOR2}
_NEGATED = {"&": GateKind.NAND2, "|": GateKind.NOR2, "^": GateKind.XNOR2}


def read_verilog(text: str, signs: dict[str, Signedness] | None = None) -> Circuit:
    """Read back the structural Verilog subset ``to_verilog`` writes.

    One module; ``input``/``output`` declarations (``[w-1:0]`` or scalar);
    ``wire nK;``; ``assign nK = <expr>;`` with ``<expr>`` one of ``1'b0``,
    ``1'b1``, ``x``, ``~x``, ``x op y`` or ``~(x op y)`` over ``& | ^``;
    and ``assign P[i] = x;`` output bindings.  Wire ``nK`` is net K.  Verilog
    carries neither input net ids nor signedness, so input bits take nets
    0, 1, ... in declaration order, as the builder hands them out, and a
    port is signed iff ``signs`` says so.  Anything else raises ValueError.
    """
    signs = signs or {}
    lines = text.split("\n")
    if lines[-1] != "" or lines[-2] != "endmodule":
        raise ValueError("module must end with 'endmodule' and a final LF")
    head = re.fullmatch(r"module (\w+) \(([\w, ]*)\);", lines[0])
    if head is None:
        raise ValueError(f"bad module line {lines[0]!r}")
    ref: dict[str, int] = {}
    inputs: list[Port] = []
    out_widths: dict[str, int] = {}
    out_bits: dict[str, dict[int, int]] = {}
    gates: list[Gate] = []
    net = 0

    def net_of(token: str) -> int:
        if token not in ref:
            raise ValueError(f"undeclared reference {token!r}")
        return ref[token]

    def gate(expr: str) -> tuple[GateKind, tuple[int, ...]]:
        if expr in ("1'b0", "1'b1"):
            return (GateKind.CONST0 if expr == "1'b0" else GateKind.CONST1), ()
        if m := re.fullmatch(rf"~\(({_REF}) ([&|^]) ({_REF})\)", expr):
            return _NEGATED[m[2]], (net_of(m[1]), net_of(m[3]))
        if m := re.fullmatch(rf"({_REF}) ([&|^]) ({_REF})", expr):
            return _PLAIN[m[2]], (net_of(m[1]), net_of(m[3]))
        if m := re.fullmatch(rf"~({_REF})", expr):
            return GateKind.NOT, (net_of(m[1]),)
        if re.fullmatch(_REF, expr):
            return GateKind.BUF, (net_of(expr),)
        raise ValueError(f"bad expression {expr!r}")

    for line in lines[1:-2]:
        if m := re.fullmatch(r"  (input|output) (?:\[(\d+):0\] )?(\w+);", line):
            direction, top, name = m.groups()
            width = 1 if top is None else int(top) + 1
            if direction == "output":
                out_widths[name] = width
                out_bits[name] = {}
                continue
            bits = tuple(range(net, net + width))
            net += width
            if top is None:
                ref[name] = bits[0]
            else:
                ref.update((f"{name}[{i}]", b) for i, b in enumerate(bits))
            inputs.append(Port(name, bits, signs.get(name, Signedness.UNSIGNED)))
        elif m := re.fullmatch(r"  wire n(\d+);", line):
            ref[f"n{m[1]}"] = int(m[1])
        elif m := re.fullmatch(r"  assign (n\d+) = (.+);", line):
            kind, ins = gate(m[2])
            gates.append(Gate(kind, ins, net_of(m[1])))
        elif m := re.fullmatch(rf"  assign (\w+)(?:\[(\d+)\])? = ({_REF});", line):
            name, index, source = m.groups()
            bits = out_bits.get(name)
            if bits is None or (index is None) != (out_widths[name] == 1):
                raise ValueError(f"bad output binding {line!r}")
            i = int(index or 0)
            if i in bits:
                raise ValueError(f"output bit {name}[{i}] bound twice")
            bits[i] = net_of(source)
        else:
            raise ValueError(f"line not in the emitted subset: {line!r}")
    outputs = []
    for name, width in out_widths.items():
        if sorted(out_bits[name]) != list(range(width)):
            raise ValueError(f"output {name!r} is not bound bit for bit")
        bits = tuple(out_bits[name][i] for i in range(width))
        outputs.append(Port(name, bits, signs.get(name, Signedness.UNSIGNED)))
    ports = [p.name for p in (*inputs, *outputs)]
    if head[2] != ", ".join(ports):
        raise ValueError(f"module port list {head[2]!r} does not match declarations {ports}")
    return Circuit(head[1], tuple(inputs), tuple(outputs), tuple(gates), net + len(gates))
