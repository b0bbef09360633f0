"""Reusable arithmetic blocks: half/full adders, ripple carry, carry-save trees.

``half_adder`` and ``full_adder`` are fixed-shape cells (2 and 5 gates) so
depth and area stay deterministic.  Each cell is a recipe, ``_HALF_ADDER`` or
``_FULL_ADDER``, appended through the builder in one checked call
(``CircuitBuilder._add_cell``).  The composite builders below fold
constants instead of emitting degenerate adder cells, which keeps gate
censuses honest when correction constants or zero padding flow through.
A net is tested for a constant by comparing it with the builder's
``_const0``/``_const1`` fields (see ``CircuitBuilder.__init__``).
"""

from __future__ import annotations

import operator
from typing import Sequence

from .netlist import CircuitBuilder, GateKind, NetId, NetlistError

#: A weighted row: LSB-first bits placed at columns weight, weight+1, ...
Row = tuple[Sequence[NetId], int]


def not_(b: CircuitBuilder, x: NetId) -> NetId:
    if x == b._const0:
        return b.const1()
    if x == b._const1:
        return b.const0()
    return b.add_gate(GateKind.NOT, (x,))


def and2(b: CircuitBuilder, x: NetId, y: NetId) -> NetId:
    if x == b._const0 or y == b._const0:
        return b.const0()
    if x == b._const1:
        return y
    if y == b._const1:
        return x
    return b.add_gate(GateKind.AND2, (x, y))


def xor2(b: CircuitBuilder, x: NetId, y: NetId) -> NetId:
    if x == b._const0:
        return y
    if y == b._const0:
        return x
    if x == b._const1:
        return not_(b, y)
    if y == b._const1:
        return not_(b, x)
    return b.add_gate(GateKind.XOR2, (x, y))


# Adder recipes for ``CircuitBuilder._add_cell``: ``(kind, i, j)`` reads
# entries i and j of [*inputs, <outputs of the cell's earlier gates>].
# Half adder over (a, x): s = XOR(a, x), c = AND(a, x).
_HALF_ADDER = ((GateKind.XOR2, 0, 1), (GateKind.AND2, 0, 1))
# Full adder over (a, x, cin): s1 = XOR(a, x), s = XOR(s1, cin),
# c1 = AND(a, x), c2 = AND(cin, s1), carry = OR(c1, c2).
_FULL_ADDER = (
    (GateKind.XOR2, 0, 1),
    (GateKind.XOR2, 3, 2),
    (GateKind.AND2, 0, 1),
    (GateKind.AND2, 2, 3),
    (GateKind.OR2, 5, 6),
)


def half_adder(b: CircuitBuilder, a: NetId, x: NetId) -> tuple[NetId, NetId]:
    """sum = a^x, carry = a&x.  Always adds exactly 2 gates."""
    _, _, s, c = b._add_cell((a, x), _HALF_ADDER)
    return s, c


def full_adder(b: CircuitBuilder, a: NetId, x: NetId, cin: NetId) -> tuple[NetId, NetId]:
    """sum = a^x^cin, carry = (a&x) | (cin & (a^x)).  Always adds 5 gates."""
    nets = b._add_cell((a, x, cin), _FULL_ADDER)
    return nets[4], nets[7]


def _add_bit3(b: CircuitBuilder, x: NetId, y: NetId, z: NetId) -> tuple[NetId, NetId]:
    """3:2 compress one column, folding any known-constant operands."""
    # Most cells have no constant operand.
    consts = (b._const0, b._const1)
    if x not in consts and y not in consts and z not in consts:
        return full_adder(b, x, y, z)
    ones = 0
    rest: list[NetId] = []
    for t in (x, y, z):
        if t == b._const1:
            ones += 1
        elif t != b._const0:
            rest.append(t)
    if ones == 0:
        if len(rest) == 2:
            return half_adder(b, rest[0], rest[1])
        if len(rest) == 1:
            return rest[0], b.const0()
        return b.const0(), b.const0()
    if ones == 1:
        if len(rest) == 2:
            s = b.add_gate(GateKind.XNOR2, rest)
            c = b.add_gate(GateKind.OR2, rest)
            return s, c
        if len(rest) == 1:
            return not_(b, rest[0]), rest[0]
        return b.const1(), b.const0()
    if ones == 2:
        if len(rest) == 1:
            return rest[0], b.const1()
        return b.const0(), b.const1()
    return b.const1(), b.const1()


def _sum_bit3(b: CircuitBuilder, x: NetId, y: NetId, z: NetId) -> NetId:
    """Sum output only, for columns whose carry would be discarded."""
    return xor2(b, xor2(b, x, y), z)


def _check_widths(name: str, a_bits: Sequence[NetId], b_bits: Sequence[NetId]) -> None:
    if len(a_bits) != len(b_bits):
        raise NetlistError(f"{name} width mismatch: {len(a_bits)} vs {len(b_bits)}")
    if not a_bits:
        raise NetlistError(f"{name} needs width >= 1")


def ripple_carry_adder(
    b: CircuitBuilder, a_bits: Sequence[NetId], b_bits: Sequence[NetId]
) -> list[NetId]:
    """n-bit ripple addition; returns n sum bits plus the carry-out (MSB).

    Callers needing modular addition drop the top bit, or use
    :func:`ripple_carry_adder_mod` which never builds the carry-out logic.
    """
    _check_widths("ripple_carry_adder", a_bits, b_bits)
    # A zero top column: its sum folds to the carry-out.
    z = b.const0()
    return ripple_carry_adder_mod(b, [*a_bits, z], [*b_bits, z])


def ripple_carry_adder_mod(
    b: CircuitBuilder, a_bits: Sequence[NetId], b_bits: Sequence[NetId]
) -> list[NetId]:
    """Ripple addition modulo 2**n: n bits out, no carry-out gates."""
    _check_widths("ripple_carry_adder_mod", a_bits, b_bits)
    carry = b.const0()
    sums: list[NetId] = []
    for ai, bi in zip(a_bits[:-1], b_bits[:-1]):
        s, carry = _add_bit3(b, ai, bi, carry)
        sums.append(s)
    sums.append(_sum_bit3(b, a_bits[-1], b_bits[-1], carry))
    return sums


def _as_int(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise NetlistError(f"{what} must be an int, got {value!r}") from None


def carry_save_reduce(
    b: CircuitBuilder,
    rows: Sequence[Row],
    drop_above: int,
) -> tuple[list[NetId], list[NetId]]:
    """Compress any number of weighted rows to two rows whose sum equals
    the weighted row total modulo 2**drop_above.

    Greedy per-column 3:2 compression, columns taken in ascending order
    within each pass, until every column holds at most two dots.  The two
    returned rows are aligned at column 0; one final ripple addition of the
    pair yields the total.  A column that already holds two dots or fewer
    gets no adder cell.

    ``drop_above`` is the result width: columns at or above it are
    discarded, and both rows have exactly ``drop_above`` columns.  Non-int
    or negative weights and a ``drop_above`` that is not an int >= 1 raise
    :class:`NetlistError`.
    """
    if not rows:
        raise NetlistError("carry_save_reduce needs at least one row")
    top = _as_int(drop_above, "drop_above")
    if top < 1:
        raise NetlistError(f"drop_above must be >= 1, got {top}")

    # Dots in columns from ``top`` up and CONST0 dots are never placed.  A cell
    # may allocate CONST0, so it is read from the builder after each cell.
    cols: list[list[NetId]] = [[] for _ in range(top)]
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

    # A pass changes only the columns holding three dots or more and the
    # column above each, which takes its carries; the next pass's busy
    # columns are among those.  A changed column holds the carries from the
    # column below, then its sums in cell order, then its leftover dots.
    busy = [c for c, dots in enumerate(cols) if len(dots) > 2]
    while busy:
        visit = sorted({*busy, *(c + 1 for c in busy if c + 1 < top)})
        carries: list[NetId] = []
        for c in visit:
            dots = cols[c]
            col, carries = carries, []
            full = len(dots) // 3 * 3
            for i in range(0, full, 3):
                if c + 1 < top:
                    s, carry = _add_bit3(b, dots[i], dots[i + 1], dots[i + 2])
                    if carry != b._const0:
                        carries.append(carry)
                else:
                    s = _sum_bit3(b, dots[i], dots[i + 1], dots[i + 2])
                if s != b._const0:
                    col.append(s)
            col += dots[full:]
            cols[c] = col
        busy = [c for c in visit if len(cols[c]) > 2]

    row_a: list[NetId] = []
    row_b: list[NetId] = []
    for dots in cols:
        row_a.append(dots[0] if len(dots) > 0 else b.const0())
        row_b.append(dots[1] if len(dots) > 1 else b.const0())
    return row_a, row_b
