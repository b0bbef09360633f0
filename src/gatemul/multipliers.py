"""Multiplier netlist generators.

Four architectures share one partial-product/reduction backbone:

* flat unsigned array: pp[i][j] = a_i & b_j at column i+j;
* flat Baugh-Wooley (signed x signed): the sign-bit cross terms are
  complemented (NAND) and constant 1s are injected at columns n and 2n-1,
  so every row stays positive and plain array reduction applies;
* signed x unsigned (and mirrored) arrays: only the signed operand's MSB
  terms are complemented, with correction 1s at columns n-1 and 2n-1;
* radix-4 recoded rows (Booth): n/2 rows selected from {0, +-B, +-2B} by
  overlapping 3-bit groups of A, negatives via complement plus a +1 dot;
* four-quadrant decomposition: A and B are split in half, the four
  half-width products (built by the mixed-sign generators, recursively
  decomposed while the leaf width is below the half width) are shifted,
  sign-extended and summed by the configured combiner.

All generators are pure: the same spec always yields the same netlist.
Products are exact two's-complement / binary integers of width 2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import genlib
from .netlist import Circuit, CircuitBuilder, NetId, Signedness

S = Signedness.SIGNED
U = Signedness.UNSIGNED


class Architecture(Enum):
    FLAT_BW = "FlatBW"
    FLAT_UNSIGNED_ARRAY = "FlatUnsignedArray"
    BOOTH_RADIX4 = "BoothRadix4"
    DECOMPOSED = "Decomposed"


class Combiner(Enum):
    CSA_TREE = "CsaTree"
    RIPPLE_CASCADE = "RippleCascade"


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class MultiplierSpec:
    """Parameters selecting one generated multiplier.

    ``leaf_width`` applies to the decomposed architecture only: quadrants
    of that width are built flat, wider quadrants are decomposed again.
    """

    width_a: int
    width_b: int
    sign_a: Signedness
    sign_b: Signedness
    architecture: Architecture
    leaf_width: int | None = None
    combiner: Combiner = Combiner.CSA_TREE

    def __post_init__(self) -> None:
        if self.width_a < 1 or self.width_b < 1:
            raise ValueError("widths must be >= 1")
        if self.width_a != self.width_b:
            raise ValueError("width_a must equal width_b")
        arch = self.architecture
        n = self.width_a
        if arch is not Architecture.DECOMPOSED and self.leaf_width is not None:
            raise ValueError("leaf_width only applies to the Decomposed architecture")
        if arch is Architecture.FLAT_BW:
            if self.sign_a is not S or self.sign_b is not S:
                raise ValueError("FlatBW requires sign_a = sign_b = Signed")
            if n < 2:
                raise ValueError("FlatBW requires width >= 2")
        elif arch is Architecture.BOOTH_RADIX4:
            if self.sign_a is not S or self.sign_b is not S:
                raise ValueError("BoothRadix4 requires sign_a = sign_b = Signed")
            if n < 4 or n % 2:
                raise ValueError("BoothRadix4 requires even width >= 4")
        elif arch is Architecture.DECOMPOSED:
            leaf = self.leaf_width
            if leaf is None:
                raise ValueError("Decomposed requires leaf_width")
            if leaf < 2:
                raise ValueError("leaf_width must be >= 2")
            if n % leaf:
                raise ValueError("leaf_width must divide the width")
            if not _is_pow2(n) or not _is_pow2(leaf):
                raise ValueError("Decomposed widths must be powers of two")
            if leaf >= n:
                raise ValueError("leaf_width must be smaller than the width")


def _product_sign(sa: Signedness, sb: Signedness) -> Signedness:
    return S if S in (sa, sb) else U


def _sum_rows(
    b: CircuitBuilder, rows: list[genlib.Row], width: int, combiner: Combiner
) -> list[NetId]:
    """Sum weighted rows modulo 2**width, returning exactly ``width`` bits."""
    if combiner is Combiner.CSA_TREE:
        row_a, row_b = genlib.carry_save_reduce(b, rows, drop_above=width)
        row_a = (list(row_a) + [b.const0()] * width)[:width]
        row_b = (list(row_b) + [b.const0()] * width)[:width]
        return genlib.ripple_carry_adder_mod(b, row_a, row_b)
    acc = [b.const0()] * width
    for bits, w in rows:
        aligned = ([b.const0()] * w + list(bits) + [b.const0()] * width)[:width]
        acc = genlib.ripple_carry_adder_mod(b, acc, aligned)
    return acc


def _array_rows(
    b: CircuitBuilder,
    abits: list[NetId],
    bbits: list[NetId],
    sign_a: Signedness,
    sign_b: Signedness,
) -> list[genlib.Row]:
    """Partial-product rows (with correction constants) for a flat array."""
    n = len(abits)
    rows: list[genlib.Row] = []
    if sign_a is U and sign_b is U:
        for i in range(n):
            rows.append(([genlib.and2(b, abits[i], bbits[j]) for j in range(n)], i))
        return rows
    if sign_a is S and sign_b is S:
        # Complement both MSB cross-term groups; +1 at columns n and 2n-1.
        for i in range(n - 1):
            bits = [genlib.and2(b, abits[i], bbits[j]) for j in range(n - 1)]
            bits.append(genlib.nand2(b, abits[i], bbits[n - 1]))
            rows.append((bits, i))
        top = [genlib.nand2(b, abits[n - 1], bbits[j]) for j in range(n - 1)]
        top.append(genlib.and2(b, abits[n - 1], bbits[n - 1]))
        rows.append((top, n - 1))
        rows.append(([b.const1()], n))
        rows.append(([b.const1()], 2 * n - 1))
        return rows
    if sign_a is S and sign_b is U:
        # Only A's sign row is complemented; +1 at columns n-1 and 2n-1.
        for i in range(n - 1):
            rows.append(([genlib.and2(b, abits[i], bbits[j]) for j in range(n)], i))
        rows.append(([genlib.nand2(b, abits[n - 1], bbits[j]) for j in range(n)], n - 1))
        rows.append(([b.const1()], n - 1))
        rows.append(([b.const1()], 2 * n - 1))
        return rows
    # U x S: mirror of the S x U case, complementing B's sign column.
    for i in range(n):
        bits = [genlib.and2(b, abits[i], bbits[j]) for j in range(n - 1)]
        bits.append(genlib.nand2(b, abits[i], bbits[n - 1]))
        rows.append((bits, i))
    rows.append(([b.const1()], n - 1))
    rows.append(([b.const1()], 2 * n - 1))
    return rows


def _flat_product(
    b: CircuitBuilder,
    abits: list[NetId],
    bbits: list[NetId],
    sign_a: Signedness,
    sign_b: Signedness,
    combiner: Combiner,
) -> list[NetId]:
    n = len(abits)
    rows = _array_rows(b, abits, bbits, sign_a, sign_b)
    return _sum_rows(b, rows, 2 * n, combiner)


def _decomposed_product(
    b: CircuitBuilder,
    abits: list[NetId],
    bbits: list[NetId],
    sign_a: Signedness,
    sign_b: Signedness,
    leaf: int,
    combiner: Combiner,
) -> list[NetId]:
    n = len(abits)
    half = n // 2
    al, ah = abits[:half], abits[half:]
    bl, bh = bbits[:half], bbits[half:]

    def quadrant(x: list[NetId], y: list[NetId], sx: Signedness, sy: Signedness):
        if half > leaf:
            return _decomposed_product(b, x, y, sx, sy, leaf, combiner)
        return _flat_product(b, x, y, sx, sy, combiner)

    # Lower halves are plain magnitudes; upper halves inherit the operand sign.
    ll = quadrant(al, bl, U, U)
    hl = quadrant(ah, bl, sign_a, U)
    lh = quadrant(al, bh, U, sign_b)
    hh = quadrant(ah, bh, sign_a, sign_b)

    # Sign extension is folded algebraically: a signed quadrant product at
    # weight w contributes -msb * 2^(w+n-1) beyond its magnitude bits, and
    # -msb * 2^k == (~msb) * 2^k - 2^k (mod 2^2n), so the replicated sign
    # columns become one inverted bit plus constant dots.
    rows: list[genlib.Row] = []
    correction = 0
    for bits, weight, signed in ((hl, half, sign_a is S), (lh, half, sign_b is S)):
        if signed:
            rows.append((bits[:-1] + [genlib.not_(b, bits[-1])], weight))
            correction -= 1 << (weight + len(bits) - 1)
        else:
            rows.append((bits, weight))
    rows.append((hh, n))
    rows.append((ll, 0))  # last: its upper bits arrive latest
    correction &= (1 << (2 * n)) - 1
    for col in range(2 * n):
        if (correction >> col) & 1:
            rows.append(([b.const1()], col))
    return _sum_rows(b, rows, 2 * n, combiner)


def _booth_rows(
    b: CircuitBuilder, abits: list[NetId], bbits: list[NetId]
) -> list[genlib.Row]:
    """Radix-4 recoded rows: one (n+1)-bit selection from {0,+-B,+-2B} per
    overlapping 3-bit group of A, negatives as complement plus a +1 dot.
    Sign extension of each row is folded into an inverted MSB plus a
    constant, as in the decomposition combiner."""
    n = len(abits)
    bx = list(bbits) + [bbits[-1]]  # B sign-extended one bit for the 2B shift
    rows: list[genlib.Row] = []
    correction = 0
    for g in range(n // 2):
        low = abits[2 * g - 1] if g > 0 else b.const0()
        mid = abits[2 * g]
        high = abits[2 * g + 1]
        one = genlib.xor2(b, mid, low)
        two = genlib.and2(b, genlib.xor2(b, high, mid), genlib.not_(b, one))
        neg = high
        pp: list[NetId] = []
        for i in range(n + 1):
            below = bx[i - 1] if i > 0 else b.const0()
            sel = genlib.or2(
                b, genlib.and2(b, one, bx[i]), genlib.and2(b, two, below)
            )
            pp.append(genlib.xor2(b, sel, neg))
        # Row MSB sits at column 2g+n < 2n-1 for even n, so every row has
        # replicated sign columns to fold.
        pp[-1] = genlib.not_(b, pp[-1])
        correction -= 1 << (2 * g + n)
        rows.append((pp, 2 * g))
        rows.append(([neg], 2 * g))
    correction &= (1 << (2 * n)) - 1
    for col in range(2 * n):
        if (correction >> col) & 1:
            rows.append(([b.const1()], col))
    return rows


def _build(
    name: str,
    n: int,
    sign_a: Signedness,
    sign_b: Signedness,
    product_fn,
) -> Circuit:
    b = CircuitBuilder(name)
    abits = b.add_input("A", n, sign_a)
    bbits = b.add_input("B", n, sign_b)
    product = product_fn(b, abits, bbits)
    b.add_output("P", product, _product_sign(sign_a, sign_b))
    return b.finalize()


def unsigned_array_multiplier(n: int, combiner: Combiner = Combiner.CSA_TREE) -> Circuit:
    """n x n unsigned array multiplier with a 2n-bit product."""
    if n < 1:
        raise ValueError("width must be >= 1")
    return _build(
        f"array{n}uu", n, U, U,
        lambda b, a, bb: _flat_product(b, a, bb, U, U, combiner),
    )


def baugh_wooley_multiplier(n: int, combiner: Combiner = Combiner.CSA_TREE) -> Circuit:
    """n x n signed (two's complement) array multiplier, Baugh-Wooley form."""
    if n < 2:
        raise ValueError("signed width must be >= 2")
    return _build(
        f"bw{n}", n, S, S,
        lambda b, a, bb: _flat_product(b, a, bb, S, S, combiner),
    )


def mixed_sign_multiplier(
    n: int,
    sign_a: Signedness,
    sign_b: Signedness,
    combiner: Combiner = Combiner.CSA_TREE,
) -> Circuit:
    """Array multiplier for any operand signedness combination."""
    if sign_a is U and sign_b is U:
        return unsigned_array_multiplier(n, combiner)
    if n < 2:
        raise ValueError("signed width must be >= 2")
    if sign_a is S and sign_b is S:
        return baugh_wooley_multiplier(n, combiner)
    tag = f"array{n}{'s' if sign_a is S else 'u'}{'s' if sign_b is S else 'u'}"
    return _build(
        tag, n, sign_a, sign_b,
        lambda b, a, bb: _flat_product(b, a, bb, sign_a, sign_b, combiner),
    )


def booth_radix4_multiplier(n: int, combiner: Combiner = Combiner.CSA_TREE) -> Circuit:
    """n x n signed multiplier from radix-4 recoded partial products."""
    if n < 4 or n % 2:
        raise ValueError("radix-4 recoding requires even width >= 4")
    return _build(
        f"booth{n}", n, S, S,
        lambda b, a, bb: _sum_rows(b, _booth_rows(b, a, bb), 2 * n, combiner),
    )


def decomposed_multiplier(spec: MultiplierSpec) -> Circuit:
    """Four-quadrant decomposition of an n x n product down to flat leaves."""
    if spec.architecture is not Architecture.DECOMPOSED:
        raise ValueError("spec.architecture must be Decomposed")
    n = spec.width_a
    leaf = spec.leaf_width
    assert leaf is not None
    tok = "csa" if spec.combiner is Combiner.CSA_TREE else "ripple"
    name = f"dec{n}_{leaf}_{tok}"
    return _build(
        name, n, spec.sign_a, spec.sign_b,
        lambda b, a, bb: _decomposed_product(
            b, a, bb, spec.sign_a, spec.sign_b, leaf, spec.combiner
        ),
    )


def generate(spec: MultiplierSpec) -> Circuit:
    """Build the circuit described by ``spec``."""
    arch = spec.architecture
    if arch is Architecture.FLAT_BW:
        return baugh_wooley_multiplier(spec.width_a, spec.combiner)
    if arch is Architecture.FLAT_UNSIGNED_ARRAY:
        return mixed_sign_multiplier(spec.width_a, spec.sign_a, spec.sign_b, spec.combiner)
    if arch is Architecture.BOOTH_RADIX4:
        return booth_radix4_multiplier(spec.width_a, spec.combiner)
    return decomposed_multiplier(spec)
