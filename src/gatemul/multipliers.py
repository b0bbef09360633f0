"""Multiplier netlist generators.

:func:`generate` builds every multiplier from a :class:`MultiplierSpec`,
whose ``__post_init__`` is the only width and signedness check; the three
named generators that take ``n`` (``baugh_wooley_multiplier`` and the
others) are shorthands for it with the default ``Combiner.CSA_TREE``, and a
decomposed multiplier or another combiner needs a spec.  Each architecture
makes weighted rows for one reduction backbone:

* flat arrays, one Baugh-Wooley rule for every signedness pair:
  pp[i][j] = a_i & b_j at column i+j, complemented (NAND) iff exactly one
  of a_i, b_j is a signed operand's MSB, so every row stays positive;
* radix-4 recoded rows (Booth): n/2 rows selected from {0, +-B, +-2B} by
  overlapping 3-bit groups of A, negatives via complement plus a +1 dot;
* four-quadrant decomposition: A and B are split in half, the four
  half-width products (flat arrays, recursively decomposed while the
  leaf width is below the half width) are shifted, sign-extended and
  summed by the configured combiner.

Every negative weight is folded the same way, -x * 2^k == (~x) * 2^k - 2^k
(mod 2^2n): an inverted bit plus a correction constant, which
:func:`_constant_rows` turns into 1-dots.  A flat array's constants land at
columns n and 2n-1 (signed x signed) or n-1 and 2n-1 (a mixed pair).

All generators are pure: the same spec always yields the same netlist.
Products are exact two's-complement / binary integers of width 2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import genlib
from .netlist import Circuit, CircuitBuilder, GateKind, NetId, Signedness

S = Signedness.SIGNED
U = Signedness.UNSIGNED

#: Widest operand a spec accepts: the widest measured exact, built in about 2 s.
MAX_WIDTH = 256


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
        for name in ("width_a", "width_b", "leaf_width"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "leaf_width" and value is None):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.width_a < 1 or self.width_b < 1:
            raise ValueError("widths must be >= 1")
        if self.width_a > MAX_WIDTH or self.width_b > MAX_WIDTH:
            raise ValueError(f"widths must be <= {MAX_WIDTH}")
        if self.width_a != self.width_b:
            raise ValueError("width_a must equal width_b")
        arch = self.architecture
        n = self.width_a
        if arch is not Architecture.DECOMPOSED and self.leaf_width is not None:
            raise ValueError("leaf_width only applies to the Decomposed architecture")
        if arch is Architecture.FLAT_BW:
            if self.sign_a is not S or self.sign_b is not S:
                raise ValueError("FlatBW requires sign_a = sign_b = Signed")
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
        return genlib.ripple_carry_adder_mod(b, row_a, row_b)
    acc = [b.const0()] * width
    for bits, w in rows:
        aligned = ([b.const0()] * w + list(bits) + [b.const0()] * width)[:width]
        acc = genlib.ripple_carry_adder_mod(b, acc, aligned)
    return acc


def _constant_rows(b: CircuitBuilder, correction: int, width: int) -> list[genlib.Row]:
    """One constant-1 dot per set bit of ``correction`` mod 2**width."""
    correction &= (1 << width) - 1
    return [([b.const1()], col) for col in range(width) if (correction >> col) & 1]


def _fold_sign(b: CircuitBuilder, bits: list[NetId], weight: int) -> tuple[genlib.Row, int]:
    """A signed row at ``weight`` as a positive row plus a correction: its
    MSB at column k weighs -2^k, and -x * 2^k == (~x) * 2^k - 2^k (mod
    2^2n), so the MSB is inverted and -2^k is returned to add."""
    k = weight + len(bits) - 1
    return (bits[:-1] + [genlib.not_(b, bits[-1])], weight), -(1 << k)


def _array_rows(
    b: CircuitBuilder,
    abits: list[NetId],
    bbits: list[NetId],
    sign_a: Signedness,
    sign_b: Signedness,
) -> list[genlib.Row]:
    """Partial-product rows (with correction constants) for a flat array.

    A term has negative weight iff exactly one of its bits is a signed
    operand's MSB; it becomes a NAND plus a -2^(i+j) correction.
    """
    n = len(abits)
    a_msb = n - 1 if sign_a is S else -1
    b_msb = n - 1 if sign_b is S else -1
    rows: list[genlib.Row] = []
    correction = 0
    # Row i is one cell over [a_i, *B].  Its operands are input-port bits,
    # never constants, so no gate of it could be folded away.
    for i in range(n):
        recipe = []
        for j in range(n):
            if (i == a_msb) != (j == b_msb):
                recipe.append((GateKind.NAND2, 0, j + 1))
                correction -= 1 << (i + j)
            else:
                recipe.append((GateKind.AND2, 0, j + 1))
        rows.append((b._add_cell([abits[i], *bbits], recipe)[n + 1:], i))
    return rows + _constant_rows(b, correction, 2 * n)


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
        return _sum_rows(b, _array_rows(b, x, y, sx, sy), n, combiner)

    # Lower halves are plain magnitudes; upper halves inherit the operand sign.
    ll = quadrant(al, bl, U, U)
    hl = quadrant(ah, bl, sign_a, U)
    lh = quadrant(al, bh, U, sign_b)
    hh = quadrant(ah, bh, sign_a, sign_b)

    # A signed quadrant product's MSB has negative weight: its replicated
    # sign columns fold into one inverted bit plus constant dots.
    rows: list[genlib.Row] = []
    correction = 0
    for bits, signed in ((hl, sign_a is S), (lh, sign_b is S)):
        row, fix = _fold_sign(b, bits, half) if signed else ((bits, half), 0)
        rows.append(row)
        correction += fix
    rows.append((hh, n))
    rows.append((ll, 0))  # last: its upper bits arrive latest
    rows += _constant_rows(b, correction, 2 * n)
    return _sum_rows(b, rows, 2 * n, combiner)


def _booth_rows(
    b: CircuitBuilder, abits: list[NetId], bbits: list[NetId]
) -> list[genlib.Row]:
    """Radix-4 recoded rows: one (n+1)-bit selection from {0,+-B,+-2B} per
    overlapping 3-bit group of A, negatives as complement plus a +1 dot.
    Sign extension of each row is folded into an inverted MSB plus a
    constant by :func:`_fold_sign`, as in the decomposition combiner."""
    n = len(abits)
    bx = list(bbits) + [bbits[-1]]  # B sign-extended one bit for the 2B shift
    # Each row is one cell over [one, two, neg, *bx] (entries 0, 1, 2 and
    # 3 + i): bit i is ((one & bx[i]) | (two & bx[i-1])) ^ neg, and bit 0,
    # which has no bx[-1] term, is (one & bx[0]) ^ neg.  Bit i's XOR is
    # entry n + 5 + 4i.  The operands are input bits and gate outputs, never
    # constants, so that missing term is the only gate folded away.
    recipe = [(GateKind.AND2, 0, 3), (GateKind.XOR2, n + 4, 2)]
    for i in range(1, n + 1):
        k = n + 2 + 4 * i  # entry of bit i's first gate
        recipe += [(GateKind.AND2, 0, 3 + i), (GateKind.AND2, 1, 2 + i),
                   (GateKind.OR2, k, k + 1), (GateKind.XOR2, k + 2, 2)]
    rows: list[genlib.Row] = []
    correction = 0
    for g in range(n // 2):
        low = abits[2 * g - 1] if g > 0 else b.const0()
        mid = abits[2 * g]
        high = abits[2 * g + 1]
        one = genlib.xor2(b, mid, low)
        two = genlib.and2(b, genlib.xor2(b, high, mid), genlib.not_(b, one))
        neg = high
        pp = b._add_cell([one, two, neg, *bx], recipe)[n + 5::4]
        # Row MSB sits at column 2g+n < 2n-1 for even n, so every row has
        # replicated sign columns to fold.
        row, fix = _fold_sign(b, pp, 2 * g)
        correction += fix
        rows.append(row)
        rows.append(([neg], 2 * g))
    return rows + _constant_rows(b, correction, 2 * n)


def _circuit_name(spec: MultiplierSpec) -> str:
    n = spec.width_a
    arch = spec.architecture
    if arch is Architecture.BOOTH_RADIX4:
        return f"booth{n}"
    if arch is Architecture.DECOMPOSED:
        tok = "csa" if spec.combiner is Combiner.CSA_TREE else "ripple"
        return f"dec{n}_{spec.leaf_width}_{tok}"
    if spec.sign_a is S and spec.sign_b is S:
        return f"bw{n}"
    return f"array{n}{'s' if spec.sign_a is S else 'u'}{'s' if spec.sign_b is S else 'u'}"


def generate(spec: MultiplierSpec) -> Circuit:
    """Build the circuit described by ``spec``."""
    n = spec.width_a
    sign_a, sign_b, combiner = spec.sign_a, spec.sign_b, spec.combiner
    b = CircuitBuilder(_circuit_name(spec))
    abits = b.add_input("A", n, sign_a)
    bbits = b.add_input("B", n, sign_b)
    arch = spec.architecture
    if arch is Architecture.DECOMPOSED:
        assert spec.leaf_width is not None
        product = _decomposed_product(
            b, abits, bbits, sign_a, sign_b, spec.leaf_width, combiner
        )
    elif arch is Architecture.BOOTH_RADIX4:
        product = _sum_rows(b, _booth_rows(b, abits, bbits), 2 * n, combiner)
    else:
        rows = _array_rows(b, abits, bbits, sign_a, sign_b)
        product = _sum_rows(b, rows, 2 * n, combiner)
    b.add_output("P", product, _product_sign(sign_a, sign_b))
    return b.finalize()


def baugh_wooley_multiplier(n: int) -> Circuit:
    """n x n signed (two's complement) array multiplier, Baugh-Wooley form."""
    return generate(MultiplierSpec(n, n, S, S, Architecture.FLAT_BW))


def mixed_sign_multiplier(n: int, sign_a: Signedness, sign_b: Signedness) -> Circuit:
    """Array multiplier for any operand signedness combination."""
    return generate(MultiplierSpec(n, n, sign_a, sign_b, Architecture.FLAT_UNSIGNED_ARRAY))


def booth_radix4_multiplier(n: int) -> Circuit:
    """n x n signed multiplier from radix-4 recoded partial products."""
    return generate(MultiplierSpec(n, n, S, S, Architecture.BOOTH_RADIX4))
