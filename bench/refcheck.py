"""Independent reference checks of gatemul outputs.

Nothing here imports gatemul.  A netlist is read straight from its JSON
document and run by a small gate interpreter over bit lanes (one Python
integer per net, lane bit k = vector k), and products come from Python
``a * b``.  The benchmark uses this to check emitted netlists and the exact
text of every verify report, including the witnesses of a FAIL report.
"""

from __future__ import annotations

import json
import random

import numpy as np

_M64 = (1 << 64) - 1

_GATES = {
    "CONST0": lambda ins, m: 0,
    "CONST1": lambda ins, m: m,
    "NOT": lambda ins, m: ins[0] ^ m,
    "BUF": lambda ins, m: ins[0],
    "AND2": lambda ins, m: ins[0] & ins[1],
    "NAND2": lambda ins, m: (ins[0] & ins[1]) ^ m,
    "OR2": lambda ins, m: ins[0] | ins[1],
    "NOR2": lambda ins, m: (ins[0] | ins[1]) ^ m,
    "XOR2": lambda ins, m: ins[0] ^ ins[1],
    "XNOR2": lambda ins, m: (ins[0] ^ ins[1]) ^ m,
}


def load(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def value_range(width: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


def boundary_values(width: int, signed: bool) -> list[int]:
    """0, 1, -1, max, min: the corner values a random verify run starts with."""
    lo, hi = value_range(width, signed)
    out: list[int] = []
    for v in (0, 1, -1, hi, lo):
        if lo <= v <= hi and v not in out:
            out.append(v)
    return out


def pack(values: list[int], width: int) -> list[int]:
    """Lane integers: lane j holds bit j (two's complement) of every value."""
    lanes = []
    for base in range(0, width, 64):
        words = np.array([(v >> base) & _M64 for v in values], dtype=np.uint64)
        for j in range(min(64, width - base)):
            bits = ((words >> np.uint64(j)) & np.uint64(1)).astype(np.uint8)
            lanes.append(
                int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
            )
    return lanes


def run(doc: dict, a: list[int], b: list[int]) -> list[int]:
    """Output-bit lanes of the netlist's single output for operand lists a, b.

    Gates are evaluated in file order; a gate that reads a net no earlier
    gate or input drives is an error (emitted netlists are in build order).
    """
    mask = (1 << len(a)) - 1
    values: dict[int, int] = {}
    for port, vals in zip(doc["inputs"], (a, b)):
        values.update(zip(port["bits"], pack(vals, port["width"])))
    for g in doc["gates"]:
        values[g["output"]] = _GATES[g["kind"]]([values[i] for i in g["inputs"]], mask)
    return [values[net] for net in doc["outputs"][0]["bits"]]


def _bit(lane: int, k: int) -> int:
    return (lane >> k) & 1


def _decode(lanes: list[int], k: int, signed: bool) -> int:
    u = sum(_bit(lane, k) << j for j, lane in enumerate(lanes))
    if signed and _bit(lanes[-1], k):
        u -= 1 << len(lanes)
    return u


def mismatches(doc: dict, a: list[int], b: list[int]) -> tuple[list[int], int]:
    """(output lanes, lane of vectors whose output differs from a*b)."""
    out = run(doc, a, b)
    want = pack([x * y for x, y in zip(a, b)], len(out))
    bad = 0
    for got, exp in zip(out, want):
        bad |= got ^ exp
    return out, bad


def check_product(doc: dict, seed: int, count: int = 100) -> str | None:
    """Compare the netlist with a*b on boundary pairs plus seeded random pairs.

    Returns None when every vector agrees, else a one-line description.
    """
    pa, pb = doc["inputs"]
    ba = boundary_values(pa["width"], pa["signed"])
    bb = boundary_values(pb["width"], pb["signed"])
    a = [x for x in ba for _ in bb]
    b = [y for _ in ba for y in bb]
    rng = random.Random(seed)
    a += [rng.randint(*value_range(pa["width"], pa["signed"])) for _ in range(count)]
    b += [rng.randint(*value_range(pb["width"], pb["signed"])) for _ in range(count)]
    _, bad = mismatches(doc, a, b)
    if bad:
        k = (bad & -bad).bit_length() - 1
        return f"{doc['name']}: {a[k]}*{b[k]} wrong ({bad.bit_count()} of {len(a)} vectors)"
    return None


def verify_vectors(doc: dict, mode: str, count: int | None, seed: int | None):
    """The operand arrays `gatemul verify` tests, in its order.

    Random mode: the boundary cross product, then ``count`` numpy PCG64
    draws for A and then for B (the algorithm the report names).
    Exhaustive mode: every pair, A-major.
    """
    pa, pb = doc["inputs"]
    ra = value_range(pa["width"], pa["signed"])
    rb = value_range(pb["width"], pb["signed"])
    if mode == "exhaustive":
        av = np.arange(ra[0], ra[1] + 1, dtype=np.int64)
        bv = np.arange(rb[0], rb[1] + 1, dtype=np.int64)
        return np.repeat(av, len(bv)), np.tile(bv, len(av)), 0
    ba = boundary_values(pa["width"], pa["signed"])
    bb = boundary_values(pb["width"], pb["signed"])
    rng = np.random.default_rng(seed)
    rand_a = rng.integers(ra[0], ra[1], size=count, dtype=np.int64, endpoint=True)
    rand_b = rng.integers(rb[0], rb[1], size=count, dtype=np.int64, endpoint=True)
    a = np.concatenate([np.array([x for x in ba for _ in bb], dtype=np.int64), rand_a])
    b = np.concatenate([np.array([y for _ in ba for y in bb], dtype=np.int64), rand_b])
    return a, b, len(ba) * len(bb)


def _report_head(mode: str, count, seed, total: int, boundary: int) -> list[str]:
    if mode == "exhaustive":
        return [f"mode: {mode}", f"vectors: {total}"]
    return [
        f"mode: {mode}",
        f"algorithm: numpy-pcg64, seed: {seed}, requested: {count}",
        f"vectors: {total} (boundary {boundary} + random {count})",
    ]


def pass_report(doc: dict, mode: str, count: int | None = None, seed: int | None = None) -> str:
    """The exact text `gatemul verify` prints when every vector passes."""
    a, _, boundary = verify_vectors(doc, mode, count, seed)
    lines = _report_head(mode, count, seed, len(a), boundary)
    lines.append(f"result: PASS ({len(a)} vectors, 0 failures)")
    return "\n".join(lines) + "\n"


def verify_report(doc: dict, mode: str, count: int | None = None,
                  seed: int | None = None, max_witnesses: int = 20) -> str:
    """The exact text `gatemul verify` must print for this netlist and run.

    Failures are found by the reference interpreter; random-mode witnesses
    are listed sorted by (a, b), exhaustive ones in vector order.
    """
    a_arr, b_arr, boundary = verify_vectors(doc, mode, count, seed)
    a, b = a_arr.tolist(), b_arr.tolist()
    out, bad = mismatches(doc, a, b)
    nfail = bad.bit_count()
    if not nfail:
        return pass_report(doc, mode, count, seed)
    total = len(a)
    lines = _report_head(mode, count, seed, total, boundary)
    lines.append(f"result: FAIL ({nfail} failures)")
    flags = np.unpackbits(
        np.frombuffer(bad.to_bytes((total + 7) // 8, "little"), dtype=np.uint8),
        count=total, bitorder="little",
    )
    idx = np.nonzero(flags)[0]
    if mode == "random":
        idx = idx[np.lexsort((b_arr[idx], a_arr[idx]))]
    names = (doc["inputs"][0]["name"], doc["inputs"][1]["name"])
    signed = doc["outputs"][0]["signed"]
    for k in idx[:max_witnesses].tolist():
        lines.append(
            f"  {names[0]}={a[k]} {names[1]}={b[k]}: expected {a[k] * b[k]}, "
            f"got {_decode(out, k, signed)}"
        )
    if nfail > max_witnesses:
        lines.append(f"  ... and {nfail - max_witnesses} more")
    return "\n".join(lines) + "\n"


def mutate_first_and(doc: dict) -> dict:
    """Copy of the netlist with its first AND2 gate turned into an OR2."""
    gates = [dict(g) for g in doc["gates"]]
    first = next(i for i, g in enumerate(gates) if g["kind"] == "AND2")
    gates[first]["kind"] = "OR2"
    return {**doc, "gates": gates}
