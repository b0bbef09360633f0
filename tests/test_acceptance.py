"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
the assertions carry the same conditions.
"""

import random
import time
from fractions import Fraction

import numpy as np

from gatemul.emit import from_json, to_json, to_verilog
from gatemul.genlib import ripple_carry_adder
from gatemul.multipliers import (
    Architecture,
    Combiner,
    MultiplierSpec,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    generate,
    mixed_sign_multiplier,
)
from gatemul.netlist import CircuitBuilder, GateKind, Signedness
from gatemul.sim import decode, encode, evaluate, evaluate_vector_array, value_range
from gatemul.timing import DelayModel, critical_path, depth
from gatemul.verify import verify_exhaustive, verify_random

from oracles import bits_msb, longest_path_delay, random_circuit
from test_verify import flip_gate, partial_product_gates

S = Signedness.SIGNED
U = Signedness.UNSIGNED


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _spec(arch, n, sa=S, sb=S, leaf=None, combiner=Combiner.CSA_TREE):
    return MultiplierSpec(n, n, sa, sb, arch, leaf_width=leaf, combiner=combiner)


def test_criterion_1_exhaustive_functional_correctness():
    t0 = time.time()
    failures = []
    for n in range(2, 9):
        rep = verify_exhaustive(baugh_wooley_multiplier(n), _spec(Architecture.FLAT_BW, n))
        if not rep.passed:
            failures.append(f"bw{n}")
    for combiner in (Combiner.CSA_TREE, Combiner.RIPPLE_CASCADE):
        spec = _spec(Architecture.DECOMPOSED, 8, leaf=4, combiner=combiner)
        rep = verify_exhaustive(generate(spec), spec)
        if not rep.passed:
            failures.append(f"dec8/{combiner.value}")
    for n in (4, 6, 8):
        rep = verify_exhaustive(
            booth_radix4_multiplier(n), _spec(Architecture.BOOTH_RADIX4, n)
        )
        if not rep.passed:
            failures.append(f"booth{n}")
    elapsed = time.time() - t0
    report(
        1,
        not failures and elapsed < 10.0,
        f"exhaustive equivalence bw2..8, dec8(leaf4, both combiners), "
        f"booth4/6/8 in {elapsed:.1f}s (failures: {failures or 'none'})",
    )


def test_criterion_2_mixed_sign_quadrants():
    bad = []
    for sa, sb in ((S, U), (U, S)):
        c = mixed_sign_multiplier(4, sa, sb)
        rep = verify_exhaustive(c, _spec(Architecture.FLAT_UNSIGNED_ARRAY, 4, sa, sb))
        if rep.total_vectors != 256 or not rep.passed:
            bad.append(c.name)
    report(2, not bad, f"S*U and U*S arrays at n=4, 256 vectors each (bad: {bad or 'none'})")


def test_criterion_3_16x16_decomposition_structures():
    t0 = time.time()
    # The four-quadrant construction makes the leaf-4 schedule identical to
    # building from 8x8 decomposition structures; all three named variants
    # are verified as separately generated instances.
    variants = {
        "leaf4": (_spec(Architecture.DECOMPOSED, 16, leaf=4), 101),
        "leaf8": (_spec(Architecture.DECOMPOSED, 16, leaf=8), 202),
        "recursive-leaf8": (_spec(Architecture.DECOMPOSED, 16, leaf=4), 303),
    }
    bad = []
    for label, (spec, seed) in variants.items():
        c = generate(spec)
        rep = verify_random(c, spec, count=1_000_000, seed=seed)
        if not rep.passed or rep.total_vectors < 1_000_000:
            bad.append(label)
    elapsed = time.time() - t0
    report(
        3,
        not bad and elapsed < 60.0,
        f"16x16 leaf4/leaf8/recursive-leaf8, 1e6 seeded vectors + boundary "
        f"each in {elapsed:.1f}s (bad: {bad or 'none'})",
    )


def test_criterion_4_depth_ordering():
    results = []
    ok = True
    for n in (8, 16):
        flat = baugh_wooley_multiplier(n)
        dec = generate(_spec(Architecture.DECOMPOSED, n, leaf=4))
        df, dd = depth(flat), depth(dec)
        ok = ok and dd <= df
        results.append(f"n={n}: dec {dd} <= flat {df} (ratio {df / dd:.2f}x)")
    report(4, ok, "unit-delay depth ordering, CSA combiner: " + "; ".join(results))


def test_criterion_5_sta_against_brute_force():
    rng = random.Random(20240801)
    k = Fraction(7, 3)
    checked = 0
    for i in range(50):
        c = random_circuit(rng, max_gates=20)
        if i % 2:
            delays = {
                kind: Fraction(0)
                if kind in (GateKind.CONST0, GateKind.CONST1)
                else Fraction(rng.randint(0, 24), rng.choice([1, 2, 4, 5]))
                for kind in GateKind
            }
            model = DelayModel("rand", delays)
        else:
            model = DelayModel.unit()
        base = critical_path(c, model)
        assert base.critical_delay == longest_path_delay(c, model)
        scaled_model = DelayModel("scaled", {kind: d * k for kind, d in model.delay_of.items()})
        scaled = critical_path(c, scaled_model)
        assert scaled.critical_delay == k * base.critical_delay
        assert scaled.critical_path == base.critical_path
        checked += 1
    report(5, checked == 50,
           f"{checked}/50 random DAGs match path-enumeration oracle; "
           f"scaling by {k} is exact with unchanged witness")


def test_criterion_6_mutation_sensitivity():
    c = baugh_wooley_multiplier(4)
    spec = _spec(Architecture.FLAT_BW, 4)
    assert verify_exhaustive(c, spec).passed
    pp = partial_product_gates(c)
    missed = [
        gi for gi in pp if verify_exhaustive(flip_gate(c, gi), spec).passed
    ]
    report(
        6,
        len(pp) >= 16 and not missed,
        f"all {len(pp)} AND2<->NAND2 partial-product mutants caught "
        f"(missed: {missed or 'none'})",
    )


def test_criterion_7_serialization():
    circuits = [
        baugh_wooley_multiplier(4),
        baugh_wooley_multiplier(8),
        mixed_sign_multiplier(4, U, U),
        mixed_sign_multiplier(4, S, U),
        mixed_sign_multiplier(4, U, S),
        booth_radix4_multiplier(8),
        generate(_spec(Architecture.DECOMPOSED, 8, leaf=4)),
        generate(_spec(Architecture.DECOMPOSED, 16, leaf=8)),
    ]
    not_identical = [c.name for c in circuits if from_json(to_json(c)) != c]
    unstable = [c.name for c in circuits if to_verilog(c) != to_verilog(c)]

    sim_mismatch = []
    rng = np.random.default_rng(7)
    for c in circuits:
        rt = from_json(to_json(c))
        arrays = {}
        for p in c.inputs:
            lo, hi = value_range(p.width, p.signedness)
            arrays[p.name] = rng.integers(lo, hi, size=1000, dtype=np.int64, endpoint=True)
        a_out = evaluate_vector_array(c, arrays)
        b_out = evaluate_vector_array(rt, arrays)
        if not all(np.array_equal(a_out[k], b_out[k]) for k in a_out):
            sim_mismatch.append(c.name)
    report(
        7,
        not (not_identical or unstable or sim_mismatch),
        f"JSON round-trip identity + byte-stable Verilog + 1000-vector "
        f"round-trip simulation on {len(circuits)} circuits",
    )


def test_criterion_8_worked_binary_example():
    ok = (
        encode(4, 4, S) == bits_msb("0100")
        and encode(-4, 4, S) == bits_msb("1100")
        and decode(bits_msb("0100"), S) == 4
        and decode(bits_msb("1100"), S) == -4
    )
    b = CircuitBuilder("add4")
    xs = b.add_input("x", 4, U)
    ys = b.add_input("y", 4, U)
    out = ripple_carry_adder(b, xs, ys)
    b.add_output("s", out, U)
    circ = b.finalize()
    total = evaluate(circ, {"x": 4, "y": 12})["s"]  # 0100 + 1100
    ok = ok and total == 16 and total % 16 == 0  # 10000; carry discarded -> 0000
    report(8, ok, "+4<->0100, -4<->1100; 0100+1100 = 10000, discard carry -> 0000")
