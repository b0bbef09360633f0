import random
from fractions import Fraction

import pytest

from gatemul.multipliers import (
    Architecture,
    Combiner,
    MultiplierSpec,
    baugh_wooley_multiplier,
    decomposed_multiplier,
    generate,
    unsigned_array_multiplier,
)
from gatemul.netlist import Circuit, CircuitBuilder, GateKind, Signedness
from gatemul.timing import (
    DelayModel,
    area_report,
    arrival_times,
    compare,
    critical_path,
    depth,
)

from oracles import longest_path_delay, random_circuit

U = Signedness.UNSIGNED
S = Signedness.SIGNED
UNIT = DelayModel.unit()


def _single_gate(kind):
    b = CircuitBuilder("g")
    (x,) = b.add_input("x", 1, U)
    (y,) = b.add_input("y", 1, U)
    out = b.add_gate(kind, [x, y])
    b.add_output("o", [out], U)
    return b.finalize()


def _random_model(rng):
    delays = {}
    for kind in GateKind:
        if kind in (GateKind.CONST0, GateKind.CONST1):
            delays[kind] = Fraction(0)
        else:
            delays[kind] = Fraction(rng.randint(0, 30), rng.choice([1, 2, 4, 5, 10]))
    return DelayModel("random", delays)


class TestDelayModel:
    def test_builtin_models(self):
        unit = DelayModel.by_name("unit")
        assert unit[GateKind.AND2] == 1
        assert unit[GateKind.CONST0] == 0
        tech = DelayModel.by_name("tech-demo")
        assert tech[GateKind.NAND2] == Fraction(9, 10)
        assert tech[GateKind.XOR2] == Fraction(8, 5)
        assert tech[GateKind.BUF] == Fraction(1, 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown delay model"):
            DelayModel.by_name("finfet3")

    def test_all_kinds_required(self):
        with pytest.raises(ValueError, match="missing"):
            DelayModel("partial", {GateKind.AND2: 1})

    def test_const_delay_must_be_zero(self):
        delays = {k: Fraction(1) for k in GateKind}
        with pytest.raises(ValueError, match="zero"):
            DelayModel("bad", delays)

    def test_negative_rejected(self):
        delays = {k: Fraction(0) for k in GateKind}
        delays[GateKind.AND2] = Fraction(-1)
        with pytest.raises(ValueError, match="negative"):
            DelayModel("bad", delays)

    def test_float_coercion_is_decimal(self):
        delays = {k: 0.0 for k in GateKind}
        delays[GateKind.AND2] = 0.9
        m = DelayModel("m", delays)
        assert m[GateKind.AND2] == Fraction(9, 10)


class TestArrivalTimes:
    def test_single_and_gate(self):
        c = _single_gate(GateKind.AND2)
        arr = arrival_times(c, UNIT)
        assert arr[c.outputs[0].bits[0]] == 1

    def test_full_adder_max_arrival(self):
        b = CircuitBuilder("fa")
        (x,) = b.add_input("x", 1, U)
        (y,) = b.add_input("y", 1, U)
        (z,) = b.add_input("z", 1, U)
        from gatemul.genlib import full_adder
        s, c = full_adder(b, x, y, z)
        b.add_output("s", [s], U)
        b.add_output("c", [c], U)
        circ = b.finalize()
        arr = arrival_times(circ, UNIT)
        assert max(arr[n] for p in circ.outputs for n in p.bits) == 3

    def test_monotone_along_gates(self):
        rng = random.Random(3)
        for _ in range(20):
            c = random_circuit(rng)
            arr = arrival_times(c, UNIT)
            for g in c.gates:
                for i in g.inputs:
                    assert arr[g.output] >= arr[i]

    def test_order_invariance(self):
        c = baugh_wooley_multiplier(4)
        arr = arrival_times(c, UNIT)
        # Any other valid topological order gives identical arrivals; build
        # one by stable-sorting gates on (depth level, original index).
        order = sorted(range(len(c.gates)), key=lambda gi: (arr[c.gates[gi].output], gi))
        reordered = Circuit(
            name=c.name, inputs=c.inputs, outputs=c.outputs,
            gates=tuple(c.gates[i] for i in order), net_count=c.net_count,
        )
        assert arrival_times(reordered, UNIT) == arr

    def test_invalid_circuit_rejected(self):
        from gatemul.netlist import Port
        c = Circuit(
            name="bad",
            inputs=(Port("A", (0,), U),),
            outputs=(Port("Y", (1,), U),),
            gates=(),
            net_count=2,
        )
        with pytest.raises(ValueError, match="invalid"):
            arrival_times(c, UNIT)


class TestCriticalPath:
    def test_full_adder_depth(self):
        b = CircuitBuilder("fa")
        (x,) = b.add_input("x", 1, U)
        (y,) = b.add_input("y", 1, U)
        (z,) = b.add_input("z", 1, U)
        from gatemul.genlib import full_adder
        s, c = full_adder(b, x, y, z)
        b.add_output("s", [s], U)
        b.add_output("c", [c], U)
        circ = b.finalize()
        report = critical_path(circ, UNIT)
        assert report.critical_delay == 3
        assert sum(UNIT[g.kind] for g in report.critical_path) == 3

    def test_const_buffer_circuit(self):
        b = CircuitBuilder("cb")
        b.add_input("x", 1, U)
        zero = b.const0()
        out = b.add_gate(GateKind.BUF, [zero])
        b.add_output("o", [out], U)
        circ = b.finalize()
        tech = DelayModel.tech_demo()
        assert critical_path(circ, tech).critical_delay == tech[GateKind.BUF]

    def test_matches_brute_force_on_small_dags(self):
        rng = random.Random(2024)
        for i in range(50):
            c = random_circuit(rng, max_gates=20)
            model = _random_model(rng) if i % 2 else UNIT
            report = critical_path(c, model)
            assert report.critical_delay == longest_path_delay(c, model)
            assert sum(model[g.kind] for g in report.critical_path) == report.critical_delay

    def test_scaling_invariance(self):
        rng = random.Random(99)
        k = Fraction(7, 3)
        for _ in range(20):
            c = random_circuit(rng, max_gates=20)
            model = _random_model(rng)
            base = critical_path(c, model)
            scaled = critical_path(c, model.scaled(k))
            assert scaled.critical_delay == k * base.critical_delay
            assert scaled.critical_path == base.critical_path

    def test_unit_delay_is_integer_depth(self):
        c = baugh_wooley_multiplier(6)
        d = critical_path(c, UNIT).critical_delay
        assert d.denominator == 1
        assert depth(c) == d

        # depth() comes from the level count of the structural analysis, not
        # from STA; both must agree on every generator, on the Kahn path
        # (a reversed gate list), and on outputs driven straight by CONST.
        def agree(circ):
            assert depth(circ) == critical_path(circ, UNIT).critical_delay

        for n in (4, 8, 16):
            specs = [
                MultiplierSpec(n, n, S, S, Architecture.FLAT_BW),
                MultiplierSpec(n, n, U, U, Architecture.FLAT_UNSIGNED_ARRAY),
                MultiplierSpec(n, n, S, U, Architecture.FLAT_UNSIGNED_ARRAY),
                MultiplierSpec(n, n, S, S, Architecture.BOOTH_RADIX4),
                MultiplierSpec(n, n, S, S, Architecture.DECOMPOSED, leaf_width=2),
                MultiplierSpec(n, n, S, S, Architecture.DECOMPOSED, leaf_width=n // 2,
                               combiner=Combiner.RIPPLE_CASCADE),
            ]
            for spec in specs:
                circ = generate(spec)
                agree(circ)
                agree(Circuit(
                    name=circ.name, inputs=circ.inputs, outputs=circ.outputs,
                    gates=tuple(reversed(circ.gates)), net_count=circ.net_count,
                ))

        b = CircuitBuilder("k")
        (x,) = b.add_input("x", 1, U)
        b.add_output("o", [b.const1(), x], U)
        circ = b.finalize()
        assert depth(circ) == 0
        agree(circ)

        # The DAGs of test_matches_brute_force_on_small_dags, same draws.
        rng = random.Random(2024)
        for i in range(50):
            circ = random_circuit(rng, max_gates=20)
            if i % 2:
                _random_model(rng)
            agree(circ)
            assert depth(circ) == longest_path_delay(circ, UNIT)

    def test_witness_is_connected(self):
        c = baugh_wooley_multiplier(8)
        report = critical_path(c, UNIT)
        path = report.critical_path
        for prev, nxt in zip(path, path[1:]):
            assert prev.output in nxt.inputs


class TestAreaReport:
    def test_full_adder_census(self):
        b = CircuitBuilder("fa")
        (x,) = b.add_input("x", 1, U)
        (y,) = b.add_input("y", 1, U)
        (z,) = b.add_input("z", 1, U)
        from gatemul.genlib import full_adder
        s, c = full_adder(b, x, y, z)
        b.add_output("s", [s], U)
        b.add_output("c", [c], U)
        circ = b.finalize()
        rep = area_report(circ)
        assert rep.counts == {GateKind.XOR2: 2, GateKind.AND2: 2, GateKind.OR2: 1}
        assert rep.total_gates == 5

    def test_counts_sum_to_total(self):
        c = baugh_wooley_multiplier(8)
        rep = area_report(c)
        assert sum(rep.counts.values()) == rep.total_gates == len(c.gates)

    def test_regeneration_stable(self):
        a = area_report(unsigned_array_multiplier(6))
        b = area_report(unsigned_array_multiplier(6))
        assert a == b


class TestCompare:
    def test_self_comparison_ratio_one(self):
        c = baugh_wooley_multiplier(4)
        table = compare([("x", c), ("y", c)], UNIT)
        ratio_row = dict(table.rows)[f"delay ratio vs x"]
        assert ratio_row == ("1", "1")

    def test_deterministic(self):
        c1 = baugh_wooley_multiplier(4)
        c2 = unsigned_array_multiplier(4)
        t1 = compare([("bw", c1), ("arr", c2)], UNIT)
        t2 = compare([("bw", c1), ("arr", c2)], UNIT)
        assert t1 == t2

    def test_model_name_in_header(self):
        c = baugh_wooley_multiplier(4)
        table = compare([("x", c), ("y", c)], DelayModel.tech_demo())
        assert "tech-demo" in table.to_markdown().splitlines()[0]
        assert "tech-demo" in table.to_csv().splitlines()[0]

    def test_markdown_and_csv_carry_identical_values(self):
        t = compare(
            [("bw", baugh_wooley_multiplier(4)), ("arr", unsigned_array_multiplier(4))],
            DelayModel.tech_demo(),
        )
        md_cells = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in t.to_markdown().splitlines()
            if "---" not in line
        ]
        csv_cells = [line.split(",") for line in t.to_csv().splitlines()]
        assert md_cells == csv_cells

    def test_kind_rows_follow_definition_order(self):
        # Rows come in GateKind definition order, never in hash order.
        circuits = [
            ("bw", baugh_wooley_multiplier(8)),
            ("arr", unsigned_array_multiplier(8)),
        ]
        table = compare(circuits, UNIT)
        counted = [m[: -len(" count")] for m, _ in table.rows if m.endswith(" count")]
        used = {g.kind.value for _, c in circuits for g in c.gates}
        assert counted == [k.value for k in GateKind if k.value in used]
        assert [m for m, _ in table.rows] == [
            "critical delay", "depth (gate levels)", "total gates",
            "CONST0 count", "CONST1 count", "NOT count", "AND2 count",
            "NAND2 count", "OR2 count", "XOR2 count", "XNOR2 count",
            "delay ratio vs bw",
        ]

    def test_needs_two_circuits(self):
        with pytest.raises(ValueError):
            compare([("x", baugh_wooley_multiplier(4))], UNIT)

    def test_ratio_above_one_when_baseline_slower(self):
        from gatemul.multipliers import booth_radix4_multiplier
        from fractions import Fraction

        booth = booth_radix4_multiplier(8)
        dec = decomposed_multiplier(
            MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4)
        )
        d_booth = critical_path(booth, UNIT).critical_delay
        d_dec = critical_path(dec, UNIT).critical_delay
        assert d_booth > d_dec  # booth is the slower baseline here
        table = compare([("booth8", booth), ("dec8", dec)], UNIT)
        ratio = dict(table.rows)["delay ratio vs booth8"][1]
        assert Fraction(d_booth, d_dec) > 1
        assert float(ratio) > 1.0


class TestDepthOrdering:
    def test_decomposed_not_deeper_than_flat(self):
        for n in (8, 16):
            flat = baugh_wooley_multiplier(n)
            spec = MultiplierSpec(
                n, n, S, S, Architecture.DECOMPOSED, leaf_width=4,
                combiner=Combiner.CSA_TREE,
            )
            dec = decomposed_multiplier(spec)
            assert depth(dec) <= depth(flat)
