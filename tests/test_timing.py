import hashlib
import random
import re
import weakref
from fractions import Fraction

import pytest

from gatemul.multipliers import (
    Architecture,
    Combiner,
    MultiplierSpec,
    baugh_wooley_multiplier,
    generate,
    mixed_sign_multiplier,
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
from test_multipliers import _digest_key, _digest_specs, _digest_specs_64

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


def _reversed(c):
    """``c`` with its gate list reversed, so the analysis takes Kahn's path."""
    return Circuit(
        name=c.name, inputs=c.inputs, outputs=c.outputs,
        gates=tuple(reversed(c.gates)), net_count=c.net_count,
    )


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
        assert unit.delay_of[GateKind.AND2] == 1
        assert unit.delay_of[GateKind.CONST0] == 0
        tech = DelayModel.by_name("tech-demo")
        assert tech.delay_of[GateKind.NAND2] == Fraction(9, 10)
        assert tech.delay_of[GateKind.XOR2] == Fraction(8, 5)
        assert tech.delay_of[GateKind.BUF] == Fraction(1, 2)

    def test_delays_are_read_only(self):
        m = DelayModel.unit()
        with pytest.raises(TypeError):
            m.delay_of[GateKind.AND2] = 100
        assert m.delay_of[GateKind.AND2] == 1
        assert critical_path(baugh_wooley_multiplier(4), m).critical_delay == 15
        assert m == DelayModel("unit", dict(m.delay_of))

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
        assert m.delay_of[GateKind.AND2] == Fraction(9, 10)

    @pytest.mark.parametrize("key, delay, message", [
        ("AND2", -1, "delay model key must be a GateKind, got 'AND2'"),
        ("x", 1, "delay model key must be a GateKind, got 'x'"),
        (GateKind.AND2, None, "delay for AND2 must be a number, got None"),
        (GateKind.AND2, "fast", "delay for AND2 must be a number, got 'fast'"),
        (GateKind.AND2, "1/0", "delay for AND2 must be a number, got '1/0'"),
        (GateKind.AND2, float("nan"), "delay for AND2 must be a number, got nan"),
    ])
    def test_foreign_key_or_non_number_rejected(self, key, delay, message):
        delays = {k: Fraction(0) for k in GateKind}
        with pytest.raises(ValueError, match=re.escape(message)):
            DelayModel("m", {**delays, key: delay})


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
        assert sum(UNIT.delay_of[g.kind] for g in report.critical_path) == 3

    def test_const_buffer_circuit(self):
        b = CircuitBuilder("cb")
        b.add_input("x", 1, U)
        zero = b.const0()
        out = b.add_gate(GateKind.BUF, [zero])
        b.add_output("o", [out], U)
        circ = b.finalize()
        tech = DelayModel.tech_demo()
        assert critical_path(circ, tech).critical_delay == tech.delay_of[GateKind.BUF]

    def test_matches_brute_force_on_small_dags(self):
        rng = random.Random(2024)
        for i in range(50):
            c = random_circuit(rng, max_gates=20)
            model = _random_model(rng) if i % 2 else UNIT
            report = critical_path(c, model)
            assert report.critical_delay == longest_path_delay(c, model)
            assert sum(model.delay_of[g.kind] for g in report.critical_path) == report.critical_delay

    def test_scaling_invariance(self):
        rng = random.Random(99)
        k = Fraction(7, 3)
        for _ in range(20):
            c = random_circuit(rng, max_gates=20)
            model = _random_model(rng)
            base = critical_path(c, model)
            scaled_model = DelayModel("scaled", {kind: d * k for kind, d in model.delay_of.items()})
            scaled = critical_path(c, scaled_model)
            assert scaled.critical_delay == k * base.critical_delay
            assert scaled.critical_path == base.critical_path

    def test_unit_delay_is_integer_depth(self):
        c = baugh_wooley_multiplier(6)
        d = critical_path(c, UNIT).critical_delay
        assert d.denominator == 1
        assert depth(c) == d

        # depth() runs the longest-path pass on the level table, STA on the
        # unit model's ticks; both must agree on every generator, on the Kahn
        # path (a reversed gate list), and on outputs driven straight by CONST.
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
                agree(_reversed(circ))

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

    def test_depth_is_the_unit_critical_delay_on_every_digest_spec(self):
        for spec in [*_digest_specs(), *_digest_specs_64()]:
            c = generate(spec)
            assert depth(c) == depth(_reversed(c)) == critical_path(c, UNIT).critical_delay

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
        a = area_report(mixed_sign_multiplier(6, U, U))
        b = area_report(mixed_sign_multiplier(6, U, U))
        assert a == b


class TestCompare:
    def test_self_comparison_ratio_one(self):
        c = baugh_wooley_multiplier(4)
        table = compare([("x", c), ("y", c)], UNIT)
        ratio_row = dict(table.rows)[f"delay ratio vs x"]
        assert ratio_row == ("1", "1")

    def test_deterministic(self):
        c1 = baugh_wooley_multiplier(4)
        c2 = mixed_sign_multiplier(4, U, U)
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
            [("bw", baugh_wooley_multiplier(4)), ("arr", mixed_sign_multiplier(4, U, U))],
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
            ("arr", mixed_sign_multiplier(8, U, U)),
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

    @pytest.mark.parametrize("wrap", [list, iter], ids=["list", "iterator"])
    def test_needs_two_circuits(self, wrap):
        with pytest.raises(ValueError, match="^compare needs at least two circuits$"):
            compare(wrap([("x", baugh_wooley_multiplier(4))]), UNIT)

    def test_generator_is_held_one_circuit_at_a_time(self):
        # Each circuit is dropped before the next is asked for: a weak
        # reference to the previous one is dead when the next is built.
        widths = (4, 5, 6)
        built = []

        def entries():
            for w in widths:
                assert not built or built[-1]() is None
                c = baugh_wooley_multiplier(w)
                built.append(weakref.ref(c))
                yield f"bw{w}", c
                del c

        table = compare(entries(), UNIT)
        assert len(built) == len(widths)
        assert table == compare([(f"bw{w}", baugh_wooley_multiplier(w)) for w in widths], UNIT)

    def test_ratio_above_one_when_baseline_slower(self):
        from gatemul.multipliers import booth_radix4_multiplier
        from fractions import Fraction

        booth = booth_radix4_multiplier(8)
        dec = generate(MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4))
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
            dec = generate(spec)
            assert depth(dec) <= depth(flat)


def _sta_digest(circuits, model):
    """SHA-256 over each circuit's depth, critical delay, witness gates (kind,
    inputs, output) and ``arrival_times`` items in order."""
    h = hashlib.sha256()
    for c in circuits:
        report = critical_path(c, model)
        lines = [f"depth {depth(c)}", f"delay {report.critical_delay}"]
        lines += [f"{g.kind.value} {g.inputs} {g.output}" for g in report.critical_path]
        lines += [f"{net} {t}" for net, t in arrival_times(c, model).items()]
        h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()


def _sta_cases():
    """Every generator digest spec with a reversed-gate copy, then the three
    64-bit circuits of the design benchmark as generated."""
    for spec in _digest_specs():
        c = generate(spec)
        yield _digest_key(spec), (c, _reversed(c))
    for arch, leaf in ((Architecture.FLAT_BW, None), (Architecture.BOOTH_RADIX4, None),
                       (Architecture.DECOMPOSED, 4)):
        spec = MultiplierSpec(64, 64, S, S, arch, leaf)
        yield _digest_key(spec), (generate(spec),)


def test_sta_outputs_are_pinned():
    """Witness paths, arrivals and depths under both built-in models; any
    change to STA's tie-breaks or to the arrival order shows up here."""
    models = (UNIT, DelayModel.tech_demo())
    actual = {key: tuple(_sta_digest(circuits, m) for m in models)
              for key, circuits in _sta_cases()}
    assert actual == STA_DIGESTS


# (unit, tech-demo) SHA-256 digests of :func:`_sta_digest`, keyed like
# ``GENERATOR_DIGESTS``.
STA_DIGESTS = {
    'FlatBW 2 ss CsaTree None': ('4071243db0d40f8dda09141a22785ee5856bd95b0e1afc4be2e0706eace98458', 'bd002a6e4db7c2af7a569a458b5a1b9a9adf0c26524c3a7ed4870d6051c46c4b'),
    'FlatBW 2 ss RippleCascade None': ('4b3947237c4f21d284cdac53835f75e8082769f39c4937cf3d5846a3e734dc2d', 'f10afcf2ed81837046406601d15f575c8e39c901c45ec58f32e24be7614eba19'),
    'FlatBW 3 ss CsaTree None': ('4f37bdda5241e8b55a9bd8582a7c2755cf58e993c1055f9f50d0282a957fcfee', '0f00a649cb6f67758da7c33df56504206266ca0021e4779fa86de49bad676e01'),
    'FlatBW 3 ss RippleCascade None': ('432e3528e96b36f57bc14742efc467f8c4bc7d77515025769fd66d9894bc9f63', '0040be6e1a958b50c6283eaaa324937f8df0e06141898761ca833b0fc6517d27'),
    'FlatBW 4 ss CsaTree None': ('aec9c6aa4e25b1bd8b466e22175a093f1d0feb944863a7b112cebcaa357aed2d', '8cd2a0f758e0096548684ebc66a0795bfbeddcf9076fc17a1686415f7b859acb'),
    'FlatBW 4 ss RippleCascade None': ('abae88f6817ae600b4c4e2c3d79da4caa31f8bbac133c3f37aad0a3db16ab7dd', '1839619037f836a256df63fe5383800d75346e04090bc15513475bb5bc44bdfb'),
    'FlatBW 5 ss CsaTree None': ('6162689fdfeea103128be2437d6efd4dfcb4f5f2457ca2d39f058cc5c0801890', '7116142c9d4c2d3a11c05d106fc3345bb0082861a6ce8229b5d92e5ce7b840ec'),
    'FlatBW 5 ss RippleCascade None': ('9d29fc816a76320354d2e9ed4451fb8e849c11dc95e8e68a10715a0c12769087', '3df01ae272e8847aba3e0ad649c83258006b9a9345d56d839c18084a52db9625'),
    'FlatBW 6 ss CsaTree None': ('ee00aebd6a733f5bc7e996e703b0f524e8481d3437b22c868d57e4bda80288e7', '84b080c3d2b2ad7b2d385dd0a251a81c6157e828809f1904a5a2e3342fa5101c'),
    'FlatBW 6 ss RippleCascade None': ('1ba2d653c9d6b15c387bdeb1539e117f84169e1ef6f34a3473b70e0d03fb123a', 'e8020261c6869d1721f3ea2732c695ae2a6808b3b0c215e86478700c45ae3769'),
    'FlatBW 7 ss CsaTree None': ('a63bf2814c9ff79d7f1514dd8ad27ffbdc30e7dbc7aba74a2f08c936fe2b07ee', '7591f9fc8b37aba633ef790e9c3d7d80af84db984dd4077964b3ff2b30413ae9'),
    'FlatBW 7 ss RippleCascade None': ('005b1c1c29587d5a05684cebc32889f52c4cfed3d266a660110f374c1b0c10f0', 'a5a6be2aa3abe50894d432718305c3ba3268f72f498293e3d1ee4c04ab4e814c'),
    'FlatBW 8 ss CsaTree None': ('8cf27069b9abaeb5fdab94907fa99eb367d7f877425c692d23f4c8137b23d0df', 'fa71b260bde6f33779fc4e0ade0881cf51ff98e37718fb3a6e1b901a018e8254'),
    'FlatBW 8 ss RippleCascade None': ('2098a0db24025574c5e3c04c7f741f2f9ccefe312b4f827c26089e5c776828ae', '79066a1e917a5bc1dba07d30aec68ec89d3dc63a06499c0068162781f7362cc6'),
    'FlatBW 16 ss CsaTree None': ('08de78686b75f520043932a11992ed7ddd765e3f1f33004c92fa91776a615ee2', '2fdcd566e88f7d2a8fe0000239b0911e7f49c4902d9347bf1c464fc99d1934f9'),
    'FlatBW 16 ss RippleCascade None': ('c579eddd953c66411ae01d63fe007038f5b2ca350870d55cb348d9ad5835b905', '01421278e54740aa36916855547308fef64942a5a2340525a56117b7b0392950'),
    'FlatUnsignedArray 2 ss CsaTree None': ('4071243db0d40f8dda09141a22785ee5856bd95b0e1afc4be2e0706eace98458', 'bd002a6e4db7c2af7a569a458b5a1b9a9adf0c26524c3a7ed4870d6051c46c4b'),
    'FlatUnsignedArray 2 ss RippleCascade None': ('4b3947237c4f21d284cdac53835f75e8082769f39c4937cf3d5846a3e734dc2d', 'f10afcf2ed81837046406601d15f575c8e39c901c45ec58f32e24be7614eba19'),
    'FlatUnsignedArray 2 su CsaTree None': ('3fce1df5d72b853c5f7d0e559525db82353cb41d665f9945ef95665bc42ce01b', '546a1e6df497072de9359db9594459dcc8aacb0205de60dbe5d5b626bb258b6a'),
    'FlatUnsignedArray 2 su RippleCascade None': ('d7d67529efeae32c6468a6759d57f8d60d0f31b909aa387692c8eb6ea77aa39f', '9d4315046c536409b3312fae98ab065bf4dc2788fd36e26bd25b2f4219827162'),
    'FlatUnsignedArray 2 us CsaTree None': ('2b1187b4a38c6b1ee2c70f53b42060ce5493c58d166cd6153250bdf9b206e1b5', 'f9bf25943ee4a5e0cff3fd0cb570ff490ea829be7182aeb5df5239c43d5c5c79'),
    'FlatUnsignedArray 2 us RippleCascade None': ('6a216c216ddb850f423967828cbe3a8499924ded4a5026c92a529cabb59b7db8', '81ff882dd7e4a9d1fc54b4dac1ed83e9f4cfec5b67a9590c83f0e73b00cd0893'),
    'FlatUnsignedArray 2 uu CsaTree None': ('ded8fbd54824730e050a1ef00c279233e9080859584b15ee8dd4bc51d7ca377b', 'cbaf8db7a64fa9963e4119646a3f056c3a8bf875680f1e7fd5e41d791f0af53c'),
    'FlatUnsignedArray 2 uu RippleCascade None': ('ded8fbd54824730e050a1ef00c279233e9080859584b15ee8dd4bc51d7ca377b', 'cbaf8db7a64fa9963e4119646a3f056c3a8bf875680f1e7fd5e41d791f0af53c'),
    'FlatUnsignedArray 3 ss CsaTree None': ('4f37bdda5241e8b55a9bd8582a7c2755cf58e993c1055f9f50d0282a957fcfee', '0f00a649cb6f67758da7c33df56504206266ca0021e4779fa86de49bad676e01'),
    'FlatUnsignedArray 3 ss RippleCascade None': ('432e3528e96b36f57bc14742efc467f8c4bc7d77515025769fd66d9894bc9f63', '0040be6e1a958b50c6283eaaa324937f8df0e06141898761ca833b0fc6517d27'),
    'FlatUnsignedArray 3 su CsaTree None': ('b88341076f62b2a2a5259520be0b56c5cb8be29eaf4a723b802b89c71030ae7e', '21057ac0fe4e3d28bfa1b1aa8b91d8beb8ce41966c6eef50854aabeacbc63584'),
    'FlatUnsignedArray 3 su RippleCascade None': ('dd04a65d69e1c8cb9a52b439295de86dade1fd406bed3d8a0dfa8633571248d3', '7704ffe983a14ea807a50205f18e5643cd9a2947ff5e75f8d25e02190aa392f1'),
    'FlatUnsignedArray 3 us CsaTree None': ('114fe0a10a304e8122b4f82f44dfb0ebac2fd8e0cc19af159f0d9a01275d3b26', '0de2aaccf7eba3f83ade8b70a2e1df159f138813d5b97118320c5adf83dc4c46'),
    'FlatUnsignedArray 3 us RippleCascade None': ('dd04a65d69e1c8cb9a52b439295de86dade1fd406bed3d8a0dfa8633571248d3', '659ac44cabbfc5bc8b3faa7dd12a5883bbac0a2fd9dbd751b3d00ae2a066de83'),
    'FlatUnsignedArray 3 uu CsaTree None': ('91aef28069af8c266e4a595dec372708bf12d8763204e185afa1527b0b64ccab', '8eebd36f0cadbe0afc748685b10d19a9c6d5f756973b025b5e9f03c737cdeb6f'),
    'FlatUnsignedArray 3 uu RippleCascade None': ('e57a1fdf77a004fe2aa9fa5e6b0d5e9c9fdbab05bfcfc460338e1c671fe05aa1', '54e6882fc8adf590578b221097f2a2a06221c93f87ac2756f9596ab561ae079c'),
    'FlatUnsignedArray 4 ss CsaTree None': ('aec9c6aa4e25b1bd8b466e22175a093f1d0feb944863a7b112cebcaa357aed2d', '8cd2a0f758e0096548684ebc66a0795bfbeddcf9076fc17a1686415f7b859acb'),
    'FlatUnsignedArray 4 ss RippleCascade None': ('abae88f6817ae600b4c4e2c3d79da4caa31f8bbac133c3f37aad0a3db16ab7dd', '1839619037f836a256df63fe5383800d75346e04090bc15513475bb5bc44bdfb'),
    'FlatUnsignedArray 4 su CsaTree None': ('6b55b3e1bb37768c1535b72df982b2450353cbbc7d1acc8338bb361c43788a06', '8db92aa86f8c2f41212e977abe753444a2a5e9851c7542f7751823036ec480a8'),
    'FlatUnsignedArray 4 su RippleCascade None': ('24ca93c127b73945b1517e32d6890ffec86b6fc46c303abba2ae61842f26b68b', 'd92b95168dbca6784ef0644961ba4ff7ef9be6ac86b3434f7267568087dba44f'),
    'FlatUnsignedArray 4 us CsaTree None': ('6b55b3e1bb37768c1535b72df982b2450353cbbc7d1acc8338bb361c43788a06', 'a3d6f3bb2f8271d6405f284dfd9b09b4c43cb2190b0d14afe07463f2fbc2e056'),
    'FlatUnsignedArray 4 us RippleCascade None': ('24ca93c127b73945b1517e32d6890ffec86b6fc46c303abba2ae61842f26b68b', '33fb9e779e50d1b43c1d33be40598331e3de3dcf15616dc69aa470aaae52bc54'),
    'FlatUnsignedArray 4 uu CsaTree None': ('c08091636b59b9e7038c7c1ea9aa7b138623f4560d4e59282a76ab44dc7af3bf', '9dadd5b461a4bdbd01d9e490cb2baf48b84e1bb80a60c6afbc73c0c3e8761c75'),
    'FlatUnsignedArray 4 uu RippleCascade None': ('852aedef10ac10abf936919a99b21365534d7d1c4bebf6ac0f78402575de1ad5', 'dde62dbb2354999ab840d11472e4213aa9afcdf0f4a654104e749afa66c8fdaa'),
    'FlatUnsignedArray 5 ss CsaTree None': ('6162689fdfeea103128be2437d6efd4dfcb4f5f2457ca2d39f058cc5c0801890', '7116142c9d4c2d3a11c05d106fc3345bb0082861a6ce8229b5d92e5ce7b840ec'),
    'FlatUnsignedArray 5 ss RippleCascade None': ('9d29fc816a76320354d2e9ed4451fb8e849c11dc95e8e68a10715a0c12769087', '3df01ae272e8847aba3e0ad649c83258006b9a9345d56d839c18084a52db9625'),
    'FlatUnsignedArray 5 su CsaTree None': ('1e77e92000a1bab4211a95f279dc440ee6b8558b74e2814edd1f9477ee418cec', 'b8c869cd7c24ecbd1f189b9370d347bb95e7272b4a371adb6cb7e06c91d7e59c'),
    'FlatUnsignedArray 5 su RippleCascade None': ('e6ca476445de54f531abc3a1720d9478306876e45b538c1c18722371a967e8dc', 'e363923d5d1da3b871043c0d3c7499e779efd2b26ae5e8ca918fa33c3f09c0e6'),
    'FlatUnsignedArray 5 us CsaTree None': ('1e77e92000a1bab4211a95f279dc440ee6b8558b74e2814edd1f9477ee418cec', '7ed2d754e310e7c9c6bbfaefc4efb20e6f4829d7bfeaac42b63effaa0f9a2e16'),
    'FlatUnsignedArray 5 us RippleCascade None': ('e6ca476445de54f531abc3a1720d9478306876e45b538c1c18722371a967e8dc', 'd159d1066f9347fd63515e6d34829752d1c6af35be5ce7ddf3c38b7d6c63d0e8'),
    'FlatUnsignedArray 5 uu CsaTree None': ('cf875d86557aafd4ad189cd779633560daa225b48fdf5a5b2c1402ecada52ac6', '464fedeb2857186a62b0c55fa5108d9ce5b5bd326a12c5e65f68d8d913c5a1a1'),
    'FlatUnsignedArray 5 uu RippleCascade None': ('1ec184cef3d500e565702c425ad6853178869834aea8824c31c276a052ac3c39', 'bf0a919e855f72e09f204371029c31382e8b24c45f29cbe6fd5a366ecf96c82b'),
    'FlatUnsignedArray 6 ss CsaTree None': ('ee00aebd6a733f5bc7e996e703b0f524e8481d3437b22c868d57e4bda80288e7', '84b080c3d2b2ad7b2d385dd0a251a81c6157e828809f1904a5a2e3342fa5101c'),
    'FlatUnsignedArray 6 ss RippleCascade None': ('1ba2d653c9d6b15c387bdeb1539e117f84169e1ef6f34a3473b70e0d03fb123a', 'e8020261c6869d1721f3ea2732c695ae2a6808b3b0c215e86478700c45ae3769'),
    'FlatUnsignedArray 6 su CsaTree None': ('19fdeba091111a848a382379e7ab6166553924074b1ec5184174d76e33b77e44', '805944e78d500788cd1e3ca1ea8fd549a57b44d3a0aa86678705e9c667231a6e'),
    'FlatUnsignedArray 6 su RippleCascade None': ('cd86ab49a7a0e3844cd6345a7abf444c5f702f9cdfc92125259ff866540d0883', '34b32ee4cee9d70afd146b41b6cd46c07481b4533cca6157e4d19d9acda09e7b'),
    'FlatUnsignedArray 6 us CsaTree None': ('19fdeba091111a848a382379e7ab6166553924074b1ec5184174d76e33b77e44', 'a3d64ad92a58c15767dda7c90541ebaed883311a7fbc37d70eb268645a46d785'),
    'FlatUnsignedArray 6 us RippleCascade None': ('cd86ab49a7a0e3844cd6345a7abf444c5f702f9cdfc92125259ff866540d0883', '069aaf58a3d3592b467c0c7af26d2f45f3b85b597b700672f76005ce9d3f9da9'),
    'FlatUnsignedArray 6 uu CsaTree None': ('f1e4724b4296460fc7e3d11ef547013a45a80983fd67c3146c2bbf43e631537f', 'f33523aa990c37bc02214541b90ade34a1efb692eef5a98cdebce99e0d3ff86a'),
    'FlatUnsignedArray 6 uu RippleCascade None': ('bf1404411ff1105501ddec5da8971779b5cc831b91af29c02bfb1965423ee473', 'a4eb2635b7af217c314c0264af320cac0943634e56f64c433f8f34858251b119'),
    'FlatUnsignedArray 7 ss CsaTree None': ('a63bf2814c9ff79d7f1514dd8ad27ffbdc30e7dbc7aba74a2f08c936fe2b07ee', '7591f9fc8b37aba633ef790e9c3d7d80af84db984dd4077964b3ff2b30413ae9'),
    'FlatUnsignedArray 7 ss RippleCascade None': ('005b1c1c29587d5a05684cebc32889f52c4cfed3d266a660110f374c1b0c10f0', 'a5a6be2aa3abe50894d432718305c3ba3268f72f498293e3d1ee4c04ab4e814c'),
    'FlatUnsignedArray 7 su CsaTree None': ('c8ab3dac904ac8ffb2227c76946710de8484b102527ef66d7f4554cc1f675203', '0e10c63b90695721be9d947822b0b23df4ba69aa6952dec32b3a15ceabb8aebb'),
    'FlatUnsignedArray 7 su RippleCascade None': ('61c12314e399686d13502adc1c90ec07892cbaeca91b7d7b725e34e3400bba95', '6363f44497628bdb0388f51542a1d0eb86a0a182443e329804da2ddba7e20905'),
    'FlatUnsignedArray 7 us CsaTree None': ('c8ab3dac904ac8ffb2227c76946710de8484b102527ef66d7f4554cc1f675203', '8ec2753e88c9310f859a68a7cc0f9bd4cb791f0ad318b04ced67a392fd459bc9'),
    'FlatUnsignedArray 7 us RippleCascade None': ('61c12314e399686d13502adc1c90ec07892cbaeca91b7d7b725e34e3400bba95', '2dd916a4d8c4eca4df4922d4a999562ed3a332727893585be87ed145ffe2e158'),
    'FlatUnsignedArray 7 uu CsaTree None': ('d814d90c676b4ba8f6b46e8da5fd2eaf5d73660a5b366e4e358963fc6e29e586', 'e34a7a1ccc674d06508c76328c5c9bd413fd0f2dc2390b1a515733cb536e8df2'),
    'FlatUnsignedArray 7 uu RippleCascade None': ('74a30674969c425a8d4131d974fe2baa0fe32473681608f1e3f3270001d3c779', 'ddad9ba0eaf8650e4fb2013311711fcdd52860adf24d4e6b0e63592ae3da4748'),
    'FlatUnsignedArray 8 ss CsaTree None': ('8cf27069b9abaeb5fdab94907fa99eb367d7f877425c692d23f4c8137b23d0df', 'fa71b260bde6f33779fc4e0ade0881cf51ff98e37718fb3a6e1b901a018e8254'),
    'FlatUnsignedArray 8 ss RippleCascade None': ('2098a0db24025574c5e3c04c7f741f2f9ccefe312b4f827c26089e5c776828ae', '79066a1e917a5bc1dba07d30aec68ec89d3dc63a06499c0068162781f7362cc6'),
    'FlatUnsignedArray 8 su CsaTree None': ('aaa26971d4cf01dbcdb289eaa4cc65685184362aca7a4ad42b64edc3bd85e7d9', 'f4b34cb04f0d3b8c1140fc010ace82cee4a8147eea56ff7b03edb4f00aaa761b'),
    'FlatUnsignedArray 8 su RippleCascade None': ('ce4c4d7ef8b90b071f302769306008e591ae5fba50a7ae6b04515f68c0d78e26', 'dada517e1f12936988b6b0173cc317815972ebef4909d4a55ae76333055228dc'),
    'FlatUnsignedArray 8 us CsaTree None': ('aaa26971d4cf01dbcdb289eaa4cc65685184362aca7a4ad42b64edc3bd85e7d9', 'ef5522e3d5941b9d74d5aa877c8b13cbe995839f16b5e405575df659aa0bb946'),
    'FlatUnsignedArray 8 us RippleCascade None': ('ce4c4d7ef8b90b071f302769306008e591ae5fba50a7ae6b04515f68c0d78e26', '2b708c10b6be3b607fffe040438bc70a300105c99989da1c498e7e12665de7c2'),
    'FlatUnsignedArray 8 uu CsaTree None': ('91e4c82b96144eca476fd822fb8011b8dfdbef942bbd98b16685242cf8c2b064', '4b76c046c317c713ac6b294647b86e708758f021dc164dbf3e68d52025bec8b0'),
    'FlatUnsignedArray 8 uu RippleCascade None': ('eae88bfa382d13268c81573df5d06538d57fe0c3872f79c677fa0b55f9e45e4c', '7379bac2e7cd2e826980a56b40817c8c1940c649ffec2410a131ea8b19e60a62'),
    'FlatUnsignedArray 16 ss CsaTree None': ('08de78686b75f520043932a11992ed7ddd765e3f1f33004c92fa91776a615ee2', '2fdcd566e88f7d2a8fe0000239b0911e7f49c4902d9347bf1c464fc99d1934f9'),
    'FlatUnsignedArray 16 ss RippleCascade None': ('c579eddd953c66411ae01d63fe007038f5b2ca350870d55cb348d9ad5835b905', '01421278e54740aa36916855547308fef64942a5a2340525a56117b7b0392950'),
    'FlatUnsignedArray 16 su CsaTree None': ('dda07d512dd7ccb754fec2c1025baf38e101bf0c4006c76a5133de013056ac53', '429c5c1513595a311deaace512448f7324ce0f60358751d9b3c19246705aab6e'),
    'FlatUnsignedArray 16 su RippleCascade None': ('1a999a602f0e521ff9e027647b63ce48ebfca413e9e43ac7727c310582039391', '23c2a2abb951bd0788546d6f963e58a18c435e090ca7e46594ebc251ec381d64'),
    'FlatUnsignedArray 16 us CsaTree None': ('dda07d512dd7ccb754fec2c1025baf38e101bf0c4006c76a5133de013056ac53', 'c46597b8df4dd6555c5c7641ef24ba296d48f04bedf88b8da7d8aa9364f95aff'),
    'FlatUnsignedArray 16 us RippleCascade None': ('1a999a602f0e521ff9e027647b63ce48ebfca413e9e43ac7727c310582039391', '9d144a985fb52e110b42c940d00978c7b952d3c585d88d32903ee0e043031f81'),
    'FlatUnsignedArray 16 uu CsaTree None': ('00a4f73f59aa754d19fb5f404fb555125a935b74a89d665fcff3d6bf33e4534b', 'f22b6b72259481d4a8b08e72ab5338c61a001c505a60c34ebbf18af11e74b420'),
    'FlatUnsignedArray 16 uu RippleCascade None': ('c3f2e7b936e6a929ee439068ed19c43ed561b1ca3cf17a67f978b28da3a8f02b', 'b33951625356b371e49ac22596b6cf036981de4add6457dcbc50ffbf019543bf'),
    'BoothRadix4 4 ss CsaTree None': ('3f2bee16ce74e97091fcecf1af52e00174a1bd7a5d4914842ab2dc11ca022a2b', '924c4714a96bc754bf96cdbf922c988ac599932164a4423f3c372bc58f5853f1'),
    'BoothRadix4 4 ss RippleCascade None': ('cf55506784fb70f261e0f2d365dfe89b9c2825cfad6b2ecae4d476835c1f6597', 'b7d5871e4fce649b602c2d5bfb153f05ff72c2c7ac5904363e9737b4d6818acd'),
    'BoothRadix4 6 ss CsaTree None': ('6c2633a38b36952cb1e2ba67e61c9ed13eecf8f8438cf1ec9f2bc9be2d4081d1', '7a3de9a44c1aee0a7a0559f2581cc8b2233ad2c967440a7bb5c61ea7d83f2dcb'),
    'BoothRadix4 6 ss RippleCascade None': ('81fd09e65b76c8e35e377b0888efe8fc52c3e1462c3bc5cafd3f5be70f047aab', 'ef8c495320b4655b32b2978a6228b53881157d2868da9dc8a9113574fd303b59'),
    'BoothRadix4 8 ss CsaTree None': ('91b825b1c97db119143148cccff1a456783adbc9b11ce8a667ebecb9c92e9f8d', '77c73e092f35a366dc8cbd6d495259459f374f5d4482ecbb64f96be07407b310'),
    'BoothRadix4 8 ss RippleCascade None': ('156064f6d1c4735acc85f29b1dcd78df5d3dae3a8005aafdfc5c5389360e031d', 'ab1c7514e079bbe25e6156cf9a6c01c2ed4f09c1b6102af17677571c5dc56536'),
    'BoothRadix4 16 ss CsaTree None': ('449b3142bcf047eee2fd2dcd709ab8f57e99405703a2dbb934d6fc23aa7d53d6', 'c66f288a701a50bcc3df1c2f2044688edb48e86aafe84447a43b8e97b04756f3'),
    'BoothRadix4 16 ss RippleCascade None': ('6e5d14d988cdd98a10a7a88d2af631b587d45aa97072b7c9fc0db5c84ebe8ec6', '8935bf61824b84beedce1f97a152615b16c5e71a7053969ce7ebfa436c5f3e0a'),
    'Decomposed 4 ss CsaTree 2': ('0a367288f1948f986dabfd92cdfae841321e9c0fa674c1a392b490652d060bd6', 'aa8a543870e8f610aa4f27980008282633440a28c352ebfc5671b1176f7095fb'),
    'Decomposed 4 ss RippleCascade 2': ('48e617b1d806d8ee653119defe7ae47dbf5dfb89495eb32a50b9d46bb5b63631', '336b767687163a186c1989129bed4c249f0f8d9db7c00a8e06c632edfbbcdc99'),
    'Decomposed 4 su CsaTree 2': ('34dc2088f0a29d4d7c14399b281477da1b5575806b81c58b0b826c72edbeea44', '4e3cc59a31f19e3b37a2aca7591af421c07d40e85b9d161b4ca8fb02eeb4d434'),
    'Decomposed 4 su RippleCascade 2': ('390afa9cd31ba7427058ede0028e594cc7b1c4724ecdb4d8dc4d5b505b9ef32c', '159cd754f8c3650844b638c77d27f2f0acc68a3bbf16da8cca1d4309e11d477a'),
    'Decomposed 4 us CsaTree 2': ('d61491682e18eea65cf2be6883aa347ff69b378abee39e88bd9932a2033aa216', 'e83b387b35b85d1c3af4f28d8d1403698946fe0dca1d1950c990e50bb66adf2e'),
    'Decomposed 4 us RippleCascade 2': ('13827e1dfe3204c932e0fd6d47bdd7d540089ca8e480f09e99c2b8772020aaf2', 'c63827726def130974aef362ad96cc4ea215e30dcb2d3467e7a54009fd7e1924'),
    'Decomposed 4 uu CsaTree 2': ('9e00d92186ca3e8ee101e9685e1994f3a0890700e6482caa7a648164fc36c2ee', '8affb75ea0bbf26453d786a937e911b641b7f6d3d3d7accd099d55ea8387a2b3'),
    'Decomposed 4 uu RippleCascade 2': ('f6a4e2949d74220b04257e075a8644b15325bbd17afc4011110161e3caf09007', 'd05440cb1bda44d4f491f5439e3b3116055d45b8c39221766da0793d29a91b87'),
    'Decomposed 8 ss CsaTree 2': ('50c2a056016f753d4470f416aaa95fe420a7dddf89a4a205202576aba2ed819e', '54832e077c216c87c5facfd1c905f67cc05bb69e96f9c57fb3959b4f3cf594a3'),
    'Decomposed 8 ss CsaTree 4': ('0dcadf71b6b2a013a53946ba7666670308205730e4620373312e1e71d9d47ef2', '7861522f2f62816f744668c7a365f6428a056f792f8222f4fe39437b14b7f85c'),
    'Decomposed 8 ss RippleCascade 2': ('5548ae858dc7aedadd41b69690972a94176aa5eee4765591ca5ccd622c3d642e', '4773b8bba11614cadfb2d987c8117c70ca1ab08085d18c892f8d076303789998'),
    'Decomposed 8 ss RippleCascade 4': ('b51b7b829bae5677ac984d08cbdbc60d19d4166c1642ff202d09dac4924c98e4', '21d54cdd81cce20ca6649504d1548736d74f4cbc4de82da96c5c4b541bdea81f'),
    'Decomposed 8 su CsaTree 2': ('8eaf44ab5271ee0187bb2aeb20b1407a28301b1acc7cc5b93d6c239277ce0ba6', 'a83859cdc978ae160854e88caa9cd1d739c9ba9248470a7a3987aba1a3391b88'),
    'Decomposed 8 su CsaTree 4': ('ed2d13a1dcb156ed013271164bdad099dd51350f3ac5216673d4b908fdfe9af0', '4edfca33e15f02e33868f24754b59c565c3854d4709f235258693f5b971b0b24'),
    'Decomposed 8 su RippleCascade 2': ('d78f5f6483f8eb826ad8d74e76fef0a08d9a56c05f208fc204085a777ee62407', 'a05cd687f033c2345a6c97bb16b95bcf0710db75f38f0df025074bf9f7e00e0c'),
    'Decomposed 8 su RippleCascade 4': ('fbbeb4ffdba53bd7ec05d9c2b655b429acbedf93ccffe709fb628d9e2abb14b1', '5de38b88ff89c26d7376147bb1c11b2d4c2b8954bda131367f18c3ddce47f366'),
    'Decomposed 8 us CsaTree 2': ('7ec2401ea47f7759a02792c360948c40e368425308b992b099573d3f0e9378d1', 'a859519363d2e21aa24a2641d48d8b34db1e23bfbcef811b04b882c18c9cacac'),
    'Decomposed 8 us CsaTree 4': ('b7d388d555dc27edf6cacb8a7c9e762c245e60d7ad2af915bbfc061b7e29f79c', '6b467c7f17db57117443929f9df61b2a4cc610a3e9619d5993cf34a09ef2aa61'),
    'Decomposed 8 us RippleCascade 2': ('e0f13795bae2013a6e178d631bfe79efcea47461a840d8204384e86eb4022785', 'eff26511151ce21bdf0db922debf0c9a02d9b171f54f19f4fe18741ebe56f6ee'),
    'Decomposed 8 us RippleCascade 4': ('8da3f6cf9f9409d83834cfea744d01425d092326c9f4deaf89a78fd461d6b3ea', '8cae7525b0de2dbd61c03ccb6ec19904221e1e640655a9aff5dbb012ddef02b8'),
    'Decomposed 8 uu CsaTree 2': ('4d9c3f9ec37367e4c6055330d4835ee21f1a7e0510a14ead5297072f492f0747', '709760947b371471c451f76d4cb0935b9edaacaeb540a7da80502ab69d7cb7d4'),
    'Decomposed 8 uu CsaTree 4': ('d38afd69b939648580021ae9591799e943f8f6c34dea070dd9308596d495e676', '8503e6fd6577142bd54483d8d26cd4379ca7102765ec19c873a973d922e2e029'),
    'Decomposed 8 uu RippleCascade 2': ('3c524cfb5bf053a2a374f603039ae8b07e8f8b15552364d9d45e498005cb9ee4', '1c25afd5143ebb79b6b6e51778f945b5ecb26d3e62bb5aa77ca0aaab4642d49a'),
    'Decomposed 8 uu RippleCascade 4': ('fc8b665de3ce5fbde765d8f3f84fca627a04ee1568ed2822027915cb1ad521b3', '027da8e5a1a5c49b9f71e1908af17d9e82f9d9eb1085fde54747028751ec4d56'),
    'Decomposed 16 ss CsaTree 2': ('d596dc7bf5322edfd86a4d093004f8e79e5b839f82e70e64cca7865c64dee5c2', 'c605801e0cd179302703d595376fc9ea030a63cec5192386a8bee42bee5a3f3a'),
    'Decomposed 16 ss CsaTree 4': ('405bcf0181ca2ece2cca61db468c662ed47e09ff29518a726e7a8c44e1560f90', 'ef91b368095a614dc6eb96a5e78de80b874dd4c5653ed8465806a8d2ee95c9c3'),
    'Decomposed 16 ss CsaTree 8': ('17b49de0650cd021fdce5956a6a9566ccc3fb090c592311c7cdfe22fa649f9f9', '5d3f56f99ac1820fdf2044721996fc2fc40dedb462e5d197c70c421f58c20f50'),
    'Decomposed 16 ss RippleCascade 2': ('029a067cd530ed14599b50675f814b6b101e29eeb26cefdcbf8b1aeebe9a327f', '1ea8f805970e5fba2009f69bfcac7ca76922dfb878853a09bf0ed1343727df17'),
    'Decomposed 16 ss RippleCascade 4': ('d1778f4619262aaf19d2c673a424b5e07a69f322c5dff70a7eefa9fd31b5fe9b', 'a0581d4e3178a48fc68364af088dcd02ce640de9202d10bb38cf5305ba397fe1'),
    'Decomposed 16 ss RippleCascade 8': ('c3e1b1dbeae82fa72ed2cd96b3c4758f4f65a27e57c59f6dc61462f45e9a7f71', '3ca6e116872711dd8be756f764b3504d37ccdd04600ed3aa5616a9b30e84560c'),
    'Decomposed 16 su CsaTree 2': ('106dcb7551a465e954a3335f92b922c24974d323794295d0705ea7db67c30b90', 'a509802e0b443e1aee45e1ad601c9c3cad714eae83707880cc433a177315b65d'),
    'Decomposed 16 su CsaTree 4': ('686c2d169e5fd47cc5123f1e6655bfd3b635048450d9f02f81696736a334a8f5', '4eda785166472009a3fcbbb7c73b76ec2c98df3792f88a8bf1530c06f7244f2d'),
    'Decomposed 16 su CsaTree 8': ('4d4246dcb79e437cc32d8fe21a1de3ddb746354c3737a75392857a121496ab74', '53609cce434296a3cb63236caa40519271355232530e74ccb4ddb8cf024a6d64'),
    'Decomposed 16 su RippleCascade 2': ('409d4d6b300e4a5a515b7f5027b978a78c2cdfba3267fef420facad5f6472a75', '91545637c9c6e26c810c55ec49cdec99eec15ff4e2a919cf890a2a214add12e5'),
    'Decomposed 16 su RippleCascade 4': ('6015b729bc7203bf0d2424a2fcb4a4d87d5cdcbb2dee4d8def4390f4f0a2115b', 'e5e82db3767145a748eb0451d89454c4e549c97575c4f15191ab74e422fff61c'),
    'Decomposed 16 su RippleCascade 8': ('7fbc46bbf3ee1435768b569acac057bb37237b855d6cfeaf8312d37e5f559ec5', 'f6fd4b8a7f7756bfe42287aac36cc82403657d135caff21117aa8e24910b697d'),
    'Decomposed 16 us CsaTree 2': ('2500ce68aee272b52bb5cba45673e6949343b5ffef8b92ac018b424708c566c5', 'd3bac45b232c1f06bde23b4f6d3767689ba58a90a3fe8245a28398434045454d'),
    'Decomposed 16 us CsaTree 4': ('14c8567ed57becffcb56f889ad44c71d91de03a416518c6239af57c36982d584', '3fef5b105a192d7d265933f072e3f2a4cc536fdf971379eee09a47d1140274fa'),
    'Decomposed 16 us CsaTree 8': ('33fa1d08b3c0af886482510addec22b59e13028368184b30a52a7d1f595c1bf0', 'ae9773bf49a8cef8b03cc7a9c88ca4dc19e1570fe45291cae98ad09a59a2e908'),
    'Decomposed 16 us RippleCascade 2': ('4d631c90c97cc40946aa28c29e7270c2d72e98db936a4c4d04b28c0d2a7d8eaf', '142c432c522e976feb1e71368d50c44341ce0d1b567e9ace91bf11797f0c667b'),
    'Decomposed 16 us RippleCascade 4': ('8f831b79189556340f4329c315982a8c1a576356fa858c6c380ccb1a6403f4eb', '23a4ba5788b9146a5e94a39061dc6c22d9a4412b37ffb56839b44beec69f9863'),
    'Decomposed 16 us RippleCascade 8': ('e0fd459815cc0d4ab47f1a67ce9521bf26b250e7eae9868e0ccffeb6121846fe', '00471a6d156e69ab748ea2ea92f8e6c56b86239dc23df3e075bbe2ae877e0af9'),
    'Decomposed 16 uu CsaTree 2': ('ea606ab9c285c98916c46fed36d097708cecb7faf22b9159c66df90bc0e5fd7a', 'e6fc2f251ac38d35876710fd3f93eed2863f061a932e4f23357d00bfa574f008'),
    'Decomposed 16 uu CsaTree 4': ('77287a65836e67698fbe4b0c63db45d41519d4efca2a53348ae9a8afebce1a71', '1533307c21a8e3ead49751920669af465a9363b28ffdd4f92ea80e0d202127b7'),
    'Decomposed 16 uu CsaTree 8': ('5b3dc081b790060e3a701483f639ee004fb31fa2d83dde5b6507b2aa4497ac72', '2e9fed6f6acbf89ed1fa40ad4d603dc6d26c2558ff960499592e9d66f2cd422b'),
    'Decomposed 16 uu RippleCascade 2': ('6e8d54faa19b147c682055a58fcc1b24cdeb6daf4d29c556840983d6aa2afbb4', '8df0c2da32da61182180130f0a034e4f95ce22eba24a648b34c27f9252c507c2'),
    'Decomposed 16 uu RippleCascade 4': ('e4be21950672c61efc062105d1ec73401438237d513114731311b8f873b79e3d', '670f49b65c8d3ab2ead55216ab30aabb2abb7efb3ea9f914f620c1ab20eedd5a'),
    'Decomposed 16 uu RippleCascade 8': ('1fa224fe9b9ba539dd3fe39b75857800591d07cf213663e537a66f0dcb795fea', '72218fa9b67aed2751fa57557177c39699b3077f0cdbf62e75899f1f701fc90b'),
    'FlatBW 64 ss CsaTree None': ('7c0eb722b1fddd7d82b0b6744384321b271ea4542d3ae5dca5b3673cdc465b02', '70ee19b879c0895b22ecc3f95b965532b827671a6c365fdab10530d44e558ea1'),
    'BoothRadix4 64 ss CsaTree None': ('ed3d447aafff0a9783e08f32a47dc55e1fa2ddccf48e0912eff6cc542e6642eb', '8eb53e59fb819e921f4314bc9d3743997c633eb41fee0726e3e0652a080bf1f7'),
    'Decomposed 64 ss CsaTree 4': ('17b4c9935043b0e469cec555898d37cfa2b6437217b1511b90f962d2971c39a6', 'fc0171211cd6085edff88ec5a0a03fe74fc8c8d6bd323388842e254f4ffa4572'),
}
