import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gatemul.sim as sim
from gatemul.multipliers import (
    Architecture,
    MultiplierSpec,
    baugh_wooley_multiplier,
    generate,
    mixed_sign_multiplier,
)
from gatemul.netlist import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    Port,
    Signedness,
    ValidationError,
    gate_schedule,
)
from gatemul.sim import (
    decode,
    encode,
    evaluate,
    evaluate_batch,
    evaluate_vector_array,
    port_dtype,
    value_range,
)

from oracles import bits_msb, demand_evaluate, random_assignment, random_circuit
from test_multipliers import _digest_specs

S = Signedness.SIGNED
U = Signedness.UNSIGNED


class TestEncodeDecode:
    def test_plus_minus_four(self):
        # +4 <-> 0100 and -4 <-> 1100 (MSB-first) in 4-bit two's complement.
        assert encode(4, 4, S) == bits_msb("0100")
        assert encode(-4, 4, S) == bits_msb("1100")
        assert decode(bits_msb("1100"), S) == -4
        assert decode(bits_msb("0100"), S) == 4

    def test_unsigned_reading_differs(self):
        assert decode(bits_msb("1100"), U) == 12

    def test_signed_boundary(self):
        assert encode(-8, 4, S) == bits_msb("1000")
        with pytest.raises(ValueError):
            encode(8, 4, S)
        with pytest.raises(ValueError):
            encode(-9, 4, S)
        with pytest.raises(ValueError):
            encode(16, 4, U)
        with pytest.raises(ValueError):
            encode(-1, 4, U)

    def test_decode_empty_rejected(self):
        with pytest.raises(ValueError):
            decode([], U)

    @given(
        st.integers(min_value=1, max_value=16),
        st.sampled_from([S, U]),
        st.data(),
    )
    def test_round_trip(self, width, signedness, data):
        lo, hi = value_range(width, signedness)
        value = data.draw(st.integers(min_value=lo, max_value=hi))
        assert decode(encode(value, width, signedness), signedness) == value


class TestEvaluate:
    def test_multiplier_spot_value(self):
        c = baugh_wooley_multiplier(4)
        assert evaluate(c, {"A": 4, "B": -4}) == {"P": -16}
        assert evaluate(c, {"A": 0, "B": -7}) == {"P": 0}

    def test_missing_port(self):
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError, match="missing"):
            evaluate(c, {"A": 1})

    def test_unknown_port(self):
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError, match="unknown"):
            evaluate(c, {"A": 1, "B": 2, "C": 3})

    def test_out_of_range(self):
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError, match="range"):
            evaluate(c, {"A": 8, "B": 0})

    def test_matches_demand_driven_oracle(self):
        rng = random.Random(42)
        checked = 0
        while checked < 1000:
            c = random_circuit(rng)
            for _ in range(5):
                vec = random_assignment(rng, c)
                assert evaluate(c, vec) == demand_evaluate(c, vec)
                checked += 1

    def test_pure(self):
        c = baugh_wooley_multiplier(4)
        first = evaluate(c, {"A": -3, "B": 5})
        assert all(evaluate(c, {"A": -3, "B": 5}) == first for _ in range(3))


class TestBatch:
    def test_batch_of_one_equals_evaluate(self):
        c = baugh_wooley_multiplier(4)
        vec = {"A": -5, "B": 3}
        assert evaluate_batch(c, [vec]) == [evaluate(c, vec)]

    def test_batch_matches_scalar(self):
        rng = random.Random(9)
        for _ in range(20):
            c = random_circuit(rng)
            vecs = [random_assignment(rng, c) for _ in range(17)]
            assert evaluate_batch(c, vecs) == [evaluate(c, v) for v in vecs]

    def test_chunking_does_not_change_results(self, monkeypatch):
        c = baugh_wooley_multiplier(4)
        vecs = [{"A": a, "B": b} for a in range(-8, 8) for b in range(-8, 8)]
        reference = evaluate_batch(c, vecs)
        for chunk in (1, 7, 15, 10_000):
            monkeypatch.setattr(sim, "_CHUNK", chunk)
            assert evaluate_batch(c, vecs) == reference

    def test_exhaustive_8x8_sweep(self):
        c = baugh_wooley_multiplier(8)
        a = np.repeat(np.arange(-128, 128, dtype=np.int64), 256)
        b = np.tile(np.arange(-128, 128, dtype=np.int64), 256)
        out = evaluate_vector_array(c, {"A": a, "B": b})
        assert np.array_equal(out["P"], a * b)

    def test_batch_error_reports_vector_index(self):
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError, match="vector 1"):
            evaluate_batch(c, [{"A": 0, "B": 0}, {"A": 99, "B": 0}])
        with pytest.raises(ValueError, match="vector 2"):
            evaluate_batch(c, [{"A": 0, "B": 0}, {"A": 1, "B": 1}, {"B": 0}])

    def test_empty_batch(self):
        c = baugh_wooley_multiplier(4)
        assert evaluate_batch(c, []) == []


def test_vector_array_shape_checks():
    c = baugh_wooley_multiplier(4)
    with pytest.raises(ValueError, match="same length"):
        evaluate_vector_array(c, {"A": [1, 2], "B": [1]})
    with pytest.raises(ValueError, match="one-dimensional"):
        evaluate_vector_array(c, {"A": [[1]], "B": [[1]]})
    for zero_d in (1, np.int64(1), np.array(1), np.array(1, dtype=object)):
        with pytest.raises(ValueError, match="'A' must be one-dimensional"):
            evaluate_vector_array(c, {"A": zero_d, "B": [1]})


def test_signed_output_port_decoding():
    b = CircuitBuilder("neg")
    bits = b.add_input("A", 3, S)
    inverted = [b.add_gate(GateKind.NOT, [x]) for x in bits]
    b.add_output("Y", inverted, S)
    c = b.finalize()
    # ~A in two's complement is -A - 1.
    for a in range(-4, 4):
        assert evaluate(c, {"A": a})["Y"] == -a - 1


class TestWideArrays:
    """Ports whose range exceeds int64 travel as exact Python ints."""

    def test_32x32_unsigned_full_product(self):
        c = mixed_sign_multiplier(32, U, U)
        top = (1 << 32) - 1
        out = evaluate_vector_array(c, {"A": [top, 0, top, 1], "B": [top, top, 2, top]})
        assert out["P"].tolist() == [top * top, 0, 2 * top, top]

    @pytest.mark.parametrize("width", [1, 31, 32, 33, 62, 63, 64, 65, 130])
    @pytest.mark.parametrize("signedness", [S, U])
    def test_pass_through_matches_scalar(self, width, signedness, monkeypatch):
        # Y = NOT A round-trips every value through packing and decoding.
        b = CircuitBuilder("inv")
        bits = b.add_input("A", width, signedness)
        b.add_output("Y", [b.add_gate(GateKind.NOT, [x]) for x in bits], signedness)
        c = b.finalize()
        lo, hi = value_range(width, signedness)
        rng = random.Random(width)
        vals = [lo, hi, 0, *(rng.randint(lo, hi) for _ in range(40))]
        monkeypatch.setattr(sim, "_CHUNK", 16)
        got = evaluate_vector_array(c, {"A": vals})["Y"].tolist()
        assert got == [evaluate(c, {"A": v})["Y"] for v in vals]
        assert got == [(~v - lo) % (hi - lo + 1) + lo for v in vals]

    def test_wide_out_of_range_rejected(self):
        b = CircuitBuilder("buf")
        bits = b.add_input("A", 64, U)
        b.add_output("Y", [b.add_gate(GateKind.BUF, [x]) for x in bits], U)
        with pytest.raises(ValueError, match="out of range"):
            evaluate_vector_array(b.finalize(), {"A": [0, 1 << 64]})


class TestInvalidCircuits:
    """Hand-assembled circuits that fail validation are never simulated."""

    UNDRIVEN = Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(),
        net_count=2,
    )
    GATE_OUT_OF_RANGE = Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(Gate(GateKind.NOT, (5,), 1),),
        net_count=2,
    )
    OUTPUT_OUT_OF_RANGE = Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (2,), U),),
        gates=(Gate(GateKind.NOT, (0,), 1),),
        net_count=2,
    )

    @pytest.mark.parametrize("c", [UNDRIVEN, GATE_OUT_OF_RANGE, OUTPUT_OUT_OF_RANGE])
    def test_evaluate_rejects(self, c):
        with pytest.raises(ValidationError, match="invalid"):
            evaluate(c, {"A": 1})

    @pytest.mark.parametrize("c", [UNDRIVEN, GATE_OUT_OF_RANGE, OUTPUT_OUT_OF_RANGE])
    def test_vector_array_rejects(self, c):
        with pytest.raises(ValidationError, match="invalid"):
            evaluate_vector_array(c, {"A": [0, 1]})


class TestNoInputPorts:
    """A circuit without input ports, a constant output, is invalid."""

    CONST = Circuit("k", (), (Port("P", (0,), U),), (Gate(GateKind.CONST1, (), 0),), 1)
    REFUSED = "^circuit 'k' is invalid: BadPort: circuit has no input port$"

    def test_scalar_and_batch_evaluate(self):
        for call in (lambda: evaluate(self.CONST, {}),
                     lambda: evaluate_batch(self.CONST, [{}, {}])):
            with pytest.raises(ValidationError, match=self.REFUSED):
                call()

    def test_vector_array_refuses_without_a_vector_count(self):
        with pytest.raises(ValidationError, match=self.REFUSED):
            evaluate_vector_array(self.CONST, {})


class TestNonIntegerInput:
    """Array inputs are integers; nothing is truncated or parsed."""

    @pytest.mark.parametrize("values", [
        [1.5, 2.9],
        np.array([1.5, 2.9]),
        ["3", "1"],
        np.array(["3", "1"]),
        np.array([1.5, 2], dtype=object),
        [None, 1],
        np.array([True, False]),
    ], ids=["float-list", "float-array", "str-list", "str-array", "float-object",
            "none-list", "bool-array"])
    def test_rejected_naming_the_port(self, values):
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError, match="'A' must be integers"):
            evaluate_vector_array(c, {"A": values, "B": [1, 2]})

    def test_float_array_rejected_on_a_wide_port(self):
        c = mixed_sign_multiplier(64, U, U)
        with pytest.raises(ValueError, match="'B' must be integers"):
            evaluate_vector_array(c, {"A": [1, 2], "B": np.array([1.0, 2.0])})

    def test_non_integer_rejected_on_a_wide_port(self):
        # Ports past int64 take object arrays, which must hold integers too.
        c = mixed_sign_multiplier(64, U, U)
        with pytest.raises(ValueError, match="'A' must be integers"):
            evaluate_vector_array(c, {"A": [1.5, 2], "B": [1, 2]})
        b = CircuitBuilder("wide")
        bits = b.add_input("W", 70, U)
        b.add_output("Y", bits, U)
        with pytest.raises(ValueError, match="'W' must be integers"):
            evaluate_vector_array(b.finalize(), {"W": [2, 1.5]})

    def test_integers_of_every_kind_accepted(self):
        c = baugh_wooley_multiplier(4)
        expect = [-8, 0, 7]
        for a in ([-8, 0, 7], np.array([-8, 0, 7], dtype=np.int8),
                  np.array([-8, 0, 7], dtype=object), [np.int64(-8), 0, 7]):
            assert evaluate_vector_array(c, {"A": a, "B": [1, 1, 1]})["P"].tolist() == expect
        out = evaluate_vector_array(c, {"A": [], "B": np.zeros(0, np.uint8)})["P"]
        assert out.dtype == np.int64 and len(out) == 0


@pytest.fixture(scope="module")
def su64():
    """A signed 64-bit port A (int64 arrays) and an unsigned one B (object)."""
    return mixed_sign_multiplier(64, S, U)


class TestOneIntegerRule:
    """Every entry point takes a port value through ``operator.index`` and
    gives the same exact Python-int product or the same ``ValueError``."""

    ENTRY_POINTS = {
        "evaluate": lambda c, vec: evaluate(c, vec)["P"],
        "evaluate_batch": lambda c, vec: evaluate_batch(c, [vec])[0]["P"],
        "evaluate_vector_array":
            lambda c, vec: evaluate_vector_array(c, {k: [v] for k, v in vec.items()})["P"][0],
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("port", ["A", "B"])
    @pytest.mark.parametrize("value", [
        np.uint16(65535), np.uint64(1 << 63), np.int8(-128), np.int64(3),
        2.0, 1.5, "3", None, Fraction(2),
    ], ids=repr)
    def test_same_product_or_error(self, su64, entry, port, value):
        vec = {"A": 4, "B": 4, port: value}
        run = self.ENTRY_POINTS[entry]
        if not hasattr(value, "__index__"):
            with pytest.raises(ValueError, match=f"values for '{port}' must be integers"):
                run(su64, vec)
            return
        lo, hi = value_range(64, S if port == "A" else U)
        if not lo <= int(value) <= hi:
            with pytest.raises(ValueError, match=f"out of range .* for port '{port}'$"):
                run(su64, vec)
            return
        got = run(su64, vec)
        assert type(got) is int and got == int(value) * 4


def _inverted_every(circuit: Circuit, step: int) -> Circuit:
    """Every ``step``-th gate, if two-input, swapped for its inverse."""
    k = GateKind
    inverse = {k.AND2: k.NAND2, k.NAND2: k.AND2, k.OR2: k.NOR2, k.NOR2: k.OR2,
               k.XOR2: k.XNOR2, k.XNOR2: k.XOR2}
    gates = list(circuit.gates)
    for gi in range(0, len(gates), step):
        if gates[gi].kind in inverse:
            gates[gi] = gates[gi]._replace(kind=inverse[gates[gi].kind])
    return dataclasses.replace(circuit, gates=tuple(gates))


# SHA-256 of evaluate_vector_array's output bytes, recorded before the
# simulator was compiled to slot programs.  Every correct 16-bit multiplier
# gives the same products; the mutants (every 97th gate inverted) differ.
_PRODUCTS_16 = "58444690da4093e102729fa62ea01e1f89aa2a9a962918d4f13087fbc16fd879"
PINNED_OUTPUTS = [
    (Architecture.FLAT_BW, None,
     "a08249a4420d5420a48c9aaa0516ce0517da0b89fca90360e579d2a206727459"),
    (Architecture.BOOTH_RADIX4, None,
     "d3fb96fdf49a4f60f8f8e5fc0f30dac155f7f0dbfa992918af57a10814896063"),
    (Architecture.DECOMPOSED, 4,
     "ab82c4509a14a864ec97c58dcb3256e785348fca305c4c7f471aa763c2260862"),
]


@pytest.mark.parametrize("arch, leaf, mutant_digest", PINNED_OUTPUTS)
def test_pinned_16_bit_outputs(arch, leaf, mutant_digest):
    c = generate(MultiplierSpec(16, 16, S, S, arch, leaf))
    lo, hi = value_range(16, S)
    rng = np.random.default_rng(2025)
    a = rng.integers(lo, hi + 1, 200_025)
    b = rng.integers(lo, hi + 1, 200_025)
    digests = [
        hashlib.sha256(evaluate_vector_array(x, {"A": a, "B": b})["P"].tobytes()).hexdigest()
        for x in (c, _inverted_every(c, 97))
    ]
    assert digests == [_PRODUCTS_16, mutant_digest]


def _random_port_values(rng, width, signedness, count):
    """``count`` values of the port's range, its two ends first."""
    lo, hi = value_range(width, signedness)
    vals = [lo, hi, 0, -1 if lo < 0 else 1][:count]
    vals += [rng.randint(lo, hi) for _ in range(count - len(vals))]
    return vals


class TestLaneDefinition:
    """Packing puts bit j of vector k at bit k of lane j; unpacking inverts it."""

    @pytest.mark.parametrize("signedness", [S, U])
    def test_small_counts_every_width(self, signedness):
        rng = random.Random(7)
        for width in range(1, 131):
            if signedness is S and width == 1:
                continue
            for count in range(1, 18):
                vals = _random_port_values(rng, width, signedness, count)
                lanes = sim._pack_port(np.array(vals, port_dtype(width, signedness)), width)
                bits = [encode(v, width, signedness) for v in vals]
                assert lanes == [sum(bits[k][j] << k for k in range(count))
                                 for j in range(width)]
                back = sim._unpack_lanes(lanes, width, count, signedness, np)
                assert back.dtype == port_dtype(width, signedness)
                assert back.tolist() == vals

    @pytest.mark.parametrize("signedness", [S, U])
    def test_one_chunk_and_one_vector(self, signedness):
        """65,537 vectors at every width that fits int64 and at the object
        widths around 64 and 128 (object arrays are too slow for all)."""
        count = 65_537
        nprng = np.random.default_rng(11)
        rng = random.Random(11)
        probe = [0, 1, 7, 8, 9, 63, 64, 65_535, 65_536,
                 *rng.sample(range(count), 40)]
        for width in [*range(1, 66), 127, 128, 129, 130]:
            if signedness is S and width == 1:
                continue
            lo, hi = value_range(width, signedness)
            dtype = port_dtype(width, signedness)
            if dtype is np.int64:
                arr = nprng.integers(lo, hi, count, endpoint=True)
            else:
                limbs = nprng.integers(0, 1 << 64, (count, -(-width // 64)), np.uint64,
                                       endpoint=False).astype(object)
                raw = limbs[:, 0]
                for i in range(1, limbs.shape[1]):
                    raw = raw | (limbs[:, i] << (64 * i))
                arr = (raw % (hi - lo + 1)) + lo
            arr[:2] = lo, hi
            lanes = sim._pack_port(arr, width)
            assert len(lanes) == width and all(lane >> count == 0 for lane in lanes)
            for k in probe:
                assert [(lane >> k) & 1 for lane in lanes] == encode(int(arr[k]), width, signedness)
            back = sim._unpack_lanes(lanes, width, count, signedness, np)
            assert back.dtype == dtype and np.array_equal(back, arr)

    @pytest.mark.parametrize("signedness", [S, U])
    def test_bytes_unpack_agrees(self, signedness):
        """The numpy-free unpack gives the values as a list of Python ints:
        every width and small count, and a whole chunk at the widths around
        each array item size and past 64 bits.  The array reader agrees with
        it at every width, on those counts and on one chunk and one vector."""
        rng = random.Random(5)
        for width in range(1, 131):
            if signedness is S and width == 1:
                continue
            for count in range(1, 18):
                vals = _random_port_values(rng, width, signedness, count)
                lanes = sim._pack_port(np.array(vals, port_dtype(width, signedness)), width)
                assert sim._unpack_lanes(lanes, width, count, signedness) == vals
        for width in (2, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64, 65, 130):
            lo, _ = value_range(width, signedness)
            vals = [lo + rng.getrandbits(width) for _ in range(65_536)]
            lanes = sim._pack_port(np.array(vals, port_dtype(width, signedness)), width)
            back = sim._unpack_lanes(lanes, width, 65_536, signedness)
            assert all(type(v) is int for v in back) and back == vals
        for width in range(1, 131):
            if signedness is S and width == 1:
                continue
            for count in [*range(1, 18), 65_537]:
                lanes = [rng.getrandbits(count) for _ in range(width)]
                listed = sim._unpack_lanes(lanes, width, count, signedness)
                assert sim._unpack_lanes(lanes, width, count, signedness, np).tolist() == listed


@pytest.mark.parametrize("groups", [1, 3, 8_192])
def test_transpose8_array_and_int_agree(groups):
    """The in-place transpose of a uint64 array and the transpose of one
    Python int of the same bytes give the same words; twice is the input."""
    raw = random.Random(groups).randbytes(8 * groups)
    words = np.frombuffer(raw, "<u8").copy()
    assert sim._transpose8(words, groups) is words
    as_int = sim._transpose8(int.from_bytes(raw, "little"), groups)
    assert as_int.to_bytes(8 * groups, "little") == words.tobytes() != raw
    assert sim._transpose8(as_int, groups) == int.from_bytes(raw, "little")
    sim._transpose8(words, groups)
    assert words.tobytes() == raw
    # Bit 8*r + c of a word goes to bit 8*c + r.
    for bit in (0, 1, 9, 14, 57, 63):
        one = np.array([1 << bit], np.uint64)
        sim._transpose8(one, 1)
        assert int(one[0]) == 1 << (8 * (bit % 8) + bit // 8)


def test_sweep_assigns_every_input_vector():
    """Vector k of the sweep assigns the input ports the k-th tuple of the
    product of their ranges, the first port counting slowest."""
    b = CircuitBuilder("ports")
    ports = [("a", 3, S), ("b", 1, U), ("c", 2, S), ("d", 4, U)]
    for name, width, signedness in ports:
        b.add_output(f"{name}_out", b.add_input(name, width, signedness), signedness)
    c = b.finalize()
    count, out = sim._evaluate_sweep(c)
    vectors = list(itertools.product(*(range(lo, hi + 1) for lo, hi in
                                       (value_range(w, s) for _, w, s in ports))))
    assert count == len(vectors) == 2 ** 10
    assert list(zip(*(out[f"{name}_out"] for name, _, _ in ports))) == vectors


def _awkward_circuit(rng: random.Random) -> Circuit:
    """A random DAG with what slot reuse can get wrong: ``x op x`` gates,
    dead gates, constants, output ports sharing nets and repeating one, input
    bits as outputs, and a shuffled gate list (ordered by Kahn's sort)."""
    b = CircuitBuilder("awkward")
    nets: list[int] = []
    for i in range(rng.randint(1, 3)):
        nets += b.add_input(f"in{i}", rng.randint(1, 4), rng.choice([S, U]))
    inputs = list(nets)
    for _ in range(rng.randint(1, 40)):
        kind = rng.choice(list(GateKind))
        if kind.arity == 2 and rng.random() < 0.2:
            ins = [rng.choice(nets)] * 2
        else:
            ins = [rng.choice(nets) for _ in range(kind.arity)]
        nets.append(b.add_gate(kind, ins))
    for o in range(rng.randint(1, 3)):
        bits = [rng.choice(nets) for _ in range(rng.randint(1, 5))]
        bits += [bits[0]] * rng.randint(0, 1) + [rng.choice(inputs)] * rng.randint(0, 1)
        b.add_output(f"out{o}", bits, rng.choice([S, U]))
    c = b.finalize()
    gates = list(c.gates)
    rng.shuffle(gates)
    return dataclasses.replace(c, gates=tuple(gates))


@pytest.mark.parametrize("chunk", [1, 7, 8, 9, 64])
def test_awkward_circuits_match_demand_oracle(chunk, monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    rng = random.Random(chunk)
    seen, kinds = set(), set()
    for _ in range(60):
        c = _awkward_circuit(rng)
        kinds.update(g.kind for g in c.gates)
        read = {net for g in c.gates for net in g.inputs}
        in_bits = {net for p in c.inputs for net in p.bits}
        out_bits = [net for p in c.outputs for net in p.bits]
        seen.update(
            what for what, present in [
                ("x op x", any(len(set(g.inputs)) < len(g.inputs) for g in c.gates)),
                ("dead gate", any(g.output not in read | set(out_bits) for g in c.gates)),
                ("constant", any(not g.inputs for g in c.gates)),
                ("repeated output net", len(set(out_bits)) < len(out_bits)),
                ("input bit as output", bool(in_bits & set(out_bits))),
                ("reordered", gate_schedule(c) != list(range(len(c.gates)))),
                ("every gate kind", kinds == set(GateKind)),
            ] if present
        )
        vecs = [random_assignment(rng, c) for _ in range(rng.randint(1, 100))]
        want = [demand_evaluate(c, v) for v in vecs]
        assert [evaluate(c, v) for v in vecs] == want
        out = evaluate_vector_array(c, {p.name: [v[p.name] for v in vecs] for p in c.inputs})
        assert [{k: int(out[k][i]) for k in out} for i in range(len(vecs))] == want
    assert len(seen) == 7


def _peak_live_nets(circuit: Circuit) -> int:
    """Most nets holding a value at once when the gates run in schedule order.

    Input bits are live from the start, a gate's output from its step.  A net
    stays live until the step of its last reader, which may write its output
    over it; output-port nets stay live to the end, and a net nothing reads
    is live for its own step only.
    """
    steps = len(circuit.gates)
    born = {net: -1 for p in circuit.inputs for net in p.bits}
    dies = {}
    for t, gi in enumerate(gate_schedule(circuit)):
        g = circuit.gates[gi]
        born[g.output] = t
        for net in g.inputs:
            dies[net] = t
    for p in circuit.outputs:
        for net in p.bits:
            dies[net] = steps
    change = [0] * (steps + 2)  # index t + 1 for step t; step -1 loads the inputs
    for net, start in born.items():
        stop = max(dies.get(net, start), start + 1)
        change[start + 1] += 1
        change[stop + 1] -= 1
    live = peak = 0
    for d in change:
        live += d
        peak = max(peak, live)
    return peak


class TestProgram:
    """Each circuit is compiled once, on its first simulation, to a program
    whose slots are reused as nets die."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        seen = []
        real = sim._compile

        def counting(circuit):
            seen.append(circuit)
            return real(circuit)

        monkeypatch.setattr(sim, "_compile", counting)
        return seen

    def test_compiled_once_per_circuit(self, compiled):
        c = baugh_wooley_multiplier(4)
        for _ in range(2):
            assert evaluate(c, {"A": -3, "B": 5}) == {"P": -15}
            assert evaluate_vector_array(c, {"A": [-3, 7], "B": [5, -8]})["P"].tolist() == [-15, -56]
            assert evaluate_batch(c, [{"A": 2, "B": 2}]) == [{"P": 4}]
        assert [id(x) for x in compiled] == [id(c)]
        twin = Circuit(c.name, c.inputs, c.outputs, c.gates, c.net_count)
        assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
        evaluate(twin, {"A": 1, "B": 1})
        assert [id(x) for x in compiled] == [id(c), id(twin)]

    def test_gen_and_compare_never_compile(self, compiled, tmp_path, capsys):
        from gatemul.cli import main

        for out in ("bw8.json", "bw8.v"):
            assert main(["gen", "--arch", "bw", "--width", "8", "--out", str(tmp_path / out)]) == 0
        assert main(["compare", "--width", "8", "--model", "tech-demo",
                     "bw", "booth4", "decomposed:4"]) == 0
        capsys.readouterr()
        assert compiled == []

    def test_invalid_circuit_or_unknown_kind_raises_when_compiled(self, monkeypatch):
        with pytest.raises(ValidationError):
            evaluate(TestInvalidCircuits.UNDRIVEN, {"A": 1})
        assert "_program" not in TestInvalidCircuits.UNDRIVEN.__dict__
        b = CircuitBuilder("inv")
        b.add_output("Y", [b.add_gate(GateKind.NOT, b.add_input("A", 1, U))], U)
        c = b.finalize()
        # A kind the lane loop has no rule for raises; it never reads as 0.
        monkeypatch.setattr(sim, "_NOT", None)
        with pytest.raises(NotImplementedError, match="GateKind.NOT"):
            evaluate(c, {"A": 1})
        with pytest.raises(NotImplementedError, match="GateKind.NOT"):
            evaluate_vector_array(c, {"A": [0, 1]})

    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_slots_are_the_peak_of_live_nets(self, width):
        specs = [spec for spec in _digest_specs() if spec.width_a == width]
        assert {s.architecture for s in specs} == set(Architecture)
        for spec in specs:
            c = generate(spec)
            slots = sim._program(c).slot_count
            assert slots == _peak_live_nets(c) <= c.net_count, spec
