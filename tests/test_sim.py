import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatemul.multipliers import baugh_wooley_multiplier, unsigned_array_multiplier
from gatemul.netlist import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    Port,
    Signedness,
    ValidationError,
)
from gatemul.sim import (
    decode,
    encode,
    evaluate,
    evaluate_batch,
    evaluate_vector_array,
    value_range,
)

from oracles import bits_msb, demand_evaluate, random_assignment, random_circuit

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

    def test_chunking_does_not_change_results(self):
        c = baugh_wooley_multiplier(4)
        vecs = [{"A": a, "B": b} for a in range(-8, 8) for b in range(-8, 8)]
        reference = evaluate_batch(c, vecs)
        for chunk in (1, 7, 15, 10_000):
            assert evaluate_batch(c, vecs, chunk_size=chunk) == reference

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
        c = unsigned_array_multiplier(32)
        top = (1 << 32) - 1
        out = evaluate_vector_array(c, {"A": [top, 0, top, 1], "B": [top, top, 2, top]})
        assert out["P"].tolist() == [top * top, 0, 2 * top, top]

    @pytest.mark.parametrize("width", [1, 31, 32, 33, 62, 63, 64, 65, 130])
    @pytest.mark.parametrize("signedness", [S, U])
    def test_pass_through_matches_scalar(self, width, signedness):
        # Y = NOT A round-trips every value through packing and decoding.
        b = CircuitBuilder("inv")
        bits = b.add_input("A", width, signedness)
        b.add_output("Y", [b.add_gate(GateKind.NOT, [x]) for x in bits], signedness)
        c = b.finalize()
        lo, hi = value_range(width, signedness)
        rng = random.Random(width)
        vals = [lo, hi, 0, *(rng.randint(lo, hi) for _ in range(40))]
        got = evaluate_vector_array(c, {"A": vals}, chunk_size=16)["Y"].tolist()
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
