import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatemul.genlib import (
    carry_save_reduce,
    full_adder,
    half_adder,
    ripple_carry_adder,
    ripple_carry_adder_mod,
)
from gatemul.netlist import CircuitBuilder, GateKind, NetlistError, Signedness
from gatemul.sim import evaluate, evaluate_batch
from gatemul.timing import DelayModel, critical_path

import oracles
from oracles import bits_msb, longest_path_delay

U = Signedness.UNSIGNED


def _adder_circuit(width, cell):
    b = CircuitBuilder("add")
    xs = b.add_input("x", width, U)
    ys = b.add_input("y", width, U)
    before = b.gate_count
    out = cell(b, xs, ys)
    added = b.gate_count - before
    b.add_output("s", out, U)
    return b.finalize(), added


def test_half_adder_truth_table_and_cost():
    b = CircuitBuilder("ha")
    (x,) = b.add_input("x", 1, U)
    (y,) = b.add_input("y", 1, U)
    before = b.gate_count
    s, c = half_adder(b, x, y)
    assert b.gate_count - before == 2
    b.add_output("s", [s], U)
    b.add_output("c", [c], U)
    circ = b.finalize()
    expect = {(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (1, 0), (1, 1): (0, 1)}
    for (xv, yv), (sv, cv) in expect.items():
        assert evaluate(circ, {"x": xv, "y": yv}) == {"s": sv, "c": cv}


def _full_adder_circuit():
    b = CircuitBuilder("fa")
    (x,) = b.add_input("x", 1, U)
    (y,) = b.add_input("y", 1, U)
    (z,) = b.add_input("z", 1, U)
    before = b.gate_count
    s, c = full_adder(b, x, y, z)
    added = b.gate_count - before
    b.add_output("s", [s], U)
    b.add_output("c", [c], U)
    return b.finalize(), added


def test_full_adder_truth_table_and_cost():
    circ, added = _full_adder_circuit()
    assert added == 5
    for xv, yv, zv in itertools.product((0, 1), repeat=3):
        total = xv + yv + zv
        out = evaluate(circ, {"x": xv, "y": yv, "z": zv})
        assert out == {"s": total & 1, "c": total >> 1}


def test_full_adder_unit_depth_is_three():
    circ, _ = _full_adder_circuit()
    unit = DelayModel.unit()
    # Brute-force enumeration of every input-to-output path agrees.
    assert longest_path_delay(circ, unit) == 3
    assert critical_path(circ, unit).critical_delay == 3


def test_adder_cells_build_what_add_gate_calls_build():
    def cells(b, a, x, cin):
        return half_adder(b, a, x), full_adder(b, a, x, cin)

    def gates(b, a, x, cin):
        s = b.add_gate(GateKind.XOR2, (a, x))
        c = b.add_gate(GateKind.AND2, (a, x))
        s1 = b.add_gate(GateKind.XOR2, (a, x))
        s2 = b.add_gate(GateKind.XOR2, (s1, cin))
        c1 = b.add_gate(GateKind.AND2, (a, x))
        c2 = b.add_gate(GateKind.AND2, (cin, s1))
        carry = b.add_gate(GateKind.OR2, (c1, c2))
        return (s, c), (s2, carry)

    built = []
    for build in (cells, gates):
        b = CircuitBuilder("adders")
        ins = b.add_input("x", 3, U)
        outs = build(b, *ins)
        b.add_output("y", [net for pair in outs for net in pair], U)
        built.append((outs, b.finalize()))
    (cell_outs, cell_circ), (gate_outs, gate_circ) = built
    assert [type(pair) for pair in cell_outs] == [tuple, tuple]
    assert cell_outs == gate_outs
    assert cell_circ == gate_circ


class TestRippleCarryAdder:
    def test_worked_binary_example(self):
        # 0100 + 1100 = 10000; discarding the carry leaves 0000.
        circ, _ = _adder_circuit(4, lambda b, x, y: ripple_carry_adder(b, x, y))
        out = evaluate(circ, {"x": 4, "y": 12})["s"]
        assert out == 16  # 10000 MSB-first
        assert out % 16 == 0

    def test_zero_plus_zero(self):
        circ, _ = _adder_circuit(1, lambda b, x, y: ripple_carry_adder(b, x, y))
        assert evaluate(circ, {"x": 0, "y": 0})["s"] == 0

    @pytest.mark.parametrize("width", range(1, 7))
    def test_exhaustive_against_integer_addition(self, width):
        circ, _ = _adder_circuit(width, lambda b, x, y: ripple_carry_adder(b, x, y))
        vecs = [
            {"x": x, "y": y}
            for x in range(1 << width)
            for y in range(1 << width)
        ]
        outs = evaluate_batch(circ, vecs)
        for vec, out in zip(vecs, outs):
            assert out["s"] == vec["x"] + vec["y"]

    def test_width_mismatch(self):
        b = CircuitBuilder("t")
        xs = b.add_input("x", 3, U)
        ys = b.add_input("y", 2, U)
        with pytest.raises(NetlistError, match="mismatch"):
            ripple_carry_adder(b, xs, ys)

    @pytest.mark.parametrize("width", range(1, 9))
    def test_builds_the_explicit_cell_chain(self, width):
        # No generator calls this adder, so the generator digests cannot pin
        # its gates: a CONST0 that no gate reads, a half adder, then full
        # adders.
        def cells(b, x, y):
            b.const0()
            s, carry = half_adder(b, x[0], y[0])
            sums = [s]
            for xi, yi in zip(x[1:], y[1:]):
                s, carry = full_adder(b, xi, yi, carry)
                sums.append(s)
            return [*sums, carry]

        adder, _ = _adder_circuit(width, lambda b, x, y: ripple_carry_adder(b, x, y))
        chain, _ = _adder_circuit(width, cells)
        assert adder == chain


@pytest.mark.parametrize("width", range(1, 6))
def test_mod_adder_exhaustive(width):
    circ, _ = _adder_circuit(width, lambda b, x, y: ripple_carry_adder_mod(b, x, y))
    vecs = [
        {"x": x, "y": y} for x in range(1 << width) for y in range(1 << width)
    ]
    outs = evaluate_batch(circ, vecs)
    for vec, out in zip(vecs, outs):
        assert out["s"] == (vec["x"] + vec["y"]) % (1 << width)


class TestCarrySaveReduce:
    def test_single_compressor(self):
        b = CircuitBuilder("csa")
        (x,) = b.add_input("x", 1, U)
        (y,) = b.add_input("y", 1, U)
        (z,) = b.add_input("z", 1, U)
        ra, rb = carry_save_reduce(b, [([x], 0), ([y], 0), ([z], 0)], drop_above=2)
        b.add_output("ra", ra, U)
        b.add_output("rb", rb, U)
        circ = b.finalize()
        out = evaluate(circ, {"x": 1, "y": 1, "z": 1})
        assert out["ra"] + out["rb"] == 3

    def test_two_rows_pass_through_unchanged(self):
        b = CircuitBuilder("csa")
        xs = b.add_input("x", 4, U)
        ys = b.add_input("y", 4, U)
        before = b.gate_count
        ra, rb = carry_save_reduce(b, [(xs, 0), (ys, 0)], drop_above=4)
        assert b.gate_count == before
        assert ra == xs and rb == ys

    def test_random_rows_preserve_sum(self):
        b = CircuitBuilder("csa")
        rows = [b.add_input(f"r{i}", 8, U) for i in range(4)]
        ra, rb = carry_save_reduce(b, [(r, 0) for r in rows], drop_above=10)
        b.add_output("ra", ra, U)
        b.add_output("rb", rb, U)
        circ = b.finalize()
        rng = random.Random(5)
        vecs = [
            {f"r{i}": rng.randrange(256) for i in range(4)} for _ in range(1000)
        ]
        outs = evaluate_batch(circ, vecs)
        for vec, out in zip(vecs, outs):
            assert out["ra"] + out["rb"] == sum(vec.values())

    def test_weighted_rows(self):
        # Four weights, then one or two rows of one weight, which keep it.
        # Nine columns hold every sum here.
        for weights in ((0, 2, 3, 1), (3,), (2, 2), (1, 1), (5, 5)):
            b = CircuitBuilder("csa")
            rows = [(b.add_input(f"r{i}", 3, U), w) for i, w in enumerate(weights)]
            ra, rb = carry_save_reduce(b, rows, drop_above=9)
            assert len(ra) == len(rb)
            b.add_output("ra", ra, U)
            b.add_output("rb", rb, U)
            circ = b.finalize()
            rng = random.Random(6)
            for _ in range(200):
                vec = {f"r{i}": rng.randrange(8) for i in range(len(rows))}
                out = evaluate(circ, vec)
                want = sum(vec[f"r{i}"] << w for i, (_, w) in enumerate(rows))
                assert out["ra"] + out["rb"] == want

    def test_drop_above_reduces_modulo(self):
        # Five rows as wide as drop_above, then one or two wider rows.
        for nrows, width, drop_above in ((5, 4, 4), (1, 2, 1), (2, 2, 1), (2, 6, 4)):
            b = CircuitBuilder("csa")
            rows = [b.add_input(f"r{i}", width, U) for i in range(nrows)]
            ra, rb = carry_save_reduce(b, [(r, 0) for r in rows], drop_above=drop_above)
            assert len(ra) == len(rb) == drop_above
            b.add_output("ra", ra, U)
            b.add_output("rb", rb, U)
            circ = b.finalize()
            mod = 1 << drop_above
            rng = random.Random(7)
            for _ in range(300):
                vec = {f"r{i}": rng.randrange(1 << width) for i in range(nrows)}
                out = evaluate(circ, vec)
                assert (out["ra"] + out["rb"]) % mod == sum(vec.values()) % mod

    def test_empty_rows_rejected(self):
        b = CircuitBuilder("csa")
        with pytest.raises(NetlistError):
            carry_save_reduce(b, [], drop_above=1)

    @pytest.mark.parametrize("weight, drop_above, message", [
        (2.7, 6, "row weight must be an int, got 2.7"),
        ("1", 6, "row weight must be an int, got '1'"),
        (-1, 6, "row weights must be non-negative"),
        (0, 0, "drop_above must be >= 1, got 0"),
        (0, -1, "drop_above must be >= 1, got -1"),
        (0, 2.0, "drop_above must be an int, got 2.0"),
    ])
    def test_bad_arguments_rejected(self, weight, drop_above, message):
        b = CircuitBuilder("csa")
        xs = b.add_input("x", 3, U)
        with pytest.raises(NetlistError, match=re.escape(message)):
            carry_save_reduce(b, [(xs, weight), (xs, 0), (xs, 0)], drop_above=drop_above)
        assert b.gate_count == 0

    def test_integer_like_arguments_accepted(self):
        # Anything with __index__ is an int here, as numpy integers are.
        def reduce(weight, drop_above):
            b = CircuitBuilder("csa")
            xs = b.add_input("x", 3, U)
            rows = carry_save_reduce(b, [(xs, weight), (xs, 0), (xs, 0)], drop_above)
            return rows, b.gate_count
        assert reduce(np.int64(2), np.int32(5)) == reduce(2, 5)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sum_preservation_property(self, data):
        nrows = data.draw(st.integers(min_value=1, max_value=6))
        width = data.draw(st.integers(min_value=1, max_value=5))
        weights = data.draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=nrows, max_size=nrows)
        )
        b = CircuitBuilder("csa")
        rows = [(b.add_input(f"r{i}", width, U), weights[i]) for i in range(nrows)]
        # nrows values below 2**width, shifted by at most max(weights) bits.
        drop_above = width + max(weights) + nrows.bit_length()
        ra, rb = carry_save_reduce(b, rows, drop_above=drop_above)
        b.add_output("ra", ra, U)
        b.add_output("rb", rb, U)
        circ = b.finalize()
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << width) - 1),
                min_size=nrows,
                max_size=nrows,
            )
        )
        vec = {f"r{i}": values[i] for i in range(nrows)}
        out = evaluate(circ, vec)
        assert out["ra"] + out["rb"] == sum(v << w for v, w in zip(values, weights))


# A dot is an input bit's index, or "0"/"1" for the builder's CONST0/CONST1.
_dots = st.lists(
    st.one_of(st.integers(min_value=0, max_value=11), st.sampled_from("01")),
    min_size=1, max_size=9,
)
_row_sets = st.lists(
    st.tuples(_dots, st.integers(min_value=0, max_value=8)), min_size=1, max_size=10
)
_drop_above = st.one_of(
    st.integers(min_value=1, max_value=4), st.integers(min_value=12, max_value=40)
)


@settings(max_examples=300, deadline=None)
@given(_row_sets, _drop_above)
def test_reducer_matches_the_reference_gate_for_gate(row_sets, drop_above):
    """The reducer that revisits only changed columns builds the same gates,
    nets and rows as the reference reducer that visits every column."""
    built = []
    for reduce in (carry_save_reduce, oracles.carry_save_reduce):
        b = CircuitBuilder("csa")
        xs = b.add_input("x", 12, U)
        const = {"0": b.const0, "1": b.const1}
        rows = [
            ([const[d]() if isinstance(d, str) else xs[d] for d in dots], w)
            for dots, w in row_sets
        ]
        ra, rb = reduce(b, rows, drop_above)
        b.add_output("y", ra + rb, U)
        circ = b.finalize()
        built.append((ra, rb, circ.gates, circ.net_count))
    assert built[0] == built[1]


def test_discarded_carry_matches_signed_reading():
    # Adding +4 (0100) and -4 (1100) and discarding the carry gives 0.
    assert bits_msb("0100") == [0, 0, 1, 0]
    circ, _ = _adder_circuit(4, lambda b, x, y: ripple_carry_adder_mod(b, x, y))
    assert evaluate(circ, {"x": 4, "y": 12})["s"] == 0
