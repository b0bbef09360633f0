import hashlib
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatemul.emit import JsonFormatError, from_json, to_json, to_verilog
from gatemul.genlib import full_adder
from gatemul.multipliers import (
    Architecture,
    Combiner,
    MultiplierSpec,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    decomposed_multiplier,
    generate,
    mixed_sign_multiplier,
)
from gatemul.netlist import Circuit, CircuitBuilder, Gate, GateKind, Port, Signedness
from gatemul.sim import evaluate, evaluate_batch, evaluate_vector_array, value_range
from gatemul.verify import boundary_values

from oracles import read_verilog
from test_multipliers import _digest_specs

GOLDEN = Path(__file__).parent / "golden"
S = Signedness.SIGNED
U = Signedness.UNSIGNED

# Frozen after exhaustive/random oracle verification of the generator.
D16_SHA256 = "c644eb92736456bc1e3c0f2e81d28890d7fee7cd9a47054e3bb258cd75f47cc4"
# The same circuit's to_json text, recorded from the json.dumps(indent=2) writer.
D16_JSON_SHA256 = "b7f42420386851de9e255a980bc90380e0806be84d96c69a1ec4fae95dcb203a"


def _fa_circuit():
    b = CircuitBuilder("fa")
    (x,) = b.add_input("x", 1, U)
    (y,) = b.add_input("y", 1, U)
    (z,) = b.add_input("z", 1, U)
    s, c = full_adder(b, x, y, z)
    b.add_output("s", [s], U)
    b.add_output("c", [c], U)
    return b.finalize()


# Any character, with JSON's escaped ones drawn often.
_NAME_CHARS = st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028'),
                        st.characters())


def _all_generated():
    return [
        _fa_circuit(),
        baugh_wooley_multiplier(4),
        baugh_wooley_multiplier(8),
        mixed_sign_multiplier(4, U, U),
        mixed_sign_multiplier(4, S, U),
        booth_radix4_multiplier(8),
        decomposed_multiplier(MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4)),
        decomposed_multiplier(
            MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4,
                           combiner=Combiner.RIPPLE_CASCADE)
        ),
    ]


class TestVerilog:
    def test_full_adder_module_shape(self):
        text = to_verilog(_fa_circuit())
        assert text.count("input ") == 3
        assert text.count("output ") == 2
        # 5 gate assignments plus 2 output assignments
        assert text.count("assign ") == 7

    def test_golden_full_adder(self):
        assert to_verilog(_fa_circuit()) == (GOLDEN / "fa.v").read_text()

    def test_golden_bw4(self):
        assert to_verilog(baugh_wooley_multiplier(4)) == (GOLDEN / "bw4.v").read_text()

    def test_byte_identical_across_runs(self):
        for make in (lambda: baugh_wooley_multiplier(6),
                     lambda: booth_radix4_multiplier(6)):
            assert to_verilog(make()) == to_verilog(make())

    def test_d16_frozen_hash(self):
        spec = MultiplierSpec(16, 16, S, S, Architecture.DECOMPOSED, leaf_width=4)
        text = to_verilog(decomposed_multiplier(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == D16_SHA256

    def test_d16_json_frozen_hash(self):
        spec = MultiplierSpec(16, 16, S, S, Architecture.DECOMPOSED, leaf_width=4)
        text = to_json(decomposed_multiplier(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == D16_JSON_SHA256

    def test_lf_line_endings(self):
        text = to_verilog(baugh_wooley_multiplier(4))
        assert "\r" not in text
        assert text.endswith("endmodule\n")

    def test_invalid_circuit_rejected(self):
        from gatemul.netlist import Circuit, Port
        bad = Circuit("bad", (Port("A", (0,), U),), (Port("Y", (1,), U),), (), 2)
        with pytest.raises(ValueError, match="invalid"):
            to_verilog(bad)


def _signs(circuit):
    return {p.name: p.signedness for p in (*circuit.inputs, *circuit.outputs)}


def _boundary_vectors(circuit):
    pa, pb = circuit.inputs
    return [{pa.name: a, pb.name: b}
            for a in boundary_values(pa.width, pa.signedness)
            for b in boundary_values(pb.width, pb.signedness)]


class TestVerilogReadBack:
    """The emitted Verilog, read by the independent reader in
    ``tests/oracles.py``, is the source circuit gate for gate."""

    def _assert_reads_back(self, c):
        back = read_verilog(to_verilog(c), _signs(c))
        assert back == c
        vectors = _boundary_vectors(c)
        assert evaluate_batch(back, vectors) == evaluate_batch(c, vectors)

    def test_every_digest_spec(self):
        for spec in _digest_specs():
            self._assert_reads_back(generate(spec))

    @pytest.mark.parametrize("arch, leaf", [
        (Architecture.FLAT_BW, None),
        (Architecture.BOOTH_RADIX4, None),
        (Architecture.DECOMPOSED, 4),
    ])
    def test_64_bit(self, arch, leaf):
        self._assert_reads_back(generate(MultiplierSpec(64, 64, S, S, arch, leaf)))

    # Names that need rewriting, 1-bit ports, BUF, NOR2, an output bit
    # read straight from an input, and a constant output.
    ODD = Circuit(
        "my-mod",
        (Port("a-b", (0, 1), U), Port("module", (2,), U), Port("n3", (3,), S)),
        (Port("1x", (9, 5, 0), U), Port("k", (6,), U), Port("wire", (7,), S)),
        (
            Gate(GateKind.BUF, (0,), 4),
            Gate(GateKind.NOR2, (1, 2), 5),
            Gate(GateKind.CONST1, (), 6),
            Gate(GateKind.XNOR2, (5, 3), 7),
            Gate(GateKind.NOT, (3,), 8),
            Gate(GateKind.NAND2, (4, 8), 9),
        ),
        10,
    )
    RENAMED = {"a-b": "a_b", "module": "module_", "n3": "n3_",
               "1x": "_1x", "k": "k", "wire": "wire_"}

    def test_hand_built_names_and_gate_kinds(self):
        c = self.ODD
        back = read_verilog(to_verilog(c), {"n3_": S, "wire_": S})
        assert back.name == "my_mod"
        assert back.gates == c.gates and back.net_count == c.net_count
        ports = (*c.inputs, *c.outputs)
        assert [p.name for p in (*back.inputs, *back.outputs)] == [self.RENAMED[p.name] for p in ports]
        assert [(p.bits, p.signedness) for p in (*back.inputs, *back.outputs)] == [
            (p.bits, p.signedness) for p in ports
        ]
        for ab in range(4):
            for m in range(2):
                for n3 in (-1, 0):
                    got = evaluate(back, {"a_b": ab, "module_": m, "n3_": n3})
                    want = evaluate(c, {"a-b": ab, "module": m, "n3": n3})
                    assert got == {self.RENAMED[k]: v for k, v in want.items()}

    def test_a_changed_operator_reads_as_a_different_circuit(self):
        c = baugh_wooley_multiplier(4)
        text = to_verilog(c)
        back = read_verilog(text.replace(" & ", " | ", 1), _signs(c))
        assert back != c
        assert evaluate_batch(back, _boundary_vectors(c)) != evaluate_batch(c, _boundary_vectors(c))

    def test_line_outside_the_subset_refused(self):
        text = to_verilog(baugh_wooley_multiplier(4))
        with pytest.raises(ValueError, match="not in the emitted subset"):
            read_verilog(text.replace("endmodule", "  always @* ;\nendmodule"))


class TestJsonRoundTrip:
    def test_structural_identity_for_every_generator(self):
        for c in _all_generated():
            assert from_json(to_json(c)) == c

    def test_layout_is_indented_json_dumps(self):
        for c in _all_generated():
            text = to_json(c)
            assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.text(_NAME_CHARS, min_size=1, max_size=8),
                          min_size=4, max_size=4, unique=True),
           signs=st.lists(st.sampled_from([S, U]), min_size=4, max_size=4),
           const=st.sampled_from([GateKind.CONST0, GateKind.CONST1]))
    def test_any_names_round_trip_as_indented_json(self, names, signs, const):
        # Quotes, backslashes, control characters and non-ASCII in every
        # name, 1-bit ports, and a CONST gate with an empty input list.
        circuit_name, a, b, p = names
        c = Circuit(
            name=circuit_name,
            inputs=(Port(a, (0,), signs[0]), Port(b, (1, 2), signs[1])),
            outputs=(Port(p, (4,), signs[2]), Port(a, (3, 0), signs[3])),
            gates=(Gate(const, (), 3), Gate(GateKind.XOR2, (0, 3), 4)),
            net_count=5,
        )
        text = to_json(c)
        assert text.isascii()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert from_json(text) == c

    def test_schema_fields(self):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        assert set(doc) == {"name", "net_count", "inputs", "outputs", "gates"}
        assert doc["inputs"][0] == {
            "name": "A", "width": 4, "signed": True, "bits": [0, 1, 2, 3],
        }
        g = doc["gates"][0]
        assert set(g) == {"kind", "inputs", "output"}

    def test_round_trip_simulates_identically(self):
        c = baugh_wooley_multiplier(8)
        rt = from_json(to_json(c))
        rng = np.random.default_rng(17)
        lo, hi = value_range(8, S)
        a = rng.integers(lo, hi, size=1000, dtype=np.int64, endpoint=True)
        b = rng.integers(lo, hi, size=1000, dtype=np.int64, endpoint=True)
        out1 = evaluate_vector_array(c, {"A": a, "B": b})
        out2 = evaluate_vector_array(rt, {"A": a, "B": b})
        assert np.array_equal(out1["P"], out2["P"])


class TestJsonErrors:
    def test_truncated_document(self):
        text = to_json(baugh_wooley_multiplier(4))[:100]
        with pytest.raises(JsonFormatError, match="JSON"):
            from_json(text)

    def test_missing_field(self):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        del doc["gates"]
        with pytest.raises(JsonFormatError, match="gates"):
            from_json(json.dumps(doc))

    def test_unknown_gate_kind(self):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        doc["gates"][3]["kind"] = "AND3"
        with pytest.raises(JsonFormatError, match=r"gates\[3\].*AND3"):
            from_json(json.dumps(doc))

    def test_double_driver_rejected(self):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        doc["gates"][1]["output"] = doc["gates"][0]["output"]
        with pytest.raises(JsonFormatError, match="MultipleDrivers"):
            from_json(json.dumps(doc))

    def test_bits_width_mismatch(self):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        doc["inputs"][0]["bits"] = [0, 1]
        with pytest.raises(JsonFormatError, match="bits length"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("where, edit", [
        ("net_count", lambda doc: doc.update(net_count=True)),
        ("net_count", lambda doc: doc.update(net_count=False)),
        (r"inputs\[0\]", lambda doc: doc["inputs"][0].update(width=True)),
        (r"gates\[2\]\.output", lambda doc: doc["gates"][2].update(output=True)),
    ], ids=["net_count_true", "net_count_false", "width", "gate_output"])
    def test_booleans_are_not_integers(self, where, edit):
        doc = json.loads(to_json(_fa_circuit()))
        edit(doc)
        with pytest.raises(JsonFormatError, match=rf"^{where}: .*integer"):
            from_json(json.dumps(doc))

    def test_net_count_beyond_drivers_rejected(self):
        doc = json.loads(to_json(_fa_circuit()))
        assert doc["net_count"] == 3 + len(doc["gates"])
        for count in (doc["net_count"] + 1, 2**62):
            doc["net_count"] = count
            with pytest.raises(JsonFormatError,
                               match=rf"^net_count: {count} exceeds the 8 nets"):
                from_json(json.dumps(doc))

    def test_undriven_reference_rejected(self):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        doc["outputs"][0]["bits"][0] = doc["net_count"] + 5
        with pytest.raises(JsonFormatError):
            from_json(json.dumps(doc))


@pytest.mark.skipif(shutil.which("iverilog") is None, reason="iverilog not installed")
def test_cross_simulator_check(tmp_path):
    """Optional: compare the emitted Verilog against evaluate() via iverilog."""
    c = baugh_wooley_multiplier(4)
    (tmp_path / "bw4.v").write_text(to_verilog(c))
    tb = """
`timescale 1ns/1ns
module tb;
  reg [3:0] A, B; wire [7:0] P; integer a, b;
  bw4 dut(.A(A), .B(B), .P(P));
  initial begin
    for (a = 0; a < 16; a = a + 1)
      for (b = 0; b < 16; b = b + 1) begin
        A = a; B = b; #1;
        $display("%d %d %d", A, B, P);
      end
  end
endmodule
"""
    (tmp_path / "tb.v").write_text(tb)
    subprocess.run(
        ["iverilog", "-o", str(tmp_path / "sim"), str(tmp_path / "bw4.v"), str(tmp_path / "tb.v")],
        check=True,
    )
    out = subprocess.run([str(tmp_path / "sim")], capture_output=True, text=True, check=True)
    from gatemul.sim import decode, encode, evaluate
    for line in out.stdout.strip().splitlines():
        a_u, b_u, p_u = (int(tok) for tok in line.split())
        a = decode(encode(a_u, 4, U), S)
        b = decode(encode(b_u, 4, U), S)
        expected = evaluate(c, {"A": a, "B": b})["P"]
        assert decode(encode(p_u, 8, U), S) == expected
