import hashlib
import itertools
import json
import shutil
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatemul.emit import _BLOCK, JsonFormatError, _sanitize, from_json, to_json, to_verilog
from gatemul.genlib import full_adder
from gatemul.multipliers import (
    Architecture,
    Combiner,
    MultiplierSpec,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    generate,
    mixed_sign_multiplier,
)
from gatemul.netlist import (
    Circuit, CircuitBuilder, Gate, GateKind, Port, Signedness, ValidationError, validate,
)
from gatemul.sim import evaluate, evaluate_batch, evaluate_vector_array, value_range
from gatemul.timing import DelayModel, critical_path, depth
from gatemul.verify import boundary_values

import test_sim
from oracles import VERILOG_2005_KEYWORDS, read_verilog
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
        generate(MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4)),
        generate(
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
        text = to_verilog(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == D16_SHA256

    def test_d16_json_frozen_hash(self):
        spec = MultiplierSpec(16, 16, S, S, Architecture.DECOMPOSED, leaf_width=4)
        text = to_json(generate(spec))
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

    @staticmethod
    def _assert_renamed_reads_back(c):
        """Distinct names, none reserved; read back, the same circuit up to
        port names, simulating like the source on every input."""
        text = to_verilog(c)
        ports = (*c.inputs, *c.outputs)
        unsigned = read_verilog(text)
        names = [p.name for p in (*unsigned.inputs, *unsigned.outputs)]
        assert len(set(names)) == len(names) == len(ports), text
        assert not {text.split(" ", 2)[1], *names} & VERILOG_2005_KEYWORDS, text
        back = read_verilog(text, {n: p.signedness for n, p in zip(names, ports)})
        assert back.gates == c.gates and back.net_count == c.net_count
        assert [(p.bits, p.signedness) for p in (*back.inputs, *back.outputs)] == [
            (p.bits, p.signedness) for p in ports
        ]
        ranges = [value_range(p.width, p.signedness) for p in c.inputs]
        for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
            want = evaluate(c, {p.name: v for p, v in zip(c.inputs, values)})
            got = evaluate(back, {p.name: v for p, v in zip(back.inputs, values)})
            assert list(got.values()) == [want[p.name] for p in c.outputs]

    # Input bits at nets 0, 1, ... in port order, as read_verilog numbers
    # them.  An input and an output port may compare equal; each still
    # gets its own declaration.
    @pytest.mark.parametrize("c", [
        Circuit("m", (Port("A", (0,), U),), (Port("A", (0,), U),), (), 1),
        Circuit("m", (Port("A", (0, 1), U),), (Port("A", (0, 1), U),), (), 2),
        Circuit("m", (Port("A", (0, 1), S),), (Port("A", (0, 1), S),), (), 2),
        # The same name over different bits.
        Circuit("m", (Port("A", (0, 1), U),), (Port("A", (2,), U),),
                (Gate(GateKind.AND2, (0, 1), 2),), 3),
        # Output bits read straight from input bits, next to a gate's.
        Circuit("m", (Port("X", (0, 1), S), Port("Y", (2,), U)),
                (Port("P", (1, 3, 2, 0), S),),
                (Gate(GateKind.XOR2, (0, 2), 3),), 4),
    ], ids=["equal-w1", "equal-w2", "equal-signed", "same-name", "input-bits-out"])
    def test_every_port_declared_once(self, c):
        self._assert_renamed_reads_back(c)

    def test_reserved_words_are_escaped(self):
        # Each word as the module name and as an input and an output name.
        for word in sorted(VERILOG_2005_KEYWORDS):
            b = CircuitBuilder(word)
            a = b.add_input(word, 2, U)
            b.add_output(word, [b.add_gate(GateKind.AND2, a)], U)
            self._assert_renamed_reads_back(b.finalize())

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


def _document(c: Circuit) -> str:
    """The JSON document of ``c`` written field by field, without the
    validation that :func:`to_json` makes first."""
    def port(p):
        return {"name": p.name, "width": len(p.bits), "signed": p.signedness is S,
                "bits": list(p.bits)}
    return json.dumps({
        "name": c.name,
        "net_count": c.net_count,
        "inputs": [port(p) for p in c.inputs],
        "outputs": [port(p) for p in c.outputs],
        "gates": [{"kind": g.kind.value, "inputs": list(g.inputs), "output": g.output}
                  for g in c.gates],
    }, indent=2) + "\n"


_NOT_A = (Gate(GateKind.NOT, (0,), 1),)
_NO_INPUT = test_sim.TestNoInputPorts.CONST
_NO_OUTPUT = Circuit("n", (Port("A", (0,), U),), (), _NOT_A, 2)


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

    @pytest.mark.parametrize("circuit, word", [(_NO_INPUT, "input"), (_NO_OUTPUT, "output")],
                             ids=["inputs-input", "outputs-output"])
    def test_port_list_must_not_be_empty(self, circuit, word):
        with pytest.raises(JsonFormatError,
                           match=rf"^invalid netlist: BadPort: circuit has no {word} port$"):
            from_json(_document(circuit))

    def test_zero_width_port_rejected(self):
        doc = json.loads(to_json(_fa_circuit()))
        doc["inputs"].append({"name": "e", "width": 0, "signed": False, "bits": []})
        with pytest.raises(JsonFormatError,
                           match=r"^invalid netlist: BadPort: input port 'e' has no bits$"):
            from_json(json.dumps(doc))

    def test_undriven_reference_rejected(self):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        doc["outputs"][0]["bits"][0] = doc["net_count"] + 5
        with pytest.raises(JsonFormatError):
            from_json(json.dumps(doc))


_EXPR = {
    GateKind.CONST0: "1'b0", GateKind.CONST1: "1'b1", GateKind.NOT: "~{}",
    GateKind.BUF: "{}", GateKind.AND2: "{} & {}", GateKind.NAND2: "~({} & {})",
    GateKind.OR2: "{} | {}", GateKind.NOR2: "~({} | {})",
    GateKind.XOR2: "{} ^ {}", GateKind.XNOR2: "~({} ^ {})",
}


def _line_by_line_verilog(c):
    """The Verilog a writer gives that holds a name for every net and a
    line for every gate."""
    taken = set()
    module = _sanitize(c.name, set())
    ports = []
    for direction, group in (("input", c.inputs), ("output", c.outputs)):
        for p in group:
            name = _sanitize(p.name, taken)
            refs = [name] if p.width == 1 else [f"{name}[{i}]" for i in range(p.width)]
            ports.append((direction, p, name, refs))
    ref = {net: r for direction, p, _, refs in ports if direction == "input"
           for net, r in zip(p.bits, refs)}
    ref.update((g.output, f"n{g.output}") for g in c.gates)
    lines = [f"module {module} ({', '.join(name for _, _, name, _ in ports)});"]
    for direction, p, name, _ in ports:
        rng = "" if p.width == 1 else f"[{p.width - 1}:0] "
        lines.append(f"  {direction} {rng}{name};")
    lines += [f"  wire n{g.output};" for g in c.gates]
    lines += [f"  assign n{g.output} = {_EXPR[g.kind].format(*(ref[i] for i in g.inputs))};"
              for g in c.gates]
    lines += [f"  assign {r} = {ref[net]};"
              for direction, p, _, refs in ports if direction == "output"
              for r, net in zip(refs, p.bits)]
    return "\n".join([*lines, "endmodule"]) + "\n"


def _chain(n):
    """``n`` gates, every kind in turn, each reading the gate before it and,
    one in three, an input-port bit, so every block has gates of both."""
    kinds = list(GateKind)
    gates = []
    for j in range(n):
        kind = kinds[j % len(kinds)]
        ins = (3 + j, j % 4 if j % 3 == 0 else 2 + j)[:kind.arity]
        gates.append(Gate(kind, ins, 4 + j))
    return Circuit("chain", (Port("a", (0, 1), S), Port("b", (2, 3), U)),
                   (Port("p", (3 + n, 1, 2 + n), S),), tuple(gates), 4 + n)


class TestBlockedText:
    """The emitters format a block of gates at a time and append it to the
    text at once; it is the text a line-by-line writer gives."""

    @pytest.mark.parametrize("c", [
        Circuit("m", (Port("A", (0,), U),), (Port("P", (0,), U),), (), 1),
        TestVerilogReadBack.ODD,
        _chain(_BLOCK),
        _chain(_BLOCK + 1),
        baugh_wooley_multiplier(8),
    ], ids=["no-gates", "1-bit-ports", "one-block", "past-one-block", "bw8"])
    def test_same_text_as_line_by_line(self, c):
        assert not validate(c)
        assert to_json(c) == _document(c)
        assert to_verilog(c) == _line_by_line_verilog(c)

    @pytest.mark.parametrize("emit", [to_json, to_verilog])
    def test_peak_is_the_text_and_one_block(self, emit):
        # No list of every gate's string, no list of blocks and no final
        # join: about 1.04 times the text for JSON and 1.08 for Verilog at
        # bw64, where a list of blocks and their join gave 2.0.
        c = baugh_wooley_multiplier(64)
        tracemalloc.start()
        try:
            text = emit(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * len(text)


@pytest.mark.parametrize("c, valid", [
    (_NO_INPUT, False),
    (_NO_OUTPUT, False),
    # Net 2 is driven by nothing and read by nothing.
    (Circuit("n", (Port("A", (0,), U),), (Port("Y", (1,), U),), _NOT_A, 3), False),
    (Circuit("n", (Port("A", (0,), "signed"),), (Port("Y", (1,), U),), _NOT_A, 2), False),
    (Circuit("w", (Port("A", (0, 1), S),), (Port("Y", (2, 0, 1), S),),
             (Gate(GateKind.NOT, (0,), 2),), 3), True),
    (Circuit("n", (Port("X", (0,), U),), (Port("X", (1,), U),), _NOT_A, 2), True),
    (Circuit("2 bits!", (Port("a b", (0,), U),), (Port("module", (1,), S),), _NOT_A, 2), True),
], ids=["no_input", "no_output", "spare_net", "string_signedness",
        "output_bit_is_input_bit", "input_and_output_share_a_name", "non_identifier_names"])
class TestOneValidityRule:
    """Whatever ``validate`` accepts, every layer runs and JSON reproduces;
    whatever it refuses, every layer refuses with ``ValidationError``."""

    def test_validates_exactly_when_it_round_trips(self, c, valid):
        try:
            round_trips = from_json(_document(c)) == c
        except JsonFormatError:
            round_trips = False
        assert (validate(c) == []) == round_trips == valid
        if valid:
            assert to_json(c) == _document(c)

    def test_every_layer_runs_it_or_refuses_it(self, c, valid):
        zeros = {p.name: 0 for p in c.inputs}
        calls = [
            lambda: evaluate(c, zeros),
            lambda: evaluate_batch(c, [zeros])[0],
            lambda: {k: int(v[0]) for k, v in
                     evaluate_vector_array(c, {k: [v] for k, v in zeros.items()}).items()},
            lambda: depth(c),
            lambda: critical_path(c, DelayModel.unit()).critical_delay,
            lambda: to_verilog(c),
            lambda: to_json(c),
        ]
        if valid:
            got = [call() for call in calls]
            assert got[0] == got[1] == got[2]
            assert got[3] == got[4]
        else:
            # Even a batch that names no port, or no vector at all.
            calls += [lambda: evaluate_batch(c, [{"no such port": 0}]),
                      lambda: evaluate_batch(c, [])]
            for call in calls:
                with pytest.raises(ValidationError, match=r"^circuit '\w+' is invalid: "):
                    call()


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
