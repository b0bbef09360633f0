import copy
import pickle
import random
from collections import Counter

import pytest

from gatemul.netlist import (
    Circuit,
    CircuitBuilder,
    Gate,
    GateKind,
    NetlistError,
    Port,
    Signedness,
    ValidationError,
    ViolationKind,
    gate_schedule,
    validate,
)
from gatemul.sim import evaluate

from oracles import random_circuit

S = Signedness.SIGNED
U = Signedness.UNSIGNED


def build_fa():
    b = CircuitBuilder("fa")
    (a,) = b.add_input("a", 1, U)
    (x,) = b.add_input("x", 1, U)
    (cin,) = b.add_input("cin", 1, U)
    s1 = b.add_gate(GateKind.XOR2, [a, x])
    s = b.add_gate(GateKind.XOR2, [s1, cin])
    c1 = b.add_gate(GateKind.AND2, [a, x])
    c2 = b.add_gate(GateKind.AND2, [cin, s1])
    carry = b.add_gate(GateKind.OR2, [c1, c2])
    b.add_output("s", [s], U)
    b.add_output("c", [carry], U)
    return b.finalize()


def test_builder_happy_path():
    c = build_fa()
    assert c.net_count == 8
    assert len(c.gates) == 5
    assert validate(c) == []


def test_empty_name_rejected():
    with pytest.raises(NetlistError):
        CircuitBuilder("")
    with pytest.raises(NetlistError):
        CircuitBuilder("not an identifier")


def test_finalize_requires_ports():
    b = CircuitBuilder("empty")
    with pytest.raises(NetlistError, match="input"):
        b.finalize()
    b2 = CircuitBuilder("only_in")
    b2.add_input("a", 1, U)
    with pytest.raises(NetlistError):
        b2.finalize()


def test_add_input_allocates_fresh_lsb_first():
    b = CircuitBuilder("t")
    bits = b.add_input("A", 4, S)
    assert bits == [0, 1, 2, 3]
    more = b.add_input("B", 2, U)
    assert more == [4, 5]


def test_duplicate_port_rejected():
    b = CircuitBuilder("t")
    b.add_input("A", 4, S)
    with pytest.raises(NetlistError, match="duplicate"):
        b.add_input("A", 4, S)


def test_zero_width_rejected():
    b = CircuitBuilder("t")
    with pytest.raises(NetlistError, match="width"):
        b.add_input("X", 0, U)


def test_arity_mismatch_rejected():
    b = CircuitBuilder("t")
    a0, a1 = b.add_input("A", 2, U)
    with pytest.raises(NetlistError, match="NOT takes 1"):
        b.add_gate(GateKind.NOT, [a0, a1])


def test_unallocated_net_rejected():
    b = CircuitBuilder("t")
    (a0,) = b.add_input("A", 1, U)
    with pytest.raises(NetlistError, match="unallocated"):
        b.add_gate(GateKind.NOT, [a0 + 99])
    with pytest.raises(NetlistError, match="unallocated"):
        b.add_output("Y", [a0 + 5], U)


def test_builder_error_messages():
    b = CircuitBuilder("t")
    a0, a1 = b.add_input("A", 2, U)
    cases = [
        (lambda: b.add_gate(GateKind.NOT, [a0, a1]), "NOT takes 1 inputs, got 2"),
        (lambda: b.add_gate(GateKind.XOR2, [a0]), "XOR2 takes 2 inputs, got 1"),
        (lambda: b.add_gate(GateKind.CONST1, [a0]), "CONST1 takes 0 inputs, got 1"),
        (lambda: b.add_gate(GateKind.AND2, [a0, 7]), "gate references unallocated net 7"),
        (lambda: b.add_gate(GateKind.BUF, [-1]), "gate references unallocated net -1"),
        (lambda: b.add_output("Y", [a1, 2], U), "output port 'Y' references unallocated net 2"),
        (lambda: b.add_gate(GateKind.NOT, [0.5]), "gate input net id 0.5 is not an int"),
        (lambda: b.add_gate(GateKind.AND2, [a0, "1"]), "gate input net id '1' is not an int"),
        (lambda: b.add_gate(GateKind.BUF, [True]), "gate input net id True is not an int"),
        (lambda: b.add_output("Y", [a0, 1.0], U), "output port 'Y' net id 1.0 is not an int"),
    ]
    for call, message in cases:
        with pytest.raises(NetlistError) as err:
            call()
        assert str(err.value) == message
    assert (b.net_count, b.gate_count) == (2, 0)


@pytest.mark.parametrize("width, signedness, message", [
    (2, "signed", "port 'A' signedness must be a Signedness, got 'signed'"),
    (2, None, "port 'A' signedness must be a Signedness, got None"),
    (2.5, S, "port 'A' width must be an int, got 2.5"),
    ("2", S, "port 'A' width must be an int, got '2'"),
    (True, S, "port 'A' width must be an int, got True"),
])
def test_add_input_refuses_a_bad_width_or_signedness(width, signedness, message):
    b = CircuitBuilder("t")
    with pytest.raises(NetlistError) as err:
        b.add_input("A", width, signedness)
    assert str(err.value) == message
    assert b.net_count == 0


def test_add_output_refuses_a_bad_signedness():
    b = CircuitBuilder("t")
    bits = b.add_input("A", 2, U)
    with pytest.raises(NetlistError) as err:
        b.add_output("P", bits, "signed")
    assert str(err.value) == "port 'P' signedness must be a Signedness, got 'signed'"
    b.add_output("P", bits, S)
    assert [p.signedness for p in b.finalize().outputs] == [S]


class TestAddCell:
    """``_add_cell`` refuses what ``add_gate`` refuses, with its texts,
    before it appends anything."""

    XOR_AND = ((GateKind.XOR2, 0, 1), (GateKind.AND2, 0, 2))

    @pytest.mark.parametrize("inputs, recipe, kind, message", [
        ((0, 1.0), XOR_AND, GateKind.XOR2, "gate input net id 1.0 is not an int"),
        ((True, 1), XOR_AND, GateKind.XOR2, "gate input net id True is not an int"),
        ((0, 2), XOR_AND, GateKind.XOR2, "gate references unallocated net 2"),
        ((-1, 1), XOR_AND, GateKind.XOR2, "gate references unallocated net -1"),
        ((0, 1), ((GateKind.XOR2, 0, 1), (GateKind.NOT, 0, 2)), GateKind.NOT,
         "NOT takes 1 inputs, got 2"),
        ((0, 1), ((GateKind.CONST0, 0, 1),), GateKind.CONST0, "CONST0 takes 0 inputs, got 2"),
    ])
    def test_refusals_append_nothing(self, inputs, recipe, kind, message):
        b = CircuitBuilder("t")
        b.add_input("A", 2, U)
        for call in (lambda: b._add_cell(inputs, recipe), lambda: b.add_gate(kind, inputs)):
            with pytest.raises(NetlistError) as err:
                call()
            assert str(err.value) == message
        assert (b.net_count, b.gate_count) == (2, 0)

    def test_finalized_builder_refused(self):
        b = CircuitBuilder("t")
        a = b.add_input("A", 2, U)
        b.add_output("Y", a, U)
        b.finalize()
        for call in (lambda: b._add_cell(a, self.XOR_AND),
                     lambda: b.add_gate(GateKind.XOR2, a)):
            with pytest.raises(NetlistError) as err:
                call()
            assert str(err.value) == "builder already finalized"
        assert (b.net_count, b.gate_count) == (2, 0)

    def test_recipe_reads_inputs_then_earlier_outputs(self):
        b = CircuitBuilder("t")
        a0, a1 = b.add_input("A", 2, U)
        assert b._add_cell([a0, a1], self.XOR_AND) == [a0, a1, 2, 3]
        b.add_output("Y", [3], U)
        assert b.finalize().gates == (
            Gate(GateKind.XOR2, (a0, a1), 2),
            Gate(GateKind.AND2, (a0, 2), 3),
        )


def test_constants_shared_and_recognised():
    b = CircuitBuilder("t")
    (a0,) = b.add_input("A", 1, U)
    one = b.const1()
    assert (one, b.const1()) == (1, 1)
    zero = b.const0()
    assert (zero, b.const0()) == (2, 2)
    b.add_output("Y", [one, zero, a0], U)
    assert [g.kind for g in b.finalize().gates] == [GateKind.CONST1, GateKind.CONST0]


def test_arity_table_matches_members():
    assert {kind: kind.arity for kind in GateKind} == {
        GateKind.CONST0: 0, GateKind.CONST1: 0, GateKind.NOT: 1, GateKind.BUF: 1,
        GateKind.AND2: 2, GateKind.NAND2: 2, GateKind.OR2: 2, GateKind.NOR2: 2,
        GateKind.XOR2: 2, GateKind.XNOR2: 2,
    }
    assert [GateKind(k.value) for k in GateKind] == list(GateKind)


class TestGateKindIdentity:
    """Members hash by identity; every lookup by kind keeps its meaning."""

    def test_value_lookup_returns_the_member(self):
        for kind in GateKind:
            assert GateKind(kind.value) is kind
            assert GateKind[kind.name] is kind
        assert GateKind("AND2") is GateKind.AND2

    def test_pickle_and_copy_return_the_member(self):
        for kind in GateKind:
            assert pickle.loads(pickle.dumps(kind)) is kind
            assert copy.copy(kind) is kind
            assert copy.deepcopy(kind) is kind
        gate = Gate(GateKind.XOR2, (0, 1), 2)
        assert pickle.loads(pickle.dumps(gate)) == gate
        assert hash(copy.deepcopy(gate)) == hash(gate)

    def test_dict_and_counter_lookups(self):
        table = {kind: i for i, kind in enumerate(GateKind)}
        for i, kind in enumerate(GateKind):
            assert table[GateKind(kind.value)] == i
            assert table[pickle.loads(pickle.dumps(kind))] == i
        kinds = [GateKind.AND2, GateKind.XOR2, GateKind.AND2, GateKind.NOT]
        counts = Counter(GateKind(k.value) for k in kinds)
        assert counts[GateKind.AND2] == 2
        assert counts[GateKind.XOR2] == counts[GateKind.NOT] == 1
        assert counts[GateKind.OR2] == 0
        assert GateKind.AND2 in set(kinds) and GateKind.OR2 not in set(kinds)


class TestGateTuple:
    """``Gate`` is a named tuple; it keeps the repr, hash and immutability of
    the frozen dataclass it replaced, and also equals its field tuple."""

    def test_repr_text(self):
        assert repr(Gate(GateKind.AND2, (0, 1), 2)) == (
            "Gate(kind=<GateKind.AND2: 'AND2'>, inputs=(0, 1), output=2)"
        )

    def test_hash_and_equality_are_the_field_tuple(self):
        g = Gate(kind=GateKind.XOR2, inputs=(0, 1), output=2)
        assert g == Gate(GateKind.XOR2, (0, 1), 2)
        assert hash(g) == hash((g.kind, g.inputs, g.output))
        assert g == (GateKind.XOR2, (0, 1), 2)
        kind, ins, out = g
        assert (kind, ins, out) == (GateKind.XOR2, (0, 1), 2)

    def test_fields_are_read_only(self):
        g = Gate(GateKind.NOT, (0,), 1)
        for field in ("kind", "inputs", "output"):
            with pytest.raises(AttributeError):
                setattr(g, field, getattr(g, field))
        assert g == Gate(GateKind.NOT, (0,), 1)

    def test_replace_and_dict_keys(self):
        g = Gate(GateKind.AND2, (0, 1), 2)
        h = g._replace(kind=GateKind.OR2)
        assert h == Gate(GateKind.OR2, (0, 1), 2) and g.kind is GateKind.AND2
        table = {g: "and", h: "or"}
        assert table[Gate(GateKind.AND2, (0, 1), 2)] == "and"
        assert table[Gate(GateKind.OR2, (0, 1), 2)] == "or"

    def test_circuit_hash_and_json_round_trip(self):
        from gatemul.emit import from_json, to_json
        from gatemul.multipliers import booth_radix4_multiplier

        c = booth_radix4_multiplier(8)
        assert hash(c) == hash((c.name, c.inputs, c.outputs, c.gates, c.net_count))
        loaded = from_json(to_json(c))
        assert loaded == c and hash(loaded) == hash(c)
        assert all(type(g) is Gate for g in loaded.gates)


def _every_spec(n):
    from gatemul.multipliers import Architecture, Combiner, MultiplierSpec

    for comb in Combiner:
        yield MultiplierSpec(n, n, S, S, Architecture.FLAT_BW, combiner=comb)
        for sa, sb in ((U, U), (S, U), (U, S)):
            yield MultiplierSpec(n, n, sa, sb, Architecture.FLAT_UNSIGNED_ARRAY, combiner=comb)
        yield MultiplierSpec(n, n, S, S, Architecture.BOOTH_RADIX4, combiner=comb)
        leaf = 2
        while leaf < n:
            for sa in (S, U):
                for sb in (S, U):
                    yield MultiplierSpec(n, n, sa, sb, Architecture.DECOMPOSED,
                                         leaf_width=leaf, combiner=comb)
            leaf *= 2


# sha256 over every generator's name, net count and gate list (kind, inputs,
# output, in order), recorded before the builder stopped keying its
# constant nets and arity checks by GateKind.
GATE_LIST_SHA256 = {
    4: "136a24a874ec8b3c7fc791f0fe56eba74e18dbfc906cec4e7edc35d32f56f37e",
    8: "994d56a5f7312686ea5dfe828e97bec71366f12fab608d2b3792cc178359e01a",
    16: "3911a17e4eb9083fad358f95ad36c8d4096e0d3d035c9c84146259c5123e30a5",
}


@pytest.mark.parametrize("n", sorted(GATE_LIST_SHA256))
def test_generators_number_nets_and_gates_as_recorded(n):
    import hashlib

    from gatemul.multipliers import generate

    h = hashlib.sha256()
    for spec in _every_spec(n):
        c = generate(spec)
        h.update(f"{c.name} {c.net_count}\n".encode())
        for g in c.gates:
            h.update(f"{g.kind.value} {' '.join(map(str, g.inputs))} {g.output}\n".encode())
    assert h.hexdigest() == GATE_LIST_SHA256[n]


def test_xor_self_is_zero():
    b = CircuitBuilder("t")
    (a0,) = b.add_input("A", 1, U)
    y = b.add_gate(GateKind.XOR2, [a0, a0])
    b.add_output("Y", [y], U)
    c = b.finalize()
    assert evaluate(c, {"A": 0})["Y"] == 0
    assert evaluate(c, {"A": 1})["Y"] == 0


def test_multiple_drivers_detected():
    # Hand-assembled: two gates driving the same net.
    c = Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(
            Gate(GateKind.NOT, (0,), 1),
            Gate(GateKind.BUF, (0,), 1),
        ),
        net_count=2,
    )
    kinds = {v.kind for v in validate(c)}
    assert ViolationKind.MULTIPLE_DRIVERS in kinds


def test_undriven_net_detected():
    c = Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(),
        net_count=2,
    )
    v = validate(c)
    assert [x.kind for x in v] == [ViolationKind.UNDRIVEN_NET]
    assert v[0].net == 1


def test_cycle_detected():
    c = Circuit(
        name="loop",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(
            Gate(GateKind.BUF, (2,), 1),
            Gate(GateKind.BUF, (1,), 2),
        ),
        net_count=3,
    )
    kinds = [v.kind for v in validate(c)]
    assert ViolationKind.CYCLE in kinds


def test_arity_violation_in_validate():
    c = Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(Gate(GateKind.AND2, (0,), 1),),
        net_count=2,
    )
    kinds = [v.kind for v in validate(c)]
    assert ViolationKind.ARITY_MISMATCH in kinds


def test_builder_gates_topologically_ordered():
    rng = random.Random(7)
    for _ in range(25):
        c = random_circuit(rng)
        placed = {n for p in c.inputs for n in p.bits}
        for g in c.gates:
            assert all(i in placed for i in g.inputs)
            placed.add(g.output)
        assert gate_schedule(c) == list(range(len(c.gates)))


def test_net_density():
    rng = random.Random(11)
    for _ in range(10):
        c = random_circuit(rng)
        referenced = {n for p in c.inputs for n in p.bits} | {g.output for g in c.gates}
        assert max(referenced) + 1 == c.net_count
        assert validate(c) == []


def test_gate_schedule_reorders_shuffled_gates():
    c = build_fa()
    # Reverse the gate list: still acyclic, no longer in construction order.
    shuffled = Circuit(
        name=c.name,
        inputs=c.inputs,
        outputs=c.outputs,
        gates=tuple(reversed(c.gates)),
        net_count=c.net_count,
    )
    assert validate(shuffled) == []
    order = gate_schedule(shuffled)
    seen = {n for p in shuffled.inputs for n in p.bits}
    for gi in order:
        g = shuffled.gates[gi]
        assert all(i in seen for i in g.inputs)
        seen.add(g.output)


def test_builder_rejects_use_after_finalize():
    b = CircuitBuilder("t")
    (a0,) = b.add_input("A", 1, U)
    y = b.add_gate(GateKind.NOT, [a0])
    b.add_output("Y", [y], U)
    b.finalize()
    with pytest.raises(NetlistError, match="finalized"):
        b.add_input("B", 1, U)


def test_out_of_order_with_multiple_drivers_violations():
    # Gate 0 reads nets 2 and 3, which later gates drive -- twice each.
    c = Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1, 3), U),),
        gates=(
            Gate(GateKind.AND2, (2, 3), 1),
            Gate(GateKind.NOT, (0,), 2),
            Gate(GateKind.BUF, (0,), 2),
            Gate(GateKind.XOR2, (0, 2), 3),
            Gate(GateKind.NOT, (0,), 3),
        ),
        net_count=4,
    )
    got = [(v.kind, v.message, v.net, v.gate_index) for v in validate(c)]
    assert got == [
        (ViolationKind.MULTIPLE_DRIVERS, "MultipleDrivers: net 2 has 2 drivers", 2, None),
        (ViolationKind.MULTIPLE_DRIVERS, "MultipleDrivers: net 3 has 2 drivers", 3, None),
    ]
    with pytest.raises(ValidationError, match="invalid"):
        gate_schedule(c)


def _undriven_output():
    return Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(),
        net_count=2,
    )


def _net_out_of_range():
    return Circuit(
        name="bad",
        inputs=(Port("A", (0,), U),),
        outputs=(Port("Y", (1,), U),),
        gates=(Gate(GateKind.NOT, (0,), 1), Gate(GateKind.NOT, (7,), 1)),
        net_count=2,
    )


def test_gate_schedule_rejects_invalid_circuits():
    for c in (_undriven_output(), _net_out_of_range()):
        with pytest.raises(ValidationError) as exc:
            gate_schedule(c)
        assert exc.value.violations == validate(c) != []


def test_validate_returns_a_fresh_list():
    c = _undriven_output()
    first = validate(c)
    first.clear()
    assert len(validate(c)) == 1


def test_cached_analysis_is_not_part_of_the_value():
    from gatemul.emit import from_json, to_json

    c = build_fa()
    twin = Circuit(c.name, c.inputs, c.outputs, c.gates, c.net_count)
    assert validate(c) == []  # c now carries its analysis, twin does not
    assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
    assert from_json(to_json(c)) == c


def _finalize_analysis_matches_census(circuit):
    import dataclasses

    import gatemul.netlist as netlist

    recorded = circuit.__dict__["_analysis"]
    censused = netlist._analyse(dataclasses.replace(circuit))
    assert censused.violations == recorded.violations == ()
    assert list(censused.schedule) == list(recorded.schedule)
    assert censused.depth == recorded.depth


def test_finalize_records_what_the_census_computes():
    from gatemul.multipliers import generate

    from test_multipliers import _digest_specs

    rng = random.Random(5)
    for c in [build_fa(), *(random_circuit(rng) for _ in range(25)),
              *(generate(spec) for spec in _digest_specs())]:
        _finalize_analysis_matches_census(c)


@pytest.mark.parametrize("arch, leaf", [("FLAT_BW", None), ("BOOTH_RADIX4", None),
                                        ("DECOMPOSED", 4)])
def test_finalize_records_what_the_census_computes_at_64_bits(arch, leaf):
    from gatemul.multipliers import Architecture, MultiplierSpec, generate

    _finalize_analysis_matches_census(
        generate(MultiplierSpec(64, 64, S, S, Architecture[arch], leaf)))


class TestAnalysedOnce:
    """A builder circuit is never censused: ``finalize`` records its analysis.
    Every other Circuit object is validated and ordered exactly once."""

    @pytest.fixture
    def analysed(self, monkeypatch):
        import gatemul.netlist as netlist

        seen = []
        real = netlist._analyse

        def counting(circuit):
            seen.append(circuit)
            return real(circuit)

        monkeypatch.setattr(netlist, "_analyse", counting)
        return seen

    def test_builder_circuit_through_every_consumer(self, analysed):
        from gatemul.emit import to_json, to_verilog
        from gatemul.timing import DelayModel, critical_path, depth

        c = build_fa()
        to_json(c)
        to_verilog(c)
        critical_path(c, DelayModel.unit())
        critical_path(c, DelayModel.tech_demo())
        depth(c)
        evaluate(c, {"a": 1, "x": 1, "cin": 0})
        assert analysed == []

    def test_compare_analyses_each_circuit_once(self, analysed):
        from gatemul.emit import from_json, to_json
        from gatemul.multipliers import baugh_wooley_multiplier, booth_radix4_multiplier
        from gatemul.timing import DelayModel, compare

        bw, booth = baugh_wooley_multiplier(4), booth_radix4_multiplier(4)
        compare([("bw", bw), ("booth4", booth)], DelayModel.tech_demo())
        assert analysed == []
        loaded = [from_json(to_json(c)) for c in (bw, booth)]
        compare([("bw", loaded[0]), ("booth4", loaded[1])], DelayModel.tech_demo())
        assert [id(c) for c in analysed] == [id(c) for c in loaded]

    def test_verify_of_a_retagged_file_analyses_once(self, analysed, tmp_path, capsys):
        from gatemul.cli import main
        from gatemul.emit import to_json
        from gatemul.multipliers import mixed_sign_multiplier

        # An unsigned array whose file marks every port signed.
        path = tmp_path / "a4.json"
        text = to_json(mixed_sign_multiplier(4, U, U))
        path.write_text(text.replace('"signed": false', '"signed": true'))
        analysed.clear()
        assert main(["verify", str(path), "--exhaustive"]) == 1
        assert len(analysed) == 1
        capsys.readouterr()

    def test_loaded_circuit_simulated(self, analysed):
        from gatemul.emit import from_json, to_json
        from gatemul.sim import evaluate_vector_array

        text = to_json(build_fa())
        analysed.clear()
        c = from_json(text)
        evaluate_vector_array(c, {"a": [0, 1], "x": [1, 1], "cin": [1, 0]})
        assert [id(x) for x in analysed] == [id(c)]
