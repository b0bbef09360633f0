import dataclasses
import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import pytest

import numpy as np

import gatemul.verify
from gatemul.multipliers import (
    Architecture,
    MultiplierSpec,
    baugh_wooley_multiplier,
    generate,
    mixed_sign_multiplier,
)
from gatemul.netlist import Circuit, CircuitBuilder, Gate, GateKind, Signedness
from gatemul.sim import evaluate, evaluate_vector_array, value_range
from gatemul.verify import (
    _MAX_WITNESSES,
    _ROW_BLOCK,
    VerifyReport,
    _draw,
    _Failures,
    _sort_rows,
    boundary_values,
    oracle_product,
    verify_exhaustive,
    verify_random,
)

S = Signedness.SIGNED
U = Signedness.UNSIGNED

BW4_SPEC = MultiplierSpec(4, 4, S, S, Architecture.FLAT_BW)
SPEC16 = MultiplierSpec(16, 16, S, S, Architecture.FLAT_BW)


def partial_product_gates(circuit: Circuit) -> list[int]:
    """Indices of AND2/NAND2 gates fed directly by the two input ports."""
    input_nets = {n for p in circuit.inputs for n in p.bits}
    return [
        gi
        for gi, g in enumerate(circuit.gates)
        if g.kind in (GateKind.AND2, GateKind.NAND2)
        and all(i in input_nets for i in g.inputs)
    ]


def flip_gate(circuit: Circuit, index: int) -> Circuit:
    g = circuit.gates[index]
    flipped = GateKind.NAND2 if g.kind is GateKind.AND2 else GateKind.AND2
    gates = list(circuit.gates)
    gates[index] = g._replace(kind=flipped)
    return dataclasses.replace(circuit, gates=tuple(gates))


class TestOracle:
    def test_known_products(self):
        assert oracle_product(4, -4, BW4_SPEC) == -16
        assert oracle_product(-8, -8, BW4_SPEC) == 64
        spec8 = MultiplierSpec(8, 8, S, S, Architecture.FLAT_BW)
        assert oracle_product(127, -128, spec8) == -16256

    def test_range_checks(self):
        with pytest.raises(ValueError, match="a="):
            oracle_product(8, 0, BW4_SPEC)
        with pytest.raises(ValueError, match="b="):
            oracle_product(0, -9, BW4_SPEC)
        uspec = MultiplierSpec(4, 4, U, U, Architecture.FLAT_UNSIGNED_ARRAY)
        with pytest.raises(ValueError):
            oracle_product(-1, 0, uspec)


class TestExhaustive:
    def test_bw4_passes(self):
        report = verify_exhaustive(baugh_wooley_multiplier(4), BW4_SPEC)
        assert report.total_vectors == 256
        assert report.passed
        assert report.mode == "exhaustive"

    def test_width_cap(self):
        spec = MultiplierSpec(16, 16, S, S, Architecture.DECOMPOSED, leaf_width=4)
        c = generate(spec)
        with pytest.raises(ValueError, match="verify_random"):
            verify_exhaustive(c, spec)

    def test_width_mismatch_detected(self):
        c = baugh_wooley_multiplier(4)
        spec8 = MultiplierSpec(8, 8, S, S, Architecture.FLAT_BW)
        with pytest.raises(ValueError, match="do not match"):
            verify_exhaustive(c, spec8)

    @pytest.mark.parametrize("signs", [(U, U), (S, U), (U, S)])
    def test_sign_mismatch_detected(self, signs):
        c = mixed_sign_multiplier(4, *signs)
        names = " x ".join(sign.value for sign in signs)
        message = f"circuit signs {names} do not match the spec signed x signed"
        with pytest.raises(ValueError, match=message):
            verify_exhaustive(c, BW4_SPEC)
        with pytest.raises(ValueError, match=message):
            verify_random(c, BW4_SPEC, count=10, seed=1)

    def test_mismatch_refused_before_the_cap(self):
        # A spec both mismatched and over the exhaustive cap is refused as a
        # mismatch: the spec is checked first.
        with pytest.raises(ValueError, match="^circuit widths 8x8 do not match the spec 16x16$"):
            verify_exhaustive(baugh_wooley_multiplier(8), SPEC16)

    def test_corrupted_netlist_reports_witnesses(self):
        c = baugh_wooley_multiplier(4)
        mutant = flip_gate(c, partial_product_gates(c)[0])
        report = verify_exhaustive(mutant, BW4_SPEC)
        assert not report.passed
        inputs, expected, actual = report.failures[0]
        assert set(inputs) == {"A", "B"}
        assert oracle_product(inputs["A"], inputs["B"], BW4_SPEC) == expected
        assert expected != actual


class TestMutationSensitivity:
    def test_every_partial_product_mutant_caught(self):
        c = baugh_wooley_multiplier(4)
        pp = partial_product_gates(c)
        assert len(pp) >= 16
        for gi in pp:
            mutant = flip_gate(c, gi)
            report = verify_exhaustive(mutant, BW4_SPEC)
            assert not report.passed, f"mutant at gate {gi} slipped through"


class TestRandom:
    def test_deterministic_reports(self):
        c = baugh_wooley_multiplier(4)
        r1 = verify_random(c, BW4_SPEC, count=500, seed=7)
        r2 = verify_random(c, BW4_SPEC, count=500, seed=7)
        assert r1 == r2
        assert r1.algorithm == "numpy-pcg64"

    def test_boundary_set_always_included(self):
        # Break the circuit only at (min, min): a count=1 random run must
        # still catch it because boundary pairs are always injected.
        c = baugh_wooley_multiplier(4)
        corrupted = _corrupt_at_min_min(c)
        ok = verify_exhaustive(c, BW4_SPEC)
        assert ok.passed
        report = verify_random(corrupted, BW4_SPEC, count=1, seed=0)
        assert not report.passed
        assert any(f[0] == {"A": -8, "B": -8} for f in report.failures)

    def test_count_one_reports_both_numbers(self):
        c = baugh_wooley_multiplier(4)
        report = verify_random(c, BW4_SPEC, count=1, seed=3)
        assert report.requested_count == 1
        assert report.boundary_vectors == 25  # {0,1,-1,7,-8} x itself
        assert report.total_vectors == 26
        assert report.total_vectors > report.requested_count

    def test_count_must_be_positive(self):
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError):
            verify_random(c, BW4_SPEC, count=0, seed=0)

    def test_count_cap(self):
        c = baugh_wooley_multiplier(4)
        for count in (2**24 + 1, 2**59):
            with pytest.raises(ValueError, match=r"^count must be <= 16777216$"):
                verify_random(c, BW4_SPEC, count=count, seed=0)

    def test_spec_checked_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("operands drawn before the spec was checked")

        monkeypatch.setattr(gatemul.verify, "_draw", no_draws)
        with pytest.raises(ValueError, match="^circuit widths 8x8 do not match the spec 16x16$"):
            verify_random(baugh_wooley_multiplier(8), SPEC16, count=10, seed=0)

    @pytest.mark.parametrize("count", [2.5, True, "10"])
    def test_count_must_be_an_int(self, count):
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError, match=rf"^count must be an int, got {count!r}$"):
            verify_random(c, BW4_SPEC, count=count, seed=0)

    @pytest.mark.parametrize("seed", [None, 2.5, "3", -1, True])
    def test_seed_must_be_a_nonnegative_int(self, monkeypatch, seed):
        def no_draws(*args):
            raise AssertionError("operands drawn before the seed was checked")

        monkeypatch.setattr(gatemul.verify, "_draw", no_draws)
        c = baugh_wooley_multiplier(4)
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative int, got {seed!r}$"):
            verify_random(c, BW4_SPEC, count=5, seed=seed)

    def test_failures_sorted_by_input_vector(self):
        # Flipping a partial product breaks many vectors; order must be sorted.
        c = baugh_wooley_multiplier(4)
        mutant = flip_gate(c, partial_product_gates(c)[3])
        report = verify_random(mutant, BW4_SPEC, count=200, seed=1)
        keys = [tuple(f[0].values()) for f in report.failures]
        assert keys == sorted(keys)


SIGN_PAIRS = [(S, S), (S, U), (U, S), (U, U)]
WIDE_ARCHS = [
    (Architecture.FLAT_BW, None),
    (Architecture.BOOTH_RADIX4, None),
    (Architecture.DECOMPOSED, 4),
]


class TestWideWidths:
    """Operands or products beyond int64 take the exact Python-int path."""

    @pytest.mark.parametrize("width", [31, 32, 33, 64])
    @pytest.mark.parametrize("sa, sb", SIGN_PAIRS)
    def test_array_generators_pass(self, width, sa, sb):
        spec = MultiplierSpec(width, width, sa, sb, Architecture.FLAT_UNSIGNED_ARRAY)
        report = verify_random(generate(spec), spec, count=200, seed=width)
        assert report.passed, report.to_text()
        corners = len(boundary_values(width, sa)) * len(boundary_values(width, sb))
        assert report.total_vectors == corners + 200

    @pytest.mark.parametrize("arch, leaf", WIDE_ARCHS)
    def test_64_bit_architectures_pass(self, arch, leaf):
        spec = MultiplierSpec(64, 64, S, S, arch, leaf_width=leaf)
        report = verify_random(generate(spec), spec, count=200, seed=64)
        assert report.passed, report.to_text()

    def test_64_bit_mutant_refuted_with_exact_witnesses(self):
        spec = MultiplierSpec(64, 64, S, S, Architecture.FLAT_BW)
        c = baugh_wooley_multiplier(64)
        mutant = flip_gate(c, partial_product_gates(c)[0])
        report = verify_random(mutant, spec, count=100, seed=9)
        assert not report.passed
        keys = [(f[0]["A"], f[0]["B"]) for f in report.failures]
        assert keys == sorted(keys)
        for inputs, expected, actual in report.failures[:10]:
            assert expected == inputs["A"] * inputs["B"]
            assert actual == evaluate(mutant, inputs)["P"] != expected

    def test_wider_than_64_bits_passes(self):
        spec = MultiplierSpec(65, 65, S, U, Architecture.FLAT_UNSIGNED_ARRAY)
        report = verify_random(generate(spec), spec, count=50, seed=65)
        assert report.passed, report.to_text()


class TestDraws:
    def test_int64_ranges_draw_as_before(self):
        for width, sign in [(16, S), (33, U), (64, S)]:
            lo, hi = value_range(width, sign)
            want = np.random.default_rng(4).integers(
                lo, hi, size=50, dtype=np.int64, endpoint=True
            )
            got = _draw(np.random.default_rng(4), width, sign, 50)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_64_bit_unsigned_draws_uint64(self):
        want = np.random.default_rng(4).integers(
            0, (1 << 64) - 1, size=(50, 1), dtype=np.uint64, endpoint=True
        )
        got = _draw(np.random.default_rng(4), 64, U, 50)
        assert got.tolist() == want[:, 0].tolist()

    @pytest.mark.parametrize("width, sign", [(65, S), (65, U), (100, S), (128, U)])
    def test_wide_draws_in_range_and_deterministic(self, width, sign):
        lo, hi = value_range(width, sign)
        got = _draw(np.random.default_rng(11), width, sign, 400).tolist()
        assert got == _draw(np.random.default_rng(11), width, sign, 400).tolist()
        assert len(got) == 400
        assert all(lo <= v <= hi for v in got)
        # Uniform over the range: both halves are hit.
        mid = (lo + hi) // 2
        assert any(v < mid for v in got) and any(v > mid for v in got)

    @pytest.mark.parametrize("width, sign, digest", [
        (65, S, "151c8f9d1b93e9ddf63ac7d27aaa9f871fc303bd703d8b180048e72c36d88ad5"),
        (65, U, "0dd3282e3404dc255fc338f6231b0dd58b70c8cd331d47e47e66eaa555aa1e9f"),
        (100, S, "a6f9196671b82754dfe59740b5dbfeea8670901280482fe60aa771c319636482"),
        (100, U, "13f89bed60a3b3fa9e0caaca62fbae46eb822b97a09e5b9393a6f558eb192a05"),
        (128, S, "544ab4f154b2156fe34e4291edc5e15f71ecbdd9cf0f4e60048c6670656e27dc"),
        (128, U, "1ba030cf51c27496905a34c09330fd12632b00dd851f2b3ab8ece6f6dd4bfede"),
        (129, S, "a6285a2c5f20cdb8b5d32a504568b0b9ee556a47d5d904c85cdda548d03204da"),
        (129, U, "a15f8b41c1d6ad704c263061397ab2b8c13688bf861bf6c464eb83cc11522c96"),
        (256, S, "c174e5f1f16793d01c9d656cb456d5aab79a8f6c18346574e23cb299f5cb359c"),
        (256, U, "b91abd9cbc8aad73b32be5483baafc87ee6d4df907e29dc4e606ec8ee5ff9f48"),
    ])
    def test_wide_draws_pinned(self, width, sign, digest):
        """1000 draws each from seeds 3 and 2024 match earlier releases."""
        draws = [_draw(np.random.default_rng(seed), width, sign, 1000).tolist()
                 for seed in (3, 2024)]
        assert _sha256(repr(draws)) == digest


class TestPinnedSeed:
    """Draws and report text for int64 ranges match earlier releases."""

    SPEC16 = MultiplierSpec(16, 16, S, S, Architecture.FLAT_BW)

    def test_first_random_vectors(self):
        c = baugh_wooley_multiplier(16)
        mutant = flip_gate(c, partial_product_gates(c)[5])
        report = verify_random(mutant, self.SPEC16, count=6, seed=2024)
        # This mutant fails on every vector, so the failures list them all.
        assert len(report.failures) == report.total_vectors == 31
        corners = {(a, b) for a in boundary_values(16, S) for b in boundary_values(16, S)}
        drawn = {(f[0]["A"], f[0]["B"]) for f in report.failures} - corners
        assert drawn == {
            (-16940, 26783), (11523, 19625), (-26717, 27219),
            (-18723, 32492), (-11951, -27622), (-12488, -23447),
        }

    def test_report_text(self):
        c = baugh_wooley_multiplier(16)
        mutant = flip_gate(c, partial_product_gates(c)[5])
        report = verify_random(mutant, self.SPEC16, count=6, seed=2024)
        assert report.to_text() == "\n".join([
            "mode: random",
            "algorithm: numpy-pcg64, seed: 2024, requested: 6",
            "vectors: 31 (boundary 25 + random 6)",
            "result: FAIL (31 failures)",
            "  A=-32768 B=-32768: expected 1073741824, got 1073741856",
            "  A=-32768 B=-1: expected 32768, got 32800",
            "  A=-32768 B=0: expected 0, got 32",
            "  A=-32768 B=1: expected -32768, got -32736",
            "  A=-32768 B=32767: expected -1073709056, got -1073709024",
            "  A=-26717 B=27219: expected -727210023, got -727209991",
            "  A=-18723 B=32492: expected -608347716, got -608347748",
            "  A=-16940 B=26783: expected -453704020, got -453703988",
            "  A=-12488 B=-23447: expected 292806136, got 292806168",
            "  A=-11951 B=-27622: expected 330110522, got 330110554",
            "  A=-1 B=-32768: expected 32768, got 32800",
            "  A=-1 B=-1: expected 1, got -31",
            "  A=-1 B=0: expected 0, got 32",
            "  A=-1 B=1: expected -1, got 31",
            "  A=-1 B=32767: expected -32767, got -32799",
            "  A=0 B=-32768: expected 0, got 32",
            "  A=0 B=-1: expected 0, got 32",
            "  A=0 B=0: expected 0, got 32",
            "  A=0 B=1: expected 0, got 32",
            "  A=0 B=32767: expected 0, got 32",
            "  ... and 11 more",
        ])
        passing = verify_random(c, self.SPEC16, count=6, seed=2024)
        assert passing.to_text().endswith("result: PASS (31 vectors, 0 failures)")


def _corrupt_at_min_min(c: Circuit) -> Circuit:
    """XOR the product LSB with (A == -8 and B == -8)."""
    import dataclasses as dc

    n = c.net_count
    a_bits = c.inputs[0].bits
    b_bits = c.inputs[1].bits
    gates = list(c.gates)

    def gate(kind, ins):
        nonlocal n
        gates.append(Gate(kind, tuple(ins), n))
        n += 1
        return n - 1

    # -8 is 1000: MSB set, low bits clear.
    terms = [a_bits[3], b_bits[3]]
    terms += [gate(GateKind.NOT, [x]) for x in (*a_bits[:3], *b_bits[:3])]
    acc = terms[0]
    for t in terms[1:]:
        acc = gate(GateKind.AND2, [acc, t])
    p = c.outputs[0]
    flipped = gate(GateKind.XOR2, [p.bits[0], acc])
    new_bits = (flipped,) + p.bits[1:]
    return dc.replace(
        c,
        gates=tuple(gates),
        net_count=n,
        outputs=(dc.replace(p, bits=new_bits),),
    )


class TestBoundaryValues:
    def test_signed(self):
        assert boundary_values(4, S) == [0, 1, -1, 7, -8]

    def test_unsigned(self):
        assert boundary_values(4, U) == [0, 1, 15]


class TestReportRendering:
    def test_text_pass(self):
        c = baugh_wooley_multiplier(4)
        report = verify_exhaustive(c, BW4_SPEC)
        text = report.to_text()
        assert "256 vectors, 0 failures" in text
        assert "PASS" in text

    def test_text_failure_witnesses(self):
        c = baugh_wooley_multiplier(4)
        mutant = flip_gate(c, partial_product_gates(c)[0])
        text = verify_exhaustive(mutant, BW4_SPEC).to_text()
        assert "FAIL" in text
        assert "expected" in text

    def test_json_round_trip(self):
        c = baugh_wooley_multiplier(4)
        report = verify_random(c, BW4_SPEC, count=10, seed=5)
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert doc["mode"] == "random"
        assert doc["seed"] == 5
        assert doc["algorithm"] == "numpy-pcg64"
        assert doc["total_vectors"] == report.total_vectors


def first_and_to_or(circuit: Circuit) -> Circuit:
    """The circuit with its first AND2 turned into an OR2 (the benchmark's mutant)."""
    gi = next(i for i, g in enumerate(circuit.gates) if g.kind is GateKind.AND2)
    gates = list(circuit.gates)
    gates[gi] = gates[gi]._replace(kind=GateKind.OR2)
    return dataclasses.replace(circuit, gates=tuple(gates))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The bw and decomposed:4 mutants break the same partial product, so their
# reports agree.
_BW_RANDOM = (
    "fc51c9e00a615df4a0e6896fcdd0cd43a2ec499827709e3ed9ad950db71baccc",
    "6d55fdda1292dcf7d0ad24549a1e57f5d18f68b2731e3393db4c827db811180d",
)
_BW_EXHAUSTIVE = (
    "dc65b3a19cde3ca2d645dd0fd4992fb3cef0749806f30434feb213bc87a2561c",
    "f5bbe5c3a09163ff87533f6b5c4c0d593b15141adee7af033a016ccbd2a3e37b",
)
MUTANT_REPORTS = [
    # (architecture, leaf, random 16-bit failures, (text, json) digests of
    #  the 16-bit random report, (text, json) digests of the 8-bit
    #  exhaustive report)
    (Architecture.FLAT_BW, None, 10113, _BW_RANDOM, _BW_EXHAUSTIVE),
    (Architecture.BOOTH_RADIX4, None, 10049, (
        "49ad5d5e19386bd7d5aa43e91fa1d1e88ec453c1b7785263d43dd9f86e587ee8",
        "7165bc3ef65f429b1c2b34b514f3467543a80fe9c4da25fe25c165836b3c4649",
    ), (
        "6b5d96c1522e637f2611fdab98e853b05dffd1b5ed37ade1efa776281f4f7051",
        "84bb1fa554abeab088accbea87dc514d4d2763e2376a412a03c1fae300f2d49c",
    )),
    (Architecture.DECOMPOSED, 4, 10113, _BW_RANDOM, _BW_EXHAUSTIVE),
]

# Runs that cross a chunk boundary (65,536 vectors): a ragged tail, the
# object and limb path of an operand wider than 64 bits, and a 2x2 netlist
# whose 16 pairs repeat, so the order of equal pairs shows.
MULTI_CHUNK_REPORTS = [
    (MultiplierSpec(16, 16, S, S, Architecture.FLAT_BW), 200003, 11, 99594, (
        "066767be9209522ccff72e4abd956cae575e4deaff1d7d57111b9b2a633be4ea",
        "e8fbb02a0b68a1e7811f916da3d00df723e5a74d8b2b8e161f44a8b53636c684",
    )),
    (MultiplierSpec(65, 65, S, U, Architecture.FLAT_UNSIGNED_ARRAY), 65537, 65, 32750, (
        "7ebdbe79dfb6755fcb1e29226fa52b55f3b3b5520143afe893fac5cb56b7c41e",
        "0a75de2cb673da255df47ed883f8d0ef2cd8aaddc9ef9331dcd8871918440193",
    )),
    (MultiplierSpec(2, 2, S, S, Architecture.FLAT_BW), 70000, 4, 35061, (
        "1b2c462b1e4e41edcdf7a68476207b9666746e0bd3c9730a522061e03f821bca",
        "9de1d076761e4d27a48fdc816564c7596977ef7bb9d34bfd2ff41a25eb9bed26",
    )),
]


class TestPinnedReportBytes:
    """Text and JSON reports of one-gate mutants, byte for byte."""

    @pytest.mark.parametrize("arch, leaf, nfail, digests, _", MUTANT_REPORTS)
    def test_random_16_bit(self, arch, leaf, nfail, digests, _):
        spec = MultiplierSpec(16, 16, S, S, arch, leaf_width=leaf)
        report = verify_random(first_and_to_or(generate(spec)), spec, count=20000, seed=8)
        assert len(report.failures) == nfail
        assert (_sha256(report.to_text()), _sha256(report.to_json())) == digests

    @pytest.mark.parametrize("arch, leaf, _, __, digests", MUTANT_REPORTS)
    def test_exhaustive_8_bit(self, arch, leaf, _, __, digests):
        spec = MultiplierSpec(8, 8, S, S, arch, leaf_width=leaf)
        report = verify_exhaustive(first_and_to_or(generate(spec)), spec)
        assert (_sha256(report.to_text()), _sha256(report.to_json())) == digests

    @pytest.mark.parametrize("spec, count, seed, nfail, digests", MULTI_CHUNK_REPORTS,
                             ids=["bw16_ragged_tail", "65x65_limbs", "bw2_ties"])
    def test_runs_over_several_chunks(self, spec, count, seed, nfail, digests):
        report = verify_random(first_and_to_or(generate(spec)), spec, count=count, seed=seed)
        assert len(report.failures) == nfail
        assert report.total_vectors > gatemul.verify._CHUNK
        assert (_sha256(report.to_text()), _sha256(report.to_json())) == digests


class TestChunkSize:
    """A random report does not depend on how many draws a chunk holds."""

    @pytest.mark.parametrize("spec, seed", [
        (SPEC16, 11),
        (MultiplierSpec(65, 65, S, U, Architecture.FLAT_UNSIGNED_ARRAY), 65),
    ], ids=["bw16", "65x65_limbs"])
    @pytest.mark.parametrize("chunk, count", [(1, 30), (7, 200), (4096, 4100)])
    def test_reports_match_the_default_chunk(self, monkeypatch, spec, seed, chunk, count):
        mutant = first_and_to_or(generate(spec))

        def reported():
            report = verify_random(mutant, spec, count=count, seed=seed)
            return len(report.failures), report.to_text(), report.to_json()

        want = reported()
        assert want[0] > 0
        monkeypatch.setattr(gatemul.verify, "_CHUNK", chunk)
        assert reported() == want


class TestFailureSequence:
    def test_indexing_slicing_and_iteration_agree(self):
        spec = MultiplierSpec(16, 16, S, S, Architecture.FLAT_BW)
        report = verify_random(first_and_to_or(generate(spec)), spec, count=20000, seed=2)
        rows = list(report.failures)  # iterated in several blocks of rows
        assert len(rows) == len(report.failures) > 5000
        assert report.failures[0] == rows[0]
        assert report.failures[-1] == rows[-1]
        assert report.failures[:5] == rows[:5]
        assert report.failures[4090:4100] == rows[4090:4100]
        assert report.failures == rows
        inputs, expected, actual = rows[0]
        assert list(inputs) == ["A", "B"]
        assert all(type(v) is int for v in (*inputs.values(), expected, actual))

    def test_passing_report_has_no_failures(self):
        report = verify_exhaustive(baugh_wooley_multiplier(4), BW4_SPEC)
        assert report.failures == []
        assert len(report.failures) == 0

    def test_text_report_builds_only_the_witness_rows(self, monkeypatch):
        spec = MultiplierSpec(16, 16, S, S, Architecture.FLAT_BW)
        report = verify_random(first_and_to_or(generate(spec)), spec, count=120000, seed=3)
        assert len(report.failures) > 50000
        built = []
        rows = _Failures._rows

        def counting_rows(self, index):
            out = rows(self, index)
            built.append(len(out))
            return out

        monkeypatch.setattr(_Failures, "_rows", counting_rows)
        text = report.to_text()
        assert text.endswith(f"... and {len(report.failures) - 20} more")
        assert 0 < sum(built) <= 20


def _mutant_run(spec: MultiplierSpec, count: int, seed: int) -> _Failures:
    return verify_random(first_and_to_or(generate(spec)), spec, count=count, seed=seed).failures


class TestRowOrder:
    """A random run's rows are in (A, B) order, however they are read."""

    @pytest.fixture(scope="class", params=["bw2", "bw16", "31x32", "32x32", "65x65_limbs"])
    def run(self, request):
        """(failures, every row): 2x2 has equal pairs at every cut; bw16's
        rows span two iteration blocks; 31x32 and 32x32 mix int32 and int64
        columns; 65 bits take object columns."""
        if request.param == "bw2":
            failures = _mutant_run(MultiplierSpec(2, 2, S, S, Architecture.FLAT_BW), 3000, 1)
        elif request.param == "bw16":
            failures = _mutant_run(SPEC16, 10000, 6)
        elif request.param == "65x65_limbs":
            failures = _mutant_run(
                MultiplierSpec(65, 65, S, U, Architecture.FLAT_UNSIGNED_ARRAY), 1200, 65)
        else:
            width_a = int(request.param[:2])
            inner = mixed_sign_multiplier(32, S, U)
            c = first_and_to_or(_narrowed(inner, width_a, 32))
            failures = verify_random(c, _operands(c), count=5000, seed=7).failures
        assert len(failures) > 2 * _MAX_WITNESSES
        return failures, list(failures)

    def test_rows_are_sorted(self, run):
        _, rows = run
        assert rows == sorted(rows, key=lambda row: tuple(row[0].values()))

    @pytest.mark.parametrize("k", [0, 1, _MAX_WITNESSES, _MAX_WITNESSES + 1])
    def test_head(self, run, k):
        failures, rows = run
        assert failures[:k] == rows[:k]

    def test_every_row(self, run):
        failures, rows = run
        assert failures == rows
        assert failures[:] == rows  # one slice, against iteration's blocks

    @pytest.mark.parametrize("index", [
        slice(-1, None), slice(-5, -1), slice(-1, -6, -1), slice(7, 2, -2),
        slice(500, 520), slice(None, None, -1), slice(None, 30, 3),
    ])
    def test_slices(self, run, index):
        failures, rows = run
        assert failures[index] == rows[index]

    @pytest.mark.parametrize("i", [0, 19, 20, -1, -21])
    def test_single_rows(self, run, i):
        failures, rows = run
        assert failures[i] == rows[i]


@pytest.mark.parametrize("sign_a, sign_b", [(S, S), (U, U), (S, U)])
def test_pair_order_is_lexsort_order(sign_a, sign_b):
    # 32-bit operand columns, int32 when signed and int64 when not, with
    # repeated pairs and repeated A values: np.lexsort's order, ties in
    # index order.
    rng = np.random.default_rng(3)
    columns = []
    for sign in (sign_a, sign_b):
        lo, hi = value_range(32, sign)
        column = rng.integers(lo, hi, 30_000, endpoint=True)
        column[::7], column[1::11] = lo, hi
        columns.append(column.astype(np.min_scalar_type(min(lo, -hi - 1))))
    a, b = columns
    a[::3], b[::3] = a[1], b[1]
    a[2::5] = a[4]
    want = np.lexsort((b, a))
    # An index column, sorted with the rows, reads back their order.
    rows = [a, b, np.arange(len(a))]
    _sort_rows(rows)
    assert np.array_equal(rows[2], want)


@pytest.mark.parametrize("width_a, width_b", [
    (32, 32), (20, 44), (16, 8), (6, 8), (40, 40), (65, 65)])
@pytest.mark.parametrize("sign_a, sign_b", [(S, S), (U, U), (U, S)])
def test_sort_rows_is_lexsort_gather(width_a, width_b, sign_a, sign_b):
    # Every column comes back as np.lexsort's order gathers it, in its own
    # dtype (int8 at 6x8, int64 at 40x40, object at 65x65), each range's
    # ends included and ties in index order.
    rng = np.random.default_rng(5)
    (lo_a, hi_a), (lo_b, hi_b) = value_range(width_a, sign_a), value_range(width_b, sign_b)
    # Each column in verify_random's dtype: its narrowest, object past int64.
    a, b = (_draw(rng, width, sign, 20_000).astype(np.min_scalar_type(min(lo, -hi - 1)))
            for width, sign, (lo, hi) in ((width_a, sign_a, (lo_a, hi_a)),
                                          (width_b, sign_b, (lo_b, hi_b))))
    a[::9], a[1::13], b[::5], b[2::7] = lo_a, hi_a, lo_b, hi_b
    a[3::4], b[3::4] = a[0], b[0]
    rest = [rng.integers(-9, 9, len(a)), rng.integers(0, 1 << 40, len(a))]
    order = np.lexsort((b, a))
    want = [column[order] for column in (a, b, *rest)]
    columns = [a, b, *rest]
    _sort_rows(columns)
    for got, column in zip(columns, want):
        assert got.dtype == column.dtype
        assert np.array_equal(got, column)
    # Ties in index order, against Python's stable sort of the pairs.
    pairs = list(zip(a.tolist(), b.tolist()))
    assert order.tolist() == sorted(range(len(pairs)), key=pairs.__getitem__)


class TestStreamedMemory:
    def test_passing_run_holds_one_chunk(self):
        # Unstreamed, the run held every vector: about 34 MiB here.
        c = baugh_wooley_multiplier(16)
        verify_random(c, SPEC16, count=1, seed=0)  # numpy loaded, program compiled
        tracemalloc.start()
        try:
            report = verify_random(c, SPEC16, count=1_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("arch, leaf", [
        (Architecture.FLAT_BW, None),
        (Architecture.BOOTH_RADIX4, None),
        (Architecture.DECOMPOSED, 4),
    ])
    def test_passing_chunk_is_its_narrow_columns(self, arch, leaf):
        # A chunk holds its operands and products in int16 and int32 and
        # about a hundred 8 KiB lanes: 1.0-1.3 MiB here.  With int64 columns,
        # their int64 copies and every partial product's lane it took 3.9-5.0.
        spec = MultiplierSpec(16, 16, S, S, arch, leaf_width=leaf)
        c = generate(spec)
        verify_random(c, spec, count=1, seed=0)  # numpy loaded, program compiled
        tracemalloc.start()
        try:
            report = verify_random(c, spec, count=1_000_000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_failing_run_holds_its_rows_once(self):
        # About 500k failing rows: 12 bytes each in narrow columns, plus the
        # sort order and one sorted column at a time.  Sorting with every
        # unsorted column kept alive needs about 34 bytes a row.
        mutant = first_and_to_or(generate(SPEC16))
        verify_random(mutant, SPEC16, count=1, seed=0)  # numpy loaded, program compiled
        tracemalloc.start()
        try:
            report = verify_random(mutant, SPEC16, count=1_000_000, seed=0)
            report.to_text()
            for _ in report.json_blocks():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len(report.failures)
        assert rows > 400_000
        assert peak < 30 * rows, f"peak {peak / rows:.1f} bytes a failing row"

    def test_failing_columns_are_narrow(self):
        failures = _mutant_run(SPEC16, 5000, 2)
        assert [c.dtype for c in failures._columns] == [np.int16, np.int16, np.int32, np.int32]


def _indented_dump(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


class TestJsonReport:
    """to_json writes what ``json.dumps(doc, indent=2)`` would."""

    def test_passing_and_failing_reports(self):
        c = baugh_wooley_multiplier(4)
        mutant = flip_gate(c, partial_product_gates(c)[0])
        for report in (
            verify_exhaustive(c, BW4_SPEC),
            verify_exhaustive(mutant, BW4_SPEC),
            verify_random(c, BW4_SPEC, count=10, seed=5),
            verify_random(mutant, BW4_SPEC, count=100, seed=5),
        ):
            text = report.to_json()
            assert text == _indented_dump(text)
            assert json.loads(text)["passed"] is report.passed
            assert len(json.loads(text)["failures"]) == len(report.failures)

    def test_hand_built_reports(self):
        reports = [
            VerifyReport(mode="exhaustive", total_vectors=0),
            VerifyReport(
                mode="random", total_vectors=3, boundary_vectors=1,
                requested_count=2, seed=0, algorithm="numpy-pcg64",
                failures=[
                    ({"A": -(1 << 70), "B": 3}, -(3 << 70), 0),
                    ({}, 1, 2),
                    ({"x%d": 1, 'q"\u00e9': -2, "z": 0}, -2, 5),
                ],
            ),
        ]
        for report in reports:
            text = report.to_json()
            assert text == _indented_dump(text)
        doc = json.loads(reports[1].to_json())
        assert doc["failures"][2]["inputs"] == {"x%d": 1, 'q"\u00e9': -2, "z": 0}
        assert doc["failures"][0]["expected"] == -(3 << 70)

    def test_blocks_join_to_the_report(self):
        report = verify_random(first_and_to_or(generate(SPEC16)), SPEC16, count=20000, seed=8)
        blocks = list(report.json_blocks())
        nfail = len(report.failures)
        # The head rides on the first block of rows; the tail is a block.
        assert len(blocks) == -(-nfail // _ROW_BLOCK) + 1
        assert "".join(blocks) == report.to_json()
        assert len(json.loads(report.to_json())["failures"]) == nfail
        for report in (VerifyReport(mode="exhaustive", total_vectors=0),
                       verify_exhaustive(baugh_wooley_multiplier(4), BW4_SPEC)):
            assert list(report.json_blocks()) == [report.to_json()]
            assert report.to_json().endswith('"failures": []\n}\n')


def _operands(circuit: Circuit) -> SimpleNamespace:
    """What verify reads of a spec, from the circuit's two input ports."""
    pa, pb = circuit.inputs
    return SimpleNamespace(width_a=pa.width, width_b=pb.width,
                           sign_a=pa.signedness, sign_b=pb.signedness)


def _narrowed(circuit: Circuit, width_a: int, width_b: int,
              out_width: int | None = None, out_sign: Signedness | None = None) -> Circuit:
    """An n x n multiplier behind operand ports of these widths (at most n).

    Each inner operand bit above a port's width repeats the port's top bit
    if it is signed and is 0 if not, so the product is unchanged.  The output
    port holds the product's low ``out_width`` bits (``width_a + width_b``
    by default, where the product always fits), extended the same way.
    """
    b = CircuitBuilder(f"{circuit.name}_{width_a}x{width_b}")
    nets = {}
    for port, width in zip(circuit.inputs, (width_a, width_b)):
        bits = b.add_input(port.name, width, port.signedness)
        top = bits[-1] if port.signedness is S else b.const0()
        nets.update(zip(port.bits, bits + [top] * (port.width - width)))
    for g in circuit.gates:
        nets[g.output] = b.add_gate(g.kind, [nets[i] for i in g.inputs])
    (po,) = circuit.outputs
    product = [nets[i] for i in po.bits]
    out_width = out_width or width_a + width_b
    top = product[-1] if po.signedness is S else b.const0()
    bits = (product + [top] * out_width)[:out_width]
    b.add_output(po.name, bits, po.signedness if out_sign is None else out_sign)
    return b.finalize()


def _cross_product_failures(circuit: Circuit) -> tuple[int, list]:
    """Vector count and failing rows of the A-major cross product built with
    numpy and run through ``evaluate_vector_array``."""
    pa, pb = circuit.inputs
    (po,) = circuit.outputs
    a, b = (np.arange(lo, hi + 1)
            for lo, hi in (value_range(p.width, p.signedness) for p in (pa, pb)))
    a, b = np.repeat(a, len(b)), np.tile(b, len(a))
    actual = evaluate_vector_array(circuit, {pa.name: a, pb.name: b})[po.name]
    expected = a * b
    return len(a), [
        ({pa.name: int(a[k]), pb.name: int(b[k])}, int(expected[k]), int(actual[k]))
        for k in np.flatnonzero(actual != expected)
    ]


class TestExhaustiveSweep:
    """The numpy-free sweep reports exactly the failures that
    ``evaluate_vector_array`` shows on the numpy-built cross product."""

    @staticmethod
    def _agrees(circuit: Circuit) -> bool:
        report = verify_exhaustive(circuit, _operands(circuit))
        count, rows = _cross_product_failures(circuit)
        assert report.total_vectors == count
        assert report.failures == rows
        assert report.passed is not rows
        return report.passed

    @pytest.mark.parametrize("width_a", range(1, 9))
    @pytest.mark.parametrize("sa, sb", SIGN_PAIRS)
    def test_every_width_pair(self, sa, sb, width_a):
        for width_b in range(1, 9):
            n = max(width_a, width_b)
            c = _narrowed(mixed_sign_multiplier(n, sa, sb), width_a, width_b)
            assert self._agrees(c)
            if n == 1 and sa is not sb:  # one NAND2, no AND2
                assert not self._agrees(flip_gate(c, partial_product_gates(c)[0]))
            else:
                assert not self._agrees(first_and_to_or(c))

    @pytest.mark.parametrize("out_width", [3, 5, 11, 64, 70, 130])
    @pytest.mark.parametrize("sa, sb", SIGN_PAIRS)
    def test_output_port_widths(self, sa, sb, out_width):
        # A port that cannot hold every product fails on those it cannot.
        inner = mixed_sign_multiplier(6, sa, sb)
        corners = [x * y for x in value_range(6, sa) for y in value_range(5, sb)]
        for out_sign in (S, U):
            c = _narrowed(inner, 6, 5, out_width, out_sign)
            lo, hi = value_range(out_width, out_sign)
            assert self._agrees(c) is (lo <= min(corners) and max(corners) <= hi)
            assert not self._agrees(first_and_to_or(c))
