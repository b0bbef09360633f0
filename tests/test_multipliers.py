import hashlib

import numpy as np
import pytest

from gatemul.emit import to_json, to_verilog
from gatemul.multipliers import (
    Architecture,
    Combiner,
    MAX_WIDTH,
    MultiplierSpec,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    generate,
    mixed_sign_multiplier,
)
from gatemul.netlist import GateKind, Signedness, validate
from gatemul.sim import evaluate, evaluate_vector_array, value_range
from gatemul.verify import verify_exhaustive

from oracles import bits_msb

S = Signedness.SIGNED
U = Signedness.UNSIGNED


def spec_for(circuit_arch, n, sa=S, sb=S, leaf=None, combiner=Combiner.CSA_TREE):
    return MultiplierSpec(
        width_a=n, width_b=n, sign_a=sa, sign_b=sb,
        architecture=circuit_arch, leaf_width=leaf, combiner=combiner,
    )


def assert_exact(circuit, spec):
    report = verify_exhaustive(circuit, spec)
    assert report.passed, report.failures[:5]


class TestBaughWooley:
    # Smallest widths first: they pinpoint any misplaced correction constant.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_exhaustive(self, n):
        assert_exact(baugh_wooley_multiplier(n), spec_for(Architecture.FLAT_BW, n))

    def test_worked_operands(self):
        c = baugh_wooley_multiplier(4)
        assert evaluate(c, {"A": 4, "B": -4})["P"] == -16
        # -16 in 8 bits is 11110000.
        from gatemul.sim import encode
        assert encode(-16, 8, S) == bits_msb("11110000")

    def test_most_negative_square(self):
        c = baugh_wooley_multiplier(4)
        assert evaluate(c, {"A": -8, "B": -8})["P"] == 64

    def test_output_port_shape(self):
        c = baugh_wooley_multiplier(6)
        (p,) = c.outputs
        assert p.width == 12
        assert p.signedness is S


class TestUnsignedArray:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exhaustive(self, n):
        assert_exact(
            mixed_sign_multiplier(n, U, U),
            spec_for(Architecture.FLAT_UNSIGNED_ARRAY, n, U, U),
        )

    def test_max_case(self):
        c = mixed_sign_multiplier(4, U, U)
        assert evaluate(c, {"A": 15, "B": 15})["P"] == 225

    def test_times_zero(self):
        c = mixed_sign_multiplier(4, U, U)
        for a in range(16):
            assert evaluate(c, {"A": a, "B": 0})["P"] == 0

    def test_partial_product_census(self):
        for n in (2, 3, 4, 5):
            c = mixed_sign_multiplier(n, U, U)
            input_nets = {net for p in c.inputs for net in p.bits}
            pp = [
                g for g in c.gates
                if g.kind is GateKind.AND2 and all(i in input_nets for i in g.inputs)
            ]
            assert len(pp) == n * n


class TestMixedSign:
    def test_signed_by_unsigned_example(self):
        c = mixed_sign_multiplier(4, S, U)
        assert evaluate(c, {"A": -8, "B": 15})["P"] == -120
        from gatemul.sim import encode
        assert encode(-120, 8, S) == bits_msb("10001000")

    def test_unsigned_by_signed_example(self):
        c = mixed_sign_multiplier(4, U, S)
        assert evaluate(c, {"A": 15, "B": 7})["P"] == 105

    @pytest.mark.parametrize("signs", [(S, U), (U, S)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive(self, n, signs):
        sa, sb = signs
        c = mixed_sign_multiplier(n, sa, sb)
        assert_exact(c, spec_for(Architecture.FLAT_UNSIGNED_ARRAY, n, sa, sb))

    def test_dispatches_to_flat_forms(self):
        assert mixed_sign_multiplier(4, S, S).name == "bw4"
        assert mixed_sign_multiplier(4, U, U).name == "array4uu"
        assert mixed_sign_multiplier(4, S, U).name == "array4su"


class TestBooth:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_exhaustive(self, n):
        assert_exact(
            booth_radix4_multiplier(n), spec_for(Architecture.BOOTH_RADIX4, n)
        )

    def test_extremes(self):
        c = booth_radix4_multiplier(8)
        assert evaluate(c, {"A": -128, "B": -128})["P"] == 16384
        assert evaluate(c, {"A": 0, "B": 77})["P"] == 0

    def test_row_count_is_half_width(self):
        # n/2 recoded rows, each contributing one inverted-MSB net.
        for n in (4, 6, 8):
            booth_radix4_multiplier(n)  # constructs without error

    @pytest.mark.parametrize("n", [3, 5, 2, 0])
    def test_rejects_bad_widths(self, n):
        with pytest.raises(ValueError):
            booth_radix4_multiplier(n)


class TestDecomposed:
    @pytest.mark.parametrize("combiner", [Combiner.CSA_TREE, Combiner.RIPPLE_CASCADE])
    def test_8x8_leaf4_exhaustive(self, combiner):
        spec = spec_for(Architecture.DECOMPOSED, 8, leaf=4, combiner=combiner)
        assert_exact(generate(spec), spec)

    def test_8x8_worked_example(self):
        spec = spec_for(Architecture.DECOMPOSED, 8, leaf=4)
        c = generate(spec)
        assert evaluate(c, {"A": 127, "B": -128})["P"] == -16256
        from gatemul.sim import encode
        assert encode(-16256, 16, S) == bits_msb("1100000010000000")

    @pytest.mark.parametrize("signs", [(U, U), (S, U), (U, S)])
    def test_mixed_top_level_exhaustive(self, signs):
        sa, sb = signs
        spec = spec_for(Architecture.DECOMPOSED, 8, sa, sb, leaf=4)
        assert_exact(generate(spec), spec)

    @pytest.mark.parametrize("leaf", [4, 8])
    def test_16x16_random(self, leaf):
        spec = spec_for(Architecture.DECOMPOSED, 16, leaf=leaf)
        c = generate(spec)
        rng = np.random.default_rng(123)
        a = rng.integers(-32768, 32767, size=20_000, dtype=np.int64, endpoint=True)
        b = rng.integers(-32768, 32767, size=20_000, dtype=np.int64, endpoint=True)
        out = evaluate_vector_array(c, {"A": a, "B": b})
        assert np.array_equal(out["P"], a * b)

    def test_spec_invariants(self):
        with pytest.raises(ValueError, match="leaf_width"):
            spec_for(Architecture.DECOMPOSED, 8)
        with pytest.raises(ValueError, match="divide"):
            spec_for(Architecture.DECOMPOSED, 8, leaf=3)
        with pytest.raises(ValueError, match="smaller"):
            spec_for(Architecture.DECOMPOSED, 8, leaf=8)
        with pytest.raises(ValueError, match="powers of two"):
            spec_for(Architecture.DECOMPOSED, 12, leaf=4)
        with pytest.raises(ValueError, match=">= 2"):
            spec_for(Architecture.DECOMPOSED, 8, leaf=1)


class TestSpecInvariants:
    def test_flat_bw_requires_signed(self):
        with pytest.raises(ValueError, match="Signed"):
            spec_for(Architecture.FLAT_BW, 8, U, U)

    def test_booth_requires_signed_even(self):
        with pytest.raises(ValueError, match="Signed"):
            spec_for(Architecture.BOOTH_RADIX4, 8, S, U)
        with pytest.raises(ValueError, match="even"):
            spec_for(Architecture.BOOTH_RADIX4, 7)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="width_a"):
            MultiplierSpec(8, 4, S, S, Architecture.FLAT_BW)

    def test_width_cap(self):
        for arch, leaf in [(Architecture.FLAT_BW, None), (Architecture.DECOMPOSED, 4)]:
            assert MultiplierSpec(256, 256, S, S, arch, leaf).width_a == MAX_WIDTH == 256
            for width_a, width_b in [(257, 257), (8, 257), (2**62, 2**62)]:
                with pytest.raises(ValueError, match=r"^widths must be <= 256$"):
                    MultiplierSpec(width_a, width_b, S, S, arch, leaf)

    def test_leaf_on_flat_rejected(self):
        with pytest.raises(ValueError, match="leaf_width"):
            MultiplierSpec(8, 8, S, S, Architecture.FLAT_BW, leaf_width=4)

    @pytest.mark.parametrize("width_a, width_b, leaf, field", [
        (8.0, 8.0, None, "width_a"),
        (8, 8.0, None, "width_b"),
        (np.int64(8), np.int64(8), None, "width_a"),
        (True, True, None, "width_a"),
        (8, 8, 4.0, "leaf_width"),
        (8, 8, np.int64(4), "leaf_width"),
    ])
    def test_non_int_fields_rejected_by_name(self, width_a, width_b, leaf, field):
        arch = Architecture.FLAT_BW if leaf is None else Architecture.DECOMPOSED
        with pytest.raises(ValueError, match=rf"^{field} must be an int, got "):
            MultiplierSpec(width_a, width_b, S, S, arch, leaf)


class TestCrossArchitecture:
    def test_all_signed_architectures_agree(self):
        n = 8
        circuits = [
            baugh_wooley_multiplier(n),
            booth_radix4_multiplier(n),
            generate(spec_for(Architecture.DECOMPOSED, n, leaf=4)),
            generate(
                spec_for(Architecture.DECOMPOSED, n, leaf=4, combiner=Combiner.RIPPLE_CASCADE)
            ),
        ]
        lo, hi = value_range(n, S)
        a = np.repeat(np.arange(lo, hi + 1, dtype=np.int64), hi - lo + 1)
        b = np.tile(np.arange(lo, hi + 1, dtype=np.int64), hi - lo + 1)
        results = [evaluate_vector_array(c, {"A": a, "B": b})["P"] for c in circuits]
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    def test_every_generator_output_is_valid_and_2n_wide(self):
        circuits = [
            baugh_wooley_multiplier(5),
            mixed_sign_multiplier(3, U, U),
            mixed_sign_multiplier(4, S, U),
            booth_radix4_multiplier(6),
            generate(spec_for(Architecture.DECOMPOSED, 8, leaf=4)),
        ]
        for c in circuits:
            assert validate(c) == []
            assert c.outputs[0].width == 2 * c.inputs[0].width

    def test_generation_is_deterministic(self):
        a = baugh_wooley_multiplier(6)
        b = baugh_wooley_multiplier(6)
        assert a == b


def test_generate_dispatch():
    assert generate(spec_for(Architecture.FLAT_BW, 4)).name == "bw4"
    assert generate(spec_for(Architecture.FLAT_UNSIGNED_ARRAY, 4, U, U)).name == "array4uu"
    assert generate(spec_for(Architecture.BOOTH_RADIX4, 4)).name == "booth4"
    assert generate(spec_for(Architecture.DECOMPOSED, 8, leaf=4)).name == "dec8_4_csa"


def test_one_bit_flat_arrays_are_exact():
    # Both flat architectures at width 1, every sign pair each accepts, under
    # both combiners: the complement rule needs no second bit.
    shapes = [(Architecture.FLAT_BW, S, S)]
    shapes += [(Architecture.FLAT_UNSIGNED_ARRAY, sa, sb) for sa in (S, U) for sb in (S, U)]
    for arch, sa, sb in shapes:
        for combiner in Combiner:
            spec = spec_for(arch, 1, sa, sb, combiner=combiner)
            assert_exact(generate(spec), spec)


def _digest_specs():
    """Every valid architecture x signedness x combiner x power-of-two leaf
    at widths 2-8 and 16."""
    for arch in Architecture:
        leaves = (2, 4, 8) if arch is Architecture.DECOMPOSED else (None,)
        for n in (2, 3, 4, 5, 6, 7, 8, 16):
            for sa in (S, U):
                for sb in (S, U):
                    for combiner in Combiner:
                        for leaf in leaves:
                            try:
                                yield MultiplierSpec(n, n, sa, sb, arch, leaf, combiner)
                            except ValueError:
                                pass


def _digest_key(spec):
    """Digest table key: "<architecture> <width> <sign_a><sign_b> <combiner>
    <leaf_width>"."""
    return (
        f"{spec.architecture.value} {spec.width_a} "
        f"{spec.sign_a.value[0]}{spec.sign_b.value[0]} "
        f"{spec.combiner.value} {spec.leaf_width}"
    )


def test_generator_bytes_are_pinned():
    """SHA-256 of ``to_json`` and ``to_verilog`` for every spec of
    :func:`_digest_specs`; any change to a generator's gate order, naming
    or constants shows up here."""
    actual = {}
    for spec in _digest_specs():
        c = generate(spec)
        actual[_digest_key(spec)] = (
            hashlib.sha256(to_json(c).encode()).hexdigest(),
            hashlib.sha256(to_verilog(c).encode()).hexdigest(),
        )
    assert actual == GENERATOR_DIGESTS



def _digest_specs_64():
    """The 64-bit netlists that ``compare`` and the benchmark build, and
    their siblings: bw, booth4 and the uu and su arrays, decomposed with
    leaf 4 and 32 in all four sign pairs (all CSA), and bw and booth4 with
    the ripple combiner."""
    yield spec_for(Architecture.FLAT_BW, 64)
    yield spec_for(Architecture.BOOTH_RADIX4, 64)
    yield spec_for(Architecture.FLAT_UNSIGNED_ARRAY, 64, U, U)
    yield spec_for(Architecture.FLAT_UNSIGNED_ARRAY, 64, S, U)
    for leaf in (4, 32):
        for sa in (S, U):
            for sb in (S, U):
                yield spec_for(Architecture.DECOMPOSED, 64, sa, sb, leaf)
    yield spec_for(Architecture.FLAT_BW, 64, combiner=Combiner.RIPPLE_CASCADE)
    yield spec_for(Architecture.BOOTH_RADIX4, 64, combiner=Combiner.RIPPLE_CASCADE)


def test_64_bit_generator_bytes_are_pinned():
    """As :func:`test_generator_bytes_are_pinned`, for :func:`_digest_specs_64`."""
    actual = {}
    for spec in _digest_specs_64():
        c = generate(spec)
        actual[_digest_key(spec)] = (
            hashlib.sha256(to_json(c).encode()).hexdigest(),
            hashlib.sha256(to_verilog(c).encode()).hexdigest(),
        )
    assert actual == GENERATOR_DIGESTS_64


# (to_json, to_verilog) SHA-256 digests, keyed by
# "<architecture> <width> <sign_a><sign_b> <combiner> <leaf_width>".
GENERATOR_DIGESTS = {
    'FlatBW 2 ss CsaTree None': ('7dee63e7e45b0bbc6137d509423cf56f3d4a783e2773a1e06fc6193b08a50bcc', '0ecf1b69eb9a0532fcb48c1fef7963ef4cdfe2b0db4937fd8a166d4ea4abba4c'),
    'FlatBW 2 ss RippleCascade None': ('0755566ec534739ba518187cdd23a8dcb1843009dc297747e26a498cb9d6bb10', 'baa3416bf0f000efd61a73d3fc2ddacbd754036fec31d6abc202a8e854cf3959'),
    'FlatBW 3 ss CsaTree None': ('53ef9bb050aa9a7d34809eb6ff43043040ca3f67e5dca1d704abb161849c0b97', '49ac34e03ca3c683dfe38d2f117cb05d2abbfe17a1e7cdb3642af1316a736c13'),
    'FlatBW 3 ss RippleCascade None': ('39fb3f955d31e175bd0496209a3623cc09d3f507fac8f87482895ebae0825c6a', '789a831130cefc17797daef56a55cb790e6b98df2a8ca88f111d27b9ba12b431'),
    'FlatBW 4 ss CsaTree None': ('a610ad4b2827e1e78249e7032f58f1d42e3fe123f13b5d20420a234d7f9c477f', '69e9958208cda977b3953dedc9e25035a0e4d06691eb41ad786580b0436f08d0'),
    'FlatBW 4 ss RippleCascade None': ('845d8e1e0ad1666aacfda4710c5ef5bfc109cb622d07b5185576a1d10cec45ce', 'c11ca84f06e3eb9a09d99e71e2138020c2015321f348f741f3b439d770dc4994'),
    'FlatBW 5 ss CsaTree None': ('25cbc7f90a95f343134122baae758db73c57e88ebf11136e48a7b79b7a021265', '0219c77d32c3a3a3a9818360138e797677f3c4fb245fcab929e9dd9bab2ab915'),
    'FlatBW 5 ss RippleCascade None': ('e8f7647b448127e867f6254effa21cd1c59ec8f19ee9f0433ca1c67e294df459', 'ce939ca0518bbfac672b66c215f02f7ee653801a0fecbafd7e9b638bfdacf261'),
    'FlatBW 6 ss CsaTree None': ('c2a513d99ef22f032d270c01cb55e343a31b8a73803ff75e91bf3946ddd86944', 'f6da86a70d84af9e451957d3d94e79217abbfb2854a16183d74d0c431695a58d'),
    'FlatBW 6 ss RippleCascade None': ('c81b70782bd43486555642a21ca35b10ccc098f85a488171a8bcf49728da8958', '99989a1e2d8d478e2e2880748cad4bb1e87eb8d5078559bec9ca36be225dbae6'),
    'FlatBW 7 ss CsaTree None': ('4ad9e40a1e96293771bb7808e52c4c1e038cb4ba77c7b2993392bac4b1b3e399', '8051f93041103f3f3cf7cad1f218f9cf99cc49854712a1e876b0df4611bd71f3'),
    'FlatBW 7 ss RippleCascade None': ('b7affb051bc6e0c61ac9cc5b4b06c60fc97e9751e3faa55d04067dfbac83f733', '67b6b8f6b9fa40671f5ea62bb05961b1ff0287c169dcd987cbd65a90cac47671'),
    'FlatBW 8 ss CsaTree None': ('e6f21c51d660feeda7a8fed537e496601b1a321e8f6cfbfd3ecdf9eede36d804', '52e8e8299290b070d030801b7a298ca47893ad0bcc6be277a29b33153f1f8e4b'),
    'FlatBW 8 ss RippleCascade None': ('bc795f7778ceed35c09b155580cf2024b5e80a44278bc2bf3063a6c0f1bbcd7c', '199710fe80db1459bab6eb9b8155f5b6db4bb9a9d0aea7f16d964805f27a9825'),
    'FlatBW 16 ss CsaTree None': ('c37e8d0d06d78dd053766228b27ded564078aa32fa2bce8cac359cb3a54c8bc2', '92e92c7eeb8e73f48567455c0c777b3d6497163e8f5f0a8c7e37f36dbf672979'),
    'FlatBW 16 ss RippleCascade None': ('73065f61f89b17b2dc5f2e723edf93c0dd2ae074448af6684e8b13d9254b828f', 'feb4f5d461fb1e036c9818634bf478565c0c8a37357f0dd3d825dbb8e45f6b3f'),
    'FlatUnsignedArray 2 ss CsaTree None': ('7dee63e7e45b0bbc6137d509423cf56f3d4a783e2773a1e06fc6193b08a50bcc', '0ecf1b69eb9a0532fcb48c1fef7963ef4cdfe2b0db4937fd8a166d4ea4abba4c'),
    'FlatUnsignedArray 2 ss RippleCascade None': ('0755566ec534739ba518187cdd23a8dcb1843009dc297747e26a498cb9d6bb10', 'baa3416bf0f000efd61a73d3fc2ddacbd754036fec31d6abc202a8e854cf3959'),
    'FlatUnsignedArray 2 su CsaTree None': ('2ad6ff7df9d8062168656e702e775ca7475b0f6b491e710738b400de9a362950', '733631171965a22a76e5eccc276ba8a27aea79dda49e38e253262b78a9696484'),
    'FlatUnsignedArray 2 su RippleCascade None': ('37ab50bc8c27890b3afb702a614331c42ae514722988049da6280b94ed4e0f91', 'd89f00fafc65296bc832adccb4adcf8f31f0ce43c6fb70cf3be1c90045cb0977'),
    'FlatUnsignedArray 2 us CsaTree None': ('6b456907b88e214b5462e10e8237ee37069e892bb132b35f09266860dc1b0913', 'ed3ceed2c76daeab6688ba3f04ecff8bd2d4dc7117066a7562c8f59a27434179'),
    'FlatUnsignedArray 2 us RippleCascade None': ('471d2acf34c99e00969c20634dbf38d8bd9beecdf93251c50129c887490c186b', '0b89d2f07680a768d807c7039d4b426628aa859307d8057761ea6d71d26e371e'),
    'FlatUnsignedArray 2 uu CsaTree None': ('aacc88018919cba291dbfcfc24214b98671a12b4df407136c6fbc61f117b879e', 'db90db0e417bd9576126207de663ad27fc3e14b420902d27fe59225b01c1cb01'),
    'FlatUnsignedArray 2 uu RippleCascade None': ('aacc88018919cba291dbfcfc24214b98671a12b4df407136c6fbc61f117b879e', 'db90db0e417bd9576126207de663ad27fc3e14b420902d27fe59225b01c1cb01'),
    'FlatUnsignedArray 3 ss CsaTree None': ('53ef9bb050aa9a7d34809eb6ff43043040ca3f67e5dca1d704abb161849c0b97', '49ac34e03ca3c683dfe38d2f117cb05d2abbfe17a1e7cdb3642af1316a736c13'),
    'FlatUnsignedArray 3 ss RippleCascade None': ('39fb3f955d31e175bd0496209a3623cc09d3f507fac8f87482895ebae0825c6a', '789a831130cefc17797daef56a55cb790e6b98df2a8ca88f111d27b9ba12b431'),
    'FlatUnsignedArray 3 su CsaTree None': ('86e12355b4ae5283721b6b7b9ddfa1408e89783e1699fb103fb1195617e536c7', 'bf65db2aa1d7727615fb82f97c5750354c429529ad4ea4a8be1aa8e4ecb0ccba'),
    'FlatUnsignedArray 3 su RippleCascade None': ('dbadf5b5e55a8d9de77ab47fed6257acd515ca87a28d176eee40c6cfb43117d4', 'f08a66ffab4528efc4a568b45ad8229d97e8331574f341c40acf4a186e32287f'),
    'FlatUnsignedArray 3 us CsaTree None': ('f6c2f1d7b19f4d26c3ad2664cbd565abb70e7d062edaa31f3de4a03c8cfd2c14', '7fc2f47ab5d5675f7366d57f9495ee6925653b979f0605ba5091ee8e4029baf1'),
    'FlatUnsignedArray 3 us RippleCascade None': ('3e74cad2a69916fa0caca289a2c266a35168fbaca14a943fe016dd3647574aaa', '58f70b557d9e4a01c61068b82f393d91afce2b957325f318f2b69fcd6cfbc4f8'),
    'FlatUnsignedArray 3 uu CsaTree None': ('167a272c5d65abda6526060763a1a95712353730955106b58eb2d7667bb7392a', '2c61743bdb6beb13d968ae8d2555a7ccab7e9db059494aa42c76a7ab0ba85def'),
    'FlatUnsignedArray 3 uu RippleCascade None': ('0742a34402522cbb68601d4f35e1685a57f0d09244d5a4f0aaf241e298295258', '21689916766f7d60213017bab429acf7f737615a5bc2d6b1ee20d9b5e332bc7f'),
    'FlatUnsignedArray 4 ss CsaTree None': ('a610ad4b2827e1e78249e7032f58f1d42e3fe123f13b5d20420a234d7f9c477f', '69e9958208cda977b3953dedc9e25035a0e4d06691eb41ad786580b0436f08d0'),
    'FlatUnsignedArray 4 ss RippleCascade None': ('845d8e1e0ad1666aacfda4710c5ef5bfc109cb622d07b5185576a1d10cec45ce', 'c11ca84f06e3eb9a09d99e71e2138020c2015321f348f741f3b439d770dc4994'),
    'FlatUnsignedArray 4 su CsaTree None': ('c8d922cd0944d7a21c092ed36da5519ff04bb1a9e0ff4f6408a4b37c015897f0', '28e059588cff2906c5822377ccbd0d1609718a382eb414b903a4aa60acb55b3f'),
    'FlatUnsignedArray 4 su RippleCascade None': ('89d18e6ab49192bde82d74ff6086fbda4cfefba5865b8e61bb7bc3e65b0aabb6', 'ddce94682ab691eb0aae8e6ecca284510791be3fbe1ea1b4cd60c696de12b06b'),
    'FlatUnsignedArray 4 us CsaTree None': ('61c4135b45b510c41a499d5c711c380d9a61d8273db2c0dc9913a28fc1fb4ef9', 'c93dd13c7abecaf516bf7db0766d7c031ffec48d8aee8f07a676ae94deab3543'),
    'FlatUnsignedArray 4 us RippleCascade None': ('36d41bd380e908d4e8645beba02b6ec343f6823aaf430db87b0f846c40a5ca81', 'fb9c07ef17f5a8f2f550cdbcd1abe5d893555a5fee5e0b992c002feab19aff74'),
    'FlatUnsignedArray 4 uu CsaTree None': ('ad8a614b6ea2a0c7e520cce6335fd2f4d90588e01c20a189b325a5419295ee54', '92a211409642463634f3002439cd63681d29f8ce92b34a5996bb0cf93ce1e10e'),
    'FlatUnsignedArray 4 uu RippleCascade None': ('a0b51c0aa22fdc495db62e88d324f8e202957e4dfaa170582457706ab4acf48b', 'af62f93e0207c3950e4c1f83914b14fe09c5f2a36703fef67a55dcbbf5991d75'),
    'FlatUnsignedArray 5 ss CsaTree None': ('25cbc7f90a95f343134122baae758db73c57e88ebf11136e48a7b79b7a021265', '0219c77d32c3a3a3a9818360138e797677f3c4fb245fcab929e9dd9bab2ab915'),
    'FlatUnsignedArray 5 ss RippleCascade None': ('e8f7647b448127e867f6254effa21cd1c59ec8f19ee9f0433ca1c67e294df459', 'ce939ca0518bbfac672b66c215f02f7ee653801a0fecbafd7e9b638bfdacf261'),
    'FlatUnsignedArray 5 su CsaTree None': ('eaf9386de621cde189e9193bd673684687631b1ba98c1321737b8b9e0adf66be', '18c712f1bdb9801a29abfc0681a7e7c1b3e448f5607a22281c35e89b9e533ee9'),
    'FlatUnsignedArray 5 su RippleCascade None': ('875003a0f54045d5c7e42e25ea5a618767ebbccf814b81b0318a8897c0126f40', '35dbaa61b2def2101a06636d3da2d02a39e9ac8d6c3c171b826400297d48b78c'),
    'FlatUnsignedArray 5 us CsaTree None': ('393951dc1eac8754a67d7b926b65b7d484b5d1855bcf2da7d4ec6018606bafda', '35be28a63a7578cdf92cd1b1496bfe32dd2557780da981c2bd7126fb75270c66'),
    'FlatUnsignedArray 5 us RippleCascade None': ('ece0b1fe55057ef4aebfe53f5e6a11f7f7a8d70085e9bb6ec1dd3906156dc2c9', 'a43c78e95092b0c8baa402a9cd83deb453ba76f1e766d2eeb8e2caf01f2b5ae8'),
    'FlatUnsignedArray 5 uu CsaTree None': ('b3755b7b5500b6c71539009d75e750e7a54e9cf32e42e8b0fb3ffe14600851af', '75ae97f76daee8d0cbeb6360a98983f606961c9d9f382bb86789cd99d280a97c'),
    'FlatUnsignedArray 5 uu RippleCascade None': ('87b0820cf3dafb91c1d2c08329985b4dfdbaca6c1aa5f9fa0a599fa4f7f1a7d0', '5fa9705c61161db5472254b7dadbddd5980d8abbc66c03d3529cad2af53b5a56'),
    'FlatUnsignedArray 6 ss CsaTree None': ('c2a513d99ef22f032d270c01cb55e343a31b8a73803ff75e91bf3946ddd86944', 'f6da86a70d84af9e451957d3d94e79217abbfb2854a16183d74d0c431695a58d'),
    'FlatUnsignedArray 6 ss RippleCascade None': ('c81b70782bd43486555642a21ca35b10ccc098f85a488171a8bcf49728da8958', '99989a1e2d8d478e2e2880748cad4bb1e87eb8d5078559bec9ca36be225dbae6'),
    'FlatUnsignedArray 6 su CsaTree None': ('b716d9546aee13db96e10a79cd11d7a3c63d53d703b1f829b12d25f1023bedcd', 'bd760b24218ce55f1f29a580f0ad806ecebf813555f0ed740456b25786a7d723'),
    'FlatUnsignedArray 6 su RippleCascade None': ('012844555a2fc5337d9a0e8b91877b432006625895740b96bb0a7e2ec569eb9c', 'a0087017c56d84ab548ed99017081e9febbe8a1abd03b80cc30c8b5e7e7e1884'),
    'FlatUnsignedArray 6 us CsaTree None': ('57b302fe79de59fdc63de6d527fff579f6809397b2e045a75f281f19d31fefcc', '6d03d5addbc4ea7e7190fb50c643547d3221169dcd2deb7ab0e0d1da5b1fa062'),
    'FlatUnsignedArray 6 us RippleCascade None': ('8c4d7183266ad0533008df0f444d411a42ea429e59162d507f4efe98af75f468', '51b2adeb91b6ef8d31f09766adcbffdd3dde810a81f4b12da9a45cbed47ea684'),
    'FlatUnsignedArray 6 uu CsaTree None': ('239f33526affe45978789cedb3a045c3c5616bd573a7df932379cc8f4e87b676', '028b0f08138b2f20c5a5a1479c1846695d2041d9866121ae8379938f826c20d9'),
    'FlatUnsignedArray 6 uu RippleCascade None': ('a35a7b74d1838a68187819c74d80ad7ead041cdc50e413fdbe4cc08fb720b3ca', '968a0ffafaccacff60d35e6d84357a60ea6e0799f9b615c9a350fe6453a9ceeb'),
    'FlatUnsignedArray 7 ss CsaTree None': ('4ad9e40a1e96293771bb7808e52c4c1e038cb4ba77c7b2993392bac4b1b3e399', '8051f93041103f3f3cf7cad1f218f9cf99cc49854712a1e876b0df4611bd71f3'),
    'FlatUnsignedArray 7 ss RippleCascade None': ('b7affb051bc6e0c61ac9cc5b4b06c60fc97e9751e3faa55d04067dfbac83f733', '67b6b8f6b9fa40671f5ea62bb05961b1ff0287c169dcd987cbd65a90cac47671'),
    'FlatUnsignedArray 7 su CsaTree None': ('3b9f6e37604b9d4715b2dd73bea394cc6be8135fd84b1d9d61e8b32085751555', 'dc49eadde36822b02a1717d9778ad4de9c9ed8e107911074bcea17a94a750213'),
    'FlatUnsignedArray 7 su RippleCascade None': ('f2336911c24b77e64522517b3a7ab1152302329f415123d07bd083fdb27eae65', 'a9c721172d9b21bf58b51b579640e9d4f71c2a0ad82255e5779f5713178985ac'),
    'FlatUnsignedArray 7 us CsaTree None': ('059268998d4964b31fe5a68e304d7e8938f703bf45753dc89e5ce7915ff29838', 'f13bcb54b3b7210b59159dafcef1761be07cb842f1390f2b08caed2186919209'),
    'FlatUnsignedArray 7 us RippleCascade None': ('8dae4f7bf40d8b0ac6d2adc045af43a386895fa15c03b8282536eed77be3b85c', '1e29d7bea5f767ecffa39aa6d26e4d9addf2c4e107cbe39dd40d35f88ecf438d'),
    'FlatUnsignedArray 7 uu CsaTree None': ('a27f24b8cc3de2b61159f0e58a61a8466fe87a5a5e5ff9e2bf7ae40e90c7776d', '2a9b50d6c54c378e6c017390885d8f1bb4ac0f60b92a4476ef8de6a6c343470c'),
    'FlatUnsignedArray 7 uu RippleCascade None': ('2d10b3e03273859fc01c4ea66a99227518cccc30b629854d48d03210c9dd4022', '46b16febff50338daa9e69a959c80e07a89bc8fdd5f54ecc61cd2550969381c3'),
    'FlatUnsignedArray 8 ss CsaTree None': ('e6f21c51d660feeda7a8fed537e496601b1a321e8f6cfbfd3ecdf9eede36d804', '52e8e8299290b070d030801b7a298ca47893ad0bcc6be277a29b33153f1f8e4b'),
    'FlatUnsignedArray 8 ss RippleCascade None': ('bc795f7778ceed35c09b155580cf2024b5e80a44278bc2bf3063a6c0f1bbcd7c', '199710fe80db1459bab6eb9b8155f5b6db4bb9a9d0aea7f16d964805f27a9825'),
    'FlatUnsignedArray 8 su CsaTree None': ('3174276530bf88a91d9ff66da690cdf2bbb2e7de93b4dada32de4beff5e35610', 'dd06f35368824b79d54b5656f3e9af46a5fcbaa6ccdd475555b75f0d09d2e97b'),
    'FlatUnsignedArray 8 su RippleCascade None': ('042c003582cf001bff6f5b0442a719aac3510943a3d52042881116af1e18c705', '0584adee084349512a88371d0bbd87e0aca1c54afe928c79d4423d3da2e4297d'),
    'FlatUnsignedArray 8 us CsaTree None': ('a060203c2f063897e4c5e3726c75ce1f55acd963245d2a743a2121b687a7a599', 'dcc81477d9b7a7d9afc9f991cc53c337ec27a57005268b1ecc98b19f4e864018'),
    'FlatUnsignedArray 8 us RippleCascade None': ('6bc1e94985459ce83593c26ce779fff7dcdc0e11ca6b06d6299267f73aeabe6e', 'ee461411ce0339e2ccd6c391b8ff5c00112a9e924f19702fd451b47fb3fb96e4'),
    'FlatUnsignedArray 8 uu CsaTree None': ('c56db70b676717862a3a0f0e73c19d28bf5629d9d66467e5fc6889c0393776e5', '6741f8c8bab00afebb418461ba0d546be569c7c6b349f492a8c12ef1225471f5'),
    'FlatUnsignedArray 8 uu RippleCascade None': ('ff3368a0d527d7ae5ad584c08686341065bd2b687e3056e796c5b98ee65a1c25', '8ed440d501f9f4cd8bf2d1a4f6a5865a614d0f77f4d0b368731be1b635e23d80'),
    'FlatUnsignedArray 16 ss CsaTree None': ('c37e8d0d06d78dd053766228b27ded564078aa32fa2bce8cac359cb3a54c8bc2', '92e92c7eeb8e73f48567455c0c777b3d6497163e8f5f0a8c7e37f36dbf672979'),
    'FlatUnsignedArray 16 ss RippleCascade None': ('73065f61f89b17b2dc5f2e723edf93c0dd2ae074448af6684e8b13d9254b828f', 'feb4f5d461fb1e036c9818634bf478565c0c8a37357f0dd3d825dbb8e45f6b3f'),
    'FlatUnsignedArray 16 su CsaTree None': ('cba1099bbefc1e7c56bd23a542c33df7ecee36a2064a1046a6d11eb732f2d5f1', '4c79aebd21a27e45bc78465c0bceac38ff9f5bc7b2f5f2088ac50c40dabed2eb'),
    'FlatUnsignedArray 16 su RippleCascade None': ('1f0411b71e075fcce122f0dd326087b7b516e886f5f986e356b9cd526e6b8212', '07846b9bacb298b0c03d27c16d27bad5df699a796943c35a941c86ae16ff4219'),
    'FlatUnsignedArray 16 us CsaTree None': ('e8c6d1c3e4e8d584b4378b558053cae9a9548d094cdb88b97e065f8f67af63ab', '40bec4fc8fbacaba940aa244ac712a4628e7fa76b02127c01006cef3c3fbd787'),
    'FlatUnsignedArray 16 us RippleCascade None': ('9cd9f0855010799320dbec13b888bb78a01e1eb935087b2ab91ae1f12950c435', '29ca3c8c5531747d4192e23a1244563693caaa29381c84e3c7e3ce2dadd596cb'),
    'FlatUnsignedArray 16 uu CsaTree None': ('69afaf302f35a299f97aff69ee57f42efc2000d7edd136ff5894695c6e07e60d', 'ca72ef99cb7be98e192bf34c283a4b8d71d911adc67ec1c1d89f4d241c845e44'),
    'FlatUnsignedArray 16 uu RippleCascade None': ('01c511122a86c6cb035d12f9477595429aac64baf6ab68fa9bbea2f306fa59eb', '72dea488737f70c860e3c37c63ebbd7dd8850b97b0cdd921773ff031bcdff05a'),
    'BoothRadix4 4 ss CsaTree None': ('9cfa2f2ae117a880b176ce6735860beb9c3f6d79e656704dd9a423c989f65db4', '23141d70dbdc66dc7b1aa918a60d10997f4d6ecd07668032dedf0939f62f40e2'),
    'BoothRadix4 4 ss RippleCascade None': ('1ed0911ecae8915e5123cb5a4fea4965c852f0f596c6ae5391f32349779753e3', '832eecd4d9a07975c31aa60b988b923900caf0767bb8c26090ae8b440e117ec8'),
    'BoothRadix4 6 ss CsaTree None': ('3a93999e333869d4694f97b22acd1187c598b1d7b733b4775a8cd18e203a31e2', 'b9499ac0d194ed69adbfc30e153db01efdcd7db33124e86c2fe54b2b57798eca'),
    'BoothRadix4 6 ss RippleCascade None': ('57a4606320e418e668ec6c8dff623befbe4b6989df2a4d5085185cd4a58caa2b', 'cbbcfccdad31d24a234abe511d239190dff60376cf3cddacf462dee789d6a3f9'),
    'BoothRadix4 8 ss CsaTree None': ('58dbfb67c58c188734fdc86a0952b88496dcacbeb1a0d401b6ddc1f3661abe2c', 'd6be31c5927b785ce62a87aa4827cd54b16b8b6246dd1190749363a5c112d4c0'),
    'BoothRadix4 8 ss RippleCascade None': ('735b11b572bcd2147eefabb7dcc94dc6fc104f58883a4cd20711fe21c36d4d1f', '1b26b6f279228d96b371ae53bd6b27585a06aa008bd1ca3d473f6ec2cf9684fd'),
    'BoothRadix4 16 ss CsaTree None': ('1c0aba57c87ea841322bd72a80dc24975b4f9012cece877bcd9e1db1b9f1af54', 'f9d00eb4de54ee81be171f4ee4c7900067a19f0872c6d74498d87fcee34271ea'),
    'BoothRadix4 16 ss RippleCascade None': ('426bce79baf3ac39bcbee531924a810e8c18fe31e289122c067d56bc1ea4be7e', '6ed2f225ebf0e03734750881e6786118c31f6d9f49574a64670518c4a2dc9997'),
    'Decomposed 4 ss CsaTree 2': ('5a753bef53e62006642f2f4adffa758b3714cf120b9af33c8bdfbd71383a0efc', '0428a7fcb633b5b976deeb03b6b7a27fc5f161d2096b49ffc363482ed7304771'),
    'Decomposed 4 ss RippleCascade 2': ('a44ead27de2838d7aa5b6e27c5b344586088d9c1ee2a957569deacb47a7f8f61', '0d3c09ae6c8a51b135ed1b3a0b374feffe975c2757b530a1df278fb5bdf29901'),
    'Decomposed 4 su CsaTree 2': ('38f6417f1b6a50b744722978f9c14d9033a5642222f24a462d51a86c4da506c6', '98ac3ab5f6d2a543a98e82a724b9793f512d6d7b84066b9a39585680dc751580'),
    'Decomposed 4 su RippleCascade 2': ('01819eea8311329c96412a8c51be8c580fd721f63f770e6df9597de9bf86d88d', '984534407f6ae5c82121e15d99313971d0c7ea2afd193c206bd52b7841998ccd'),
    'Decomposed 4 us CsaTree 2': ('ee06c0ba1c6b4ff4d3c8c157190b64f6c363e7a0d0958ea470c8c9ee0b021729', 'c71012c53691e77a87680852132d4ed2f1194ba37fd1d3d73319d3bd2c59589d'),
    'Decomposed 4 us RippleCascade 2': ('b46e1b6e6ac70194fc34e7bba04d85a8ac928bcdc5106674a4dc0253d03071dc', 'f7ab25c758b93c4d6e3c6b2e6524c641ffe9621191d624c2c0a512bc5abbe09d'),
    'Decomposed 4 uu CsaTree 2': ('e41f6421bbc4ed5c79b40790f791bc7eed6ad48a0558683dbd6fbcabf13d6fe8', 'c082a4bd7e0714cbe303a8d07e1a98d62d84cc46e8de580a40c76e24cf97b0cc'),
    'Decomposed 4 uu RippleCascade 2': ('fd49c45aea373d8ed90d688c66365b3c67b2ee73dd78603cc2b55302c6101575', '726b2fc0c0540c04d89c6d1c4058a16668b7d6efaf26f0347112325dbfbe7822'),
    'Decomposed 8 ss CsaTree 2': ('d20802c3595d06fbc16d4eb25ff688eda159c6c0670f377f7d363bc589fa18d8', '95715b658f96b2c7cad8c499281d889d800e55a478739c5544909fc9289a7496'),
    'Decomposed 8 ss CsaTree 4': ('563b14f6f8fe95cef688b7bd5a99465e16029ffe82f0f1ceee8daa52fc98ef2c', '96d924ca39e9c22285c5d2995072b7dc0fa1eda835787c4cc37d504749de3f12'),
    'Decomposed 8 ss RippleCascade 2': ('5037018a11419de30b84791a98cd809928e20cbf84bd2b5d3fee94385682f436', 'd800bb9277eccf6ffea43f4267074435f09fffb8dd261b3fe01c0ef11c2422ff'),
    'Decomposed 8 ss RippleCascade 4': ('833bfce23025db86d3cda815f2f77b55b5cb77d3765222641689dc8950a924d4', '59969dc750e8d8f375b1a14c631efbef687221abe6949df5c5e77d9325c916f2'),
    'Decomposed 8 su CsaTree 2': ('31e7c390d669f22a30456b39aab5be3cb5755ca7f35cb7980970bbdd7fea714b', '8fdee62e1756eb5b66a1bec0a675bc88d01cc1b4a5d2038cd9011983600af3e0'),
    'Decomposed 8 su CsaTree 4': ('c68a4c7d42f42187d3d427057cfccba35b0a3a4d3333e8b15fd101e106e5f585', '4055cede3eed0276f878070c4700e236080324d5bd15536d3563a3c1b9ce0b3b'),
    'Decomposed 8 su RippleCascade 2': ('418e80bb5a177ea5384c8f713ed0663835915a86e08cb1f7f5ca8dcfdb12c502', '44e1caccc45f583381a6764bfa0b0f37253a5dc389eef92e817ad9d214774e3f'),
    'Decomposed 8 su RippleCascade 4': ('b5e7fab007d089b006790eaa609aea7ec93bd94ea7c1014fb901317f444bccf1', 'da7c3054b66ba815b6bf5ec45e545dfdcd2999a2bdd8335f77135898e9d7d0c5'),
    'Decomposed 8 us CsaTree 2': ('7d562c3a4d3cb819cb6c937ec2cca2367080168bd24752af008cc2352f06f794', '0d5ffb3d1bdc3d5699a4888bc4dadb7dafa5f57503b41593831f59446e5df43e'),
    'Decomposed 8 us CsaTree 4': ('1e467c9d99aab6d6b68588ebeba6d36d7dfe246eb948487c2afa41fadf87906d', '4d80ef1ebe3c17782fb5b60b1df4534f23f4df2721b0275d8aaaee8f3e9e5c2a'),
    'Decomposed 8 us RippleCascade 2': ('12273dbab734a0e8ef8ce4729bdda12928fefc6243b53636dc5dd18ebbc73985', '4f556cdb45a11628988eeb03148c38fcf12bf183553015f19fe26bfb65d52660'),
    'Decomposed 8 us RippleCascade 4': ('b2f282ffdb114b05692447f403f4bf8b95d3c0aca536e857538315c915a621f2', '7bf20fe9e0722342d2b27e44ba9a8b2ee3c8fdd36d4f2c3f3ace8f93755ba2b2'),
    'Decomposed 8 uu CsaTree 2': ('cf223721d9e446a2ce0e5f8221a8318591022cb9ba86861beb7307b39eb2c4a8', 'a91a750d438f0b978d4a92a0764964d9c20c82bf552180c4daed5ef582648748'),
    'Decomposed 8 uu CsaTree 4': ('cda9fe219784409a3159420defa26c17cca92c2ee3ed957169c59963e8a3f722', '4248e604bc837f73cf575542914178526209e70e66844530ddbc5991c91d4972'),
    'Decomposed 8 uu RippleCascade 2': ('289d61eec5e8f4c62f26bfe7949aa8df4be2f70e692313cf746923da628a0593', '2650d713ad4b8d047ba39ed264441add2cffe1d746e7713fe5fb8170eb74ab44'),
    'Decomposed 8 uu RippleCascade 4': ('930bd74779b803f68b4285753cdb317ba55c569e6f71095ee2979617fe57ddda', 'eaf24b542e249a48ad9579cd72ac9c225b93bb0df51ff56d9a00c3d24eec4192'),
    'Decomposed 16 ss CsaTree 2': ('e9edef2afb5ea6cb3e1a608a8d8bd4dfcd3bf94b6100acf4ce2911e5715248a8', '08dd51194bd2c8ffab7c38084ffad68e5ec1eff1c871e3693066c2736e633752'),
    'Decomposed 16 ss CsaTree 4': ('b7f42420386851de9e255a980bc90380e0806be84d96c69a1ec4fae95dcb203a', 'c644eb92736456bc1e3c0f2e81d28890d7fee7cd9a47054e3bb258cd75f47cc4'),
    'Decomposed 16 ss CsaTree 8': ('24b913b34a403abcecdabd06fc165a6737d394f6350de3d55cec02d6581c9b88', '0d63c13ac37b09e2ca4f500effe829e180217b2e90d3e067d149eb975e3d7caf'),
    'Decomposed 16 ss RippleCascade 2': ('f55755c77c2e9cce709fe67a9ce09423fc703bbbcc4a31b8a9803e089cc0708d', '5a9c8c9957d29647ec4bd5ea3946e88bfcadd85efc3df68715fb18977bb4732a'),
    'Decomposed 16 ss RippleCascade 4': ('02d06fc667b3a86153c7cc317090c9f5b60297d51566e703c9afdfe782f257b6', '3d32ca7b8dee485869f8015478716edd600ae10c91f6c81154ec8724244e04bb'),
    'Decomposed 16 ss RippleCascade 8': ('a21cd2448fd326483fe13a82d1e342269cdd8b0bff25a69c6ddbfdb93649240c', 'd963f11e177241850fe2acf3d0b04dc2c2af4ae87484918356495b2d5854b5b7'),
    'Decomposed 16 su CsaTree 2': ('443b2140d4efe8c1abf80dcea9befebcc37a6afc8dae239ea7f9e6becbefb0d8', '1d7ea22e170f07bb8d98d8d61ca7e5f2aecce9492bf396b38dcd3e89e6a290b0'),
    'Decomposed 16 su CsaTree 4': ('50230dade9c99d23124abbd8217ad63819d01b5943a618ccc403081afb64951b', '49360f09d3edcafb06dec154b0ba69f897fb7ef5fbd79583af1f5a7fcb43da88'),
    'Decomposed 16 su CsaTree 8': ('17a02c7af79caacfdc2789cb44d9370388b22e07bff02e1c344679482efc9d34', 'c56a830eec763c667958bece46c61ba7e5a6607957168eebd04d19f0266ce756'),
    'Decomposed 16 su RippleCascade 2': ('d6ec6e8e0a78b6f93efb245bad80c463b8c0695c9e4d88e4ac91e819a3dfba83', '01baf1b7f733042ace459cfd53ae6d23a343d3f80ca018c1b7a28b1657090ff6'),
    'Decomposed 16 su RippleCascade 4': ('2cbcea24e84e207b81a4a23288f913b2ba2729ce6de1b59fdd484adcc4c23b65', '7dd2c0f96962498d6e40476a5be4a148242d010222986667a1d312b2d8392e47'),
    'Decomposed 16 su RippleCascade 8': ('eb86a86c8e2075241edbd8a52c08e64e885d39ece869053aec44b8001204becc', '2843f2ccda726fe72c28675c0651040ba2e162182fbde560fe699af04238ba9a'),
    'Decomposed 16 us CsaTree 2': ('d96524c5663cd8be3ce8718cbf2ccc841f0043270f35892e7a00467332179984', '1e607bea6d80bd7d02cb8d9d371d2f559595573e3150317833de6022efdad4ff'),
    'Decomposed 16 us CsaTree 4': ('819014b620ff8325c71258f906d8dff10060992c91615ec33db1f84fb42ee8d5', '4eacc8409099c570744097732227d1622e43703541048f7e1aadab17a707cb65'),
    'Decomposed 16 us CsaTree 8': ('5fafbdf86263655d5d3c961246354b26dcca4e5684e43f325f03e9c031ab3597', '5a185d3b8f8f5b625a807d5214637441afc394a78aa08b20141d910458d04413'),
    'Decomposed 16 us RippleCascade 2': ('594a8906cb9488e607eb0c3cb41b536e0d83cb58b2f268b6b8603187ab4aaebe', '60e74b6efff7e2ed02e75e442e1bf20ef926d8fe06063bfdc2b49dbeec4a21df'),
    'Decomposed 16 us RippleCascade 4': ('6b0836e98a4223180ac9521397285ce5d7b417fdc2d80d169c14384e98d02748', '2adfc3e78b03f44e8e0d81204dbd945968452aeb586b735e377949bd58d31530'),
    'Decomposed 16 us RippleCascade 8': ('751748ca997117b6b8fa3cf71d8901489795ee799a510d1fa7439ee64c129b11', '4412e9c556328284dcdae0a0106e5aeb79f9f24639c92ca7c503de5b15ae9c14'),
    'Decomposed 16 uu CsaTree 2': ('653e547897ba2ccca96181c6693c6823ba8beded8c3514afd2f4a5e11897a384', '682d3425fa8a0be0e048e98512a3dd4e1b0b7003a86255baff659f6130d94c4f'),
    'Decomposed 16 uu CsaTree 4': ('05a5937f95627a51bc79319b436763d65481dc2df18a136a728ae654964e8d59', 'ff77db45c6ba022d017c61ee4a76ce1f62d382ac4c526db2e795441a4bc4080a'),
    'Decomposed 16 uu CsaTree 8': ('1374597fefd6428af091295b6dbbfd6200d3fffe3b0a62e90dc2d5419b292771', '13e231fc38560b7c864c4767f598423ef9c82059af75302e4c9bd2b8d2c59418'),
    'Decomposed 16 uu RippleCascade 2': ('fb0dfa34e0b9e4a2132c9a8fe91c09737cf16da1f09e44b80678c9d1ca2e5aea', '2d962f83c25f8d2eb8a98f971c5e6c1797e0e5afefcf0d750e51ffadb43586f2'),
    'Decomposed 16 uu RippleCascade 4': ('1c042f81b6035373f0be239b17752ade343a072a40f627e452eb71ec20133b41', 'aad345e027420cc71f2d34fb33b55d930ac138b7fa9bede9e09c0b7d8c7aec10'),
    'Decomposed 16 uu RippleCascade 8': ('19c32f19bcc0c7720506d14c344f3a4d5180f18b345d9320241d4cace3552f27', '4aa0c778467509e042ef42408aefac9fb7ca47737a4dc6fdd1576cbae70d06a9'),
}

# As ``GENERATOR_DIGESTS``, for :func:`_digest_specs_64`.
GENERATOR_DIGESTS_64 = {
    'FlatBW 64 ss CsaTree None': ('e1e189879745f8e3df6e20894eae5258d69f9fa0c5e28cfcbe66c2b7e22d9fc0', 'f5145818914f437e379399f1a35e5e65930ff8efe35415870bc5cfd03ca28f6a'),
    'BoothRadix4 64 ss CsaTree None': ('001881686a4215021ba2555787a531c23278f70b9c1b6636bfd33728328756eb', '0f3d90e1ef40617f8eb9ebcfecd778f65aaf757d17054cf43dc58997289c545a'),
    'FlatUnsignedArray 64 uu CsaTree None': ('f72e7b48708fd862784961d9d9bc4d108bab8910b117e150a2acb5b19d84ce28', '35942ce7ffb7f46b98a9e3377747e8e575858cb8171b76c8a26d23b78f7e03b7'),
    'FlatUnsignedArray 64 su CsaTree None': ('a743f3873b155a9a51ecbaa6b2e0ea5f8fa8967dc5c48cf026e468e415336146', '8580f2142c554fdcf5ea897cba636707632ea7fd4c5500767722498dbb956655'),
    'Decomposed 64 ss CsaTree 4': ('41b0f91b637bb4b7c9a20fd0506630635f1ce58df1d86930e57580b90561a140', '6ff94b4c5cf62d943622367c0f34d41f02f00073cacfd71470cec01eab1dd5a9'),
    'Decomposed 64 su CsaTree 4': ('79489266c43502a41b6fb1ac2aac6e839a3c27a01eb54afd47ed35574f65e28c', '99abb8ef7bba77f3cd3cbe63ac2d36edea11af2cd52a2279c21d8b2dd1bd52cd'),
    'Decomposed 64 us CsaTree 4': ('04d24cd6d4620385907da887e210546406850767c4fd8ef3ce75016d8c0beb46', 'a354b82fba816159722d778d510f28a045e7fecba913ffcea964873bae33d01a'),
    'Decomposed 64 uu CsaTree 4': ('7c4d31e955eccb325a3059c1366318bf1d48c993258567ef589e6826ad964971', '8b07bcadf46e81112e0742fdc1df15ba6b1b4438a4c3abb28415333140d17f48'),
    'Decomposed 64 ss CsaTree 32': ('58a97bead51578c54b87a4554ba56db1fa58d55f9338b242f85960d466a7dbd1', '3b4fb892adbb5cff50578f0f2e7dde2e44f792f4c114c82af66d917fd43c5603'),
    'Decomposed 64 su CsaTree 32': ('9e5fb935e75004b7f5d96c62a3e2b8e4a8384c1c6c1ce2820824e21e1338d625', '76f6dddb862310ea9a2076f05a4c24cc789339d2621df53acda0613068dc590e'),
    'Decomposed 64 us CsaTree 32': ('3379bb0803582d50c855b21908fc94f1b0ffdab69502abce0bebfb982fc8de18', '98e23ae544b5da64724b1c4f9eb984525d17f43f7408d29276e52cf854448923'),
    'Decomposed 64 uu CsaTree 32': ('7bd3f54af90bb2e73a1135548d69201678c2d9bb363e03a24d33b96814038de7', 'e504dfb633602ec2651df5c4d04bae4b5e2f406fe18371d65349cf745ef50801'),
    'FlatBW 64 ss RippleCascade None': ('c628d5998c2f6a560d77c3b4302635aee5c784a36bbb74a40ab8728a05e23932', '53e86fa97df0967a5788ee20c0a5f086ebc1e259c85bf1047ba7d58b05ea6e2e'),
    'BoothRadix4 64 ss RippleCascade None': ('4619db4849092c0aad6e2d3db122ca67a7582036adc95805bf522e068f87541a', '870a8eb8afb4fa31e5a062dfc62a4c5e8b1ccc87692320eeec2728da609f6ad8'),
}
