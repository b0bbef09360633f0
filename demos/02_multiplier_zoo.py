"""Generate every multiplier architecture and check it against integer math.

Covers the flat signed (Baugh-Wooley) array, plain and mixed-sign arrays,
the radix-4 Booth baseline, and four-quadrant decomposition.
"""

from gatemul import (
    Architecture,
    Combiner,
    MultiplierSpec,
    Signedness,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    evaluate,
    generate,
    mixed_sign_multiplier,
    verify_exhaustive,
    verify_random,
)

S, U = Signedness.SIGNED, Signedness.UNSIGNED

# --- flat signed array ------------------------------------------------------
bw4 = baugh_wooley_multiplier(4)
print("bw4:", evaluate(bw4, {"A": 4, "B": -4}))       # {'P': -16}
print("bw4:", evaluate(bw4, {"A": -8, "B": -8}))      # {'P': 64}

spec = MultiplierSpec(4, 4, S, S, Architecture.FLAT_BW)
print("bw4 exhaustive:", verify_exhaustive(bw4, spec).to_text().splitlines()[-1])

# --- mixed signedness -------------------------------------------------------
su = mixed_sign_multiplier(4, S, U)
print("\narray4su:", evaluate(su, {"A": -8, "B": 15}))  # {'P': -120}
spec = MultiplierSpec(4, 4, S, U, Architecture.FLAT_UNSIGNED_ARRAY)
print("array4su exhaustive:", verify_exhaustive(su, spec).to_text().splitlines()[-1])

# --- Booth radix-4 baseline --------------------------------------------------
booth8 = booth_radix4_multiplier(8)
print("\nbooth8:", evaluate(booth8, {"A": -128, "B": -128}))  # {'P': 16384}
spec = MultiplierSpec(8, 8, S, S, Architecture.BOOTH_RADIX4)
print("booth8 exhaustive:", verify_exhaustive(booth8, spec).to_text().splitlines()[-1])

# --- four-quadrant decomposition ---------------------------------------------
spec = MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4)
dec8 = generate(spec)
print("\ndec8_4:", evaluate(dec8, {"A": 127, "B": -128}))  # {'P': -16256}
print("dec8_4 exhaustive:", verify_exhaustive(dec8, spec).to_text().splitlines()[-1])

# 16x16 variants are too wide for an exhaustive sweep; use seeded random
# vectors (the boundary pairs are always injected).
for leaf in (4, 8):
    spec = MultiplierSpec(
        16, 16, S, S, Architecture.DECOMPOSED, leaf_width=leaf,
        combiner=Combiner.CSA_TREE,
    )
    c = generate(spec)
    report = verify_random(c, spec, count=100_000, seed=42)
    print(f"{c.name} random:", report.to_text().splitlines()[-1])
