"""Compare critical-path delay and gate counts across architectures.

Delays are abstract, technology-independent numbers from a configurable
model; the unit model makes critical delay equal to depth in gate levels.
"""

from gatemul import (
    Architecture,
    Combiner,
    DelayModel,
    MultiplierSpec,
    Signedness,
    area_report,
    baugh_wooley_multiplier,
    booth_radix4_multiplier,
    compare,
    critical_path,
    generate,
)

S = Signedness.SIGNED

flat = baugh_wooley_multiplier(8)
booth = booth_radix4_multiplier(8)
dec = generate(MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4))

# --- single-circuit reports --------------------------------------------------
unit = DelayModel.unit()
tr = critical_path(flat, unit)
print(f"bw8 critical delay (unit): {tr.critical_delay}")
print(f"bw8 witness path length:   {len(tr.critical_path)} gates")
ar = area_report(flat)
print(f"bw8 area: {ar.total_gates} gates = "
      + ", ".join(f"{k.value}:{v}" for k, v in sorted(ar.counts.items(), key=lambda kv: kv[0].value)))

# --- side-by-side table ------------------------------------------------------
entries = [("booth8", booth), ("bw8", flat), ("dec8_leaf4", dec)]
print("\n" + compare(entries, unit).to_markdown())

# The same table under an illustrative cell-library-flavoured model.
print(compare(entries, DelayModel.tech_demo()).to_markdown())

# --- how much of the speedup is the combiner? --------------------------------
ripple = generate(
    MultiplierSpec(8, 8, S, S, Architecture.DECOMPOSED, leaf_width=4,
                   combiner=Combiner.RIPPLE_CASCADE)
)
print(compare([("dec8_csa", dec), ("dec8_ripple", ripple)], unit).to_markdown())
