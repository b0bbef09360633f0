"""Static timing analysis and area accounting over gate netlists.

Delays are exact rationals (:class:`fractions.Fraction`), so cross-model
comparisons behave algebraically: a model whose every gate delay is k times
another's has exactly k times its critical delay and the same witness path.
STA runs as one pass over integers: each model scales its delays by their
common denominator, and results are converted back, so they are still
exact rationals.  That pass is the netlist's longest-path pass, which also
gives the depth in gate levels with a cost of one level per non-constant
gate.  Timing is purely topological -- no input-dependent or false-path
analysis -- which is what a synthesis report's "path delay" measures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from math import lcm
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, Sequence
import csv

from .netlist import (
    Circuit, Gate, GateKind, NetId, _LEVELS, _arrivals, _latest_output, _require_valid,
)

DelayLike = int | float | str | Fraction


def _coerce_delay(x: DelayLike) -> Fraction:
    # Floats go through their decimal repr so 0.9 means 9/10, not the
    # nearest binary float.
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class DelayModel:
    """Per-gate-kind propagation delays in an arbitrary consistent unit."""

    name: str
    delay_of: Mapping[GateKind, Fraction]

    def __post_init__(self) -> None:
        coerced: dict[GateKind, Fraction] = {}
        for k, v in self.delay_of.items():
            if not isinstance(k, GateKind):
                raise ValueError(f"delay model key must be a GateKind, got {k!r}")
            try:
                coerced[k] = _coerce_delay(v)
            except (TypeError, ValueError, ArithmeticError):
                raise ValueError(f"delay for {k.value} must be a number, got {v!r}") from None
        missing = [k.value for k in GateKind if k not in coerced]
        if missing:
            raise ValueError(f"delay model {self.name!r} missing kinds: {missing}")
        for k, d in coerced.items():
            if d < 0:
                raise ValueError(f"negative delay for {k.value}")
        for k in (GateKind.CONST0, GateKind.CONST1):
            if coerced[k] != 0:
                raise ValueError("constant generators must have zero delay")
        # Read-only: STA reads the ticks computed from it below, which a
        # later write to the map would not change.
        object.__setattr__(self, "delay_of", MappingProxyType(coerced))
        # Integer delays in units of 1/_scale, for STA.
        scale = lcm(*(d.denominator for d in coerced.values()))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_ticks", {k: int(d * scale) for k, d in coerced.items()})

    @staticmethod
    def unit() -> "DelayModel":
        """The level table as delays: critical delay = depth in levels."""
        return DelayModel("unit", _LEVELS)

    @staticmethod
    def tech_demo() -> "DelayModel":
        """Illustrative cell-library-flavoured delays (not calibrated data)."""
        f = Fraction
        return DelayModel(
            "tech-demo",
            {
                GateKind.CONST0: f(0),
                GateKind.CONST1: f(0),
                GateKind.NOT: f("0.5"),
                GateKind.BUF: f("0.5"),
                GateKind.AND2: f(1),
                GateKind.OR2: f(1),
                GateKind.NAND2: f("0.9"),
                GateKind.NOR2: f("0.9"),
                GateKind.XOR2: f("1.6"),
                GateKind.XNOR2: f("1.6"),
            },
        )

    @staticmethod
    def by_name(name: str) -> "DelayModel":
        models = {"unit": DelayModel.unit, "tech-demo": DelayModel.tech_demo}
        if name not in models:
            raise ValueError(f"unknown delay model {name!r} (have: {sorted(models)})")
        return models[name]()


def arrival_times(circuit: Circuit, model: DelayModel) -> dict[NetId, Fraction]:
    """Arrival time of every driven net: inputs at 0, each gate output at
    max(input arrivals) + its kind's delay.  One topological pass."""
    schedule = _require_valid(circuit).schedule
    arrival = _arrivals(circuit, schedule, model._ticks)
    exact = {t: Fraction(t, model._scale) for t in set(arrival)}
    nets = [net for p in circuit.inputs for net in p.bits]
    nets += [circuit.gates[gi].output for gi in schedule]
    return {net: exact[arrival[net]] for net in nets}


@dataclass(frozen=True)
class TimingReport:
    model_name: str
    critical_delay: Fraction
    critical_path: tuple[Gate, ...]


def critical_path(circuit: Circuit, model: DelayModel) -> TimingReport:
    """Longest-delay report with one witness path.

    The witness ends at the maximum-arrival output net and follows
    maximum-arrival predecessors backwards; ties break toward the lowest
    net id, so the path is reproducible.
    """
    schedule = _require_valid(circuit).schedule
    ticks = _arrivals(circuit, schedule, model._ticks)
    best = _latest_output(circuit, ticks)
    end = min(net for p in circuit.outputs for net in p.bits if ticks[net] == best)

    # A net's driver comes before every gate that reads it, so walking the
    # schedule backwards meets each driver on the path in turn.  Fields are
    # read by position (g[1] inputs, g[2] output): CPython does not
    # specialize a NamedTuple's field reads.
    gates = circuit.gates
    path: list[Gate] = []
    net = end
    for gi in reversed(schedule):
        g = gates[gi]
        if g[2] != net:
            continue
        path.append(g)
        ins = g[1]
        if not ins:
            break
        peak = max(ticks[i] for i in ins)
        net = min(i for i in ins if ticks[i] == peak)
    path.reverse()
    return TimingReport(model.name, Fraction(best, model._scale), tuple(path))


@dataclass(frozen=True)
class AreaReport:
    counts: dict[GateKind, int]
    total_gates: int


def area_report(circuit: Circuit) -> AreaReport:
    """Exact gate census by kind."""
    counts = Counter(map(itemgetter(0), circuit.gates))  # each gate's kind
    return AreaReport(counts=dict(counts), total_gates=len(circuit.gates))


def depth(circuit: Circuit) -> int:
    """Depth in gate levels (= critical delay under the unit model)."""
    return _require_valid(circuit).depth


def _fmt(x: Fraction) -> str:
    """Exact decimal when x has one (denominator 2^a * 5^b), else 6 digits."""
    for k in range(x.denominator.bit_length()):
        scaled = x * 10**k
        if scaled.denominator == 1:
            if not k:
                return str(scaled.numerator)
            whole, frac = divmod(abs(scaled.numerator), 10**k)
            return f"{'-' if x < 0 else ''}{whole}.{frac:0{k}d}"
    return f"{float(x):.6g}"


@dataclass(frozen=True)
class ComparisonTable:
    """Metric rows by circuit column; renders to Markdown and CSV."""

    model_name: str
    labels: tuple[str, ...]
    rows: tuple[tuple[str, tuple[str, ...]], ...]

    def to_markdown(self) -> str:
        head = [f"metric [model: {self.model_name}]", *self.labels]
        lines = ["| " + " | ".join(head) + " |"]
        lines.append("| " + " | ".join("---" for _ in head) + " |")
        for metric, values in self.rows:
            lines.append("| " + " | ".join([metric, *values]) + " |")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"metric [model: {self.model_name}]", *self.labels])
        for metric, values in self.rows:
            writer.writerow([metric, *values])
        return buf.getvalue()


def compare(
    circuits: Sequence[tuple[str, Circuit]], model: DelayModel
) -> ComparisonTable:
    """Side-by-side delay/area table.

    The delay-ratio row divides the first entry's critical delay by each
    column's, so values above 1 mean "faster than the baseline".
    """
    if len(circuits) < 2:
        raise ValueError("compare needs at least two circuits")
    labels = tuple(label for label, _ in circuits)
    delays: list[Fraction] = []
    depths: list[int] = []
    areas: list[AreaReport] = []
    for _, c in circuits:
        delays.append(critical_path(c, model).critical_delay)
        depths.append(depth(c))
        areas.append(area_report(c))

    kinds = [k for k in GateKind if any(a.counts.get(k) for a in areas)]
    rows: list[tuple[str, tuple[str, ...]]] = [
        ("critical delay", tuple(_fmt(d) for d in delays)),
        ("depth (gate levels)", tuple(str(d) for d in depths)),
        ("total gates", tuple(str(a.total_gates) for a in areas)),
    ]
    for k in kinds:
        rows.append(
            (f"{k.value} count", tuple(str(a.counts.get(k, 0)) for a in areas))
        )
    base = delays[0]
    ratios = tuple(
        _fmt(base / d) if d != 0 else ("1" if base == 0 else "inf") for d in delays
    )
    rows.append((f"delay ratio vs {labels[0]}", ratios))
    return ComparisonTable(model.name, labels, tuple(rows))
