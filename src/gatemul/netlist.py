"""Gate-level netlist IR: primitive gates wired by dense net ids into a DAG.

The building blocks are deliberately small: single-output gates with fixed
arity (two-input logic plus NOT/BUF and constants), bit-vector ports with
LSB-first bit order, and an append-only builder that hands out fresh net
ids.  Because a gate may only reference nets that already exist, the gate
list of a builder-produced circuit is topologically ordered by construction.
A :class:`Gate` is a named tuple: it equals and unpacks to its field tuple
``(kind, inputs, output)``, and ``gate._replace(kind=...)`` changes a field.

Finalized circuits are immutable; analyses may share them freely across
threads and key per-net tables by the dense net index.  Validation and
the gate schedule come from one structural analysis cached on each
``Circuit`` object (not a field, so equality, hashing and ``repr`` ignore
it).  The builder checks each call and records it at ``finalize``; any
other circuit (JSON, hand-built) gets the full census on first access,
which a concurrent first access may compute twice.  The longest-path pass,
:func:`_arrivals`, checks the gate order here and gives :func:`depth` on
the level table; ``timing`` runs it for static timing, with a delay per
gate kind.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

NetId = int

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Signedness(Enum):
    SIGNED = "signed"
    UNSIGNED = "unsigned"


class GateKind(Enum):
    """Primitive gate kinds; each member's ``arity`` is its input count."""

    def __new__(cls, value: str, arity: int):
        member = object.__new__(cls)
        member._value_ = value
        # A plain attribute: the builder and the analysis read it per gate,
        # where a dict lookup by kind would hash the member in Python.
        member.arity = arity
        return member

    # Members are singletons compared by identity, so identity hashing keeps
    # every dict and Counter lookup by kind; Enum's own ``__hash__`` is a
    # Python-level call (``hash(self._name_)``) on every per-gate lookup.
    __hash__ = object.__hash__

    CONST0 = ("CONST0", 0)
    CONST1 = ("CONST1", 0)
    NOT = ("NOT", 1)
    BUF = ("BUF", 1)
    AND2 = ("AND2", 2)
    NAND2 = ("NAND2", 2)
    OR2 = ("OR2", 2)
    NOR2 = ("NOR2", 2)
    XOR2 = ("XOR2", 2)
    XNOR2 = ("XNOR2", 2)


class NetlistError(ValueError):
    """Raised on misuse of the construction API."""


class Gate(NamedTuple):
    kind: GateKind
    inputs: tuple[NetId, ...]
    output: NetId


@dataclass(frozen=True)
class Port:
    """Named bit vector; ``bits[0]`` is the least significant bit."""

    name: str
    bits: tuple[NetId, ...]
    signedness: Signedness

    @property
    def width(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Circuit:
    name: str
    inputs: tuple[Port, ...]
    outputs: tuple[Port, ...]
    gates: tuple[Gate, ...]
    net_count: int

    @cached_property
    def _analysis(self) -> _Analysis:
        return _analyse(self)


class ViolationKind(Enum):
    MULTIPLE_DRIVERS = "MultipleDrivers"
    UNDRIVEN_NET = "UndrivenNet"
    CYCLE = "Cycle"
    ARITY_MISMATCH = "ArityMismatch"
    BAD_PORT = "BadPort"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    message: str
    net: NetId | None = None
    gate_index: int | None = None


@dataclass(frozen=True)
class _Analysis:
    """Structural facts about one circuit: from ``finalize`` or :func:`_analyse`.

    ``schedule``, meaningful only without violations, is ``range(len(gates))``
    when the gate list is already in dependency order, as a builder circuit's is.
    """

    violations: tuple[Violation, ...]
    schedule: Sequence[int]


def _analyse(circuit: Circuit) -> _Analysis:
    """Census of ports, drivers and arities, then order the gates: a linear
    check when they are already in order, Kahn's sort otherwise."""
    out: list[Violation] = []
    nc = circuit.net_count
    gates = circuit.gates

    def flag(kind: ViolationKind, what: str, **where) -> None:
        out.append(Violation(kind, f"{kind.value}: {what}", **where))

    for direction, ports in (("input", circuit.inputs), ("output", circuit.outputs)):
        if not ports:
            flag(ViolationKind.BAD_PORT, f"circuit has no {direction} port")
        for name, count in Counter(p.name for p in ports).items():
            if count > 1:
                flag(ViolationKind.BAD_PORT, f"{count} {direction} ports are named {name!r}")
        for p in ports:
            if not p.bits:
                flag(ViolationKind.BAD_PORT, f"{direction} port {p.name!r} has no bits")
            if not isinstance(p.signedness, Signedness):
                flag(ViolationKind.BAD_PORT, f"{direction} port {p.name!r} signedness "
                     f"must be a Signedness, got {p.signedness!r}")

    for gi, g in enumerate(gates):
        if not isinstance(g.kind, GateKind):
            flag(ViolationKind.ARITY_MISMATCH,
                 f"gate {gi} kind must be a GateKind, got {g.kind!r}", gate_index=gi)
        elif len(g.inputs) != g.kind.arity:
            flag(ViolationKind.ARITY_MISMATCH,
                 f"gate {gi} ({g.kind.value}) has {len(g.inputs)} inputs, "
                 f"expected {g.kind.arity}", gate_index=gi)

    # Driver census: input-port bits and gate outputs each drive one net.  A
    # driver outside the net range counts as an undriven reference.
    drivers = [0] * nc
    undriven: set[NetId] = set()
    for net in chain((n for p in circuit.inputs for n in p.bits), (g.output for g in gates)):
        if 0 <= net < nc:
            drivers[net] += 1
        else:
            undriven.add(net)

    for net, count in enumerate(drivers):
        if count > 1:
            flag(ViolationKind.MULTIPLE_DRIVERS, f"net {net} has {count} drivers", net=net)
        elif not count:
            undriven.add(net)

    for bits in chain((g.inputs for g in gates), (p.bits for p in circuit.outputs)):
        for net in bits:
            if not 0 <= net < nc:
                undriven.add(net)
    for net in sorted(undriven):
        flag(ViolationKind.UNDRIVEN_NET, f"net {net} is never driven", net=net)

    schedule: Sequence[int] = range(len(gates))
    if out or _arrivals(circuit, schedule, _LEVELS) is None:
        # Not in order (or not well formed): Kahn's sort over the gate graph.
        driver_gate = {g.output: gi for gi, g in enumerate(gates)
                       if 0 <= g.output < nc and drivers[g.output] == 1}
        indeg = [0] * len(gates)
        consumers: dict[int, list[int]] = {}
        for gi, g in enumerate(gates):
            for net in g.inputs:
                src = driver_gate.get(net)
                if src is not None:
                    indeg[gi] += 1
                    consumers.setdefault(src, []).append(gi)
        queue = deque(gi for gi in range(len(gates)) if indeg[gi] == 0)
        schedule = []
        while queue:
            gi = queue.popleft()
            schedule.append(gi)
            for nxt in consumers.get(gi, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if len(schedule) != len(gates):
            stuck = [gi for gi in range(len(gates)) if indeg[gi] > 0]
            flag(ViolationKind.CYCLE, f"gates {stuck} form a combinational loop",
                 gate_index=stuck[0] if stuck else None)
    return _Analysis(tuple(out), schedule)


# Gate levels as a cost per kind: only CONST gates have no inputs, and they
# cost no level.
_LEVELS = {kind: min(kind.arity, 1) for kind in GateKind}


def _arrivals(
    circuit: Circuit, schedule: Sequence[int], cost: dict[GateKind, int]
) -> list[int] | None:
    """Longest-path arrival of every net of a well-formed circuit walked in
    ``schedule`` order: input bits at 0, each gate's output at the latest of
    its inputs plus ``cost[kind]`` (>= 0), and -1 for a net nothing drives.
    None if some gate comes before a gate it reads from."""
    arrival = [-1] * circuit.net_count
    for p in circuit.inputs:
        for net in p.bits:
            arrival[net] = 0
    gates = circuit.gates
    for gi in schedule:
        kind, ins, out = gates[gi]
        top = 0
        for net in ins:
            t = arrival[net]
            if t > top:
                top = t
            elif t < 0:
                return None
        arrival[out] = top + cost[kind]
    return arrival


def validate(circuit: Circuit) -> list[Violation]:
    """Check the structural invariants; returns one entry per violation.

    Violations are data, not exceptions: an empty list means the circuit is
    well formed (at least one input and one output port, ports non-empty,
    named once per direction and of ``Signedness``, every net driven exactly
    once, all references resolved, gate graph acyclic, gate kinds of
    ``GateKind`` with their arities).
    """
    return list(circuit._analysis.violations)


class ValidationError(NetlistError):
    """An invalid circuit reached an analysis, emitter or the simulator."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in violations))


def _require_valid(circuit: Circuit) -> _Analysis:
    """The circuit's analysis; raises :class:`ValidationError` if it is invalid."""
    analysis = circuit._analysis
    if analysis.violations:
        err = ValidationError(analysis.violations)
        err.args = (f"circuit {circuit.name!r} is invalid: {err}",)
        raise err
    return analysis


def gate_schedule(circuit: Circuit) -> list[int]:
    """Gate indices in dependency order.

    Builder-produced circuits are already ordered and pass a single linear
    check; gate lists from other sources are re-sorted with Kahn's
    algorithm.  Raises :class:`ValidationError` on an invalid circuit.
    """
    return list(_require_valid(circuit).schedule)


def _latest_output(circuit: Circuit, arrival: Sequence[int]) -> int:
    """The latest of ``arrival`` over every output-port bit."""
    return max(arrival[net] for p in circuit.outputs for net in p.bits)


def depth(circuit: Circuit) -> int:
    """Depth in gate levels (= critical delay under the unit model)."""
    return _latest_output(circuit, _arrivals(circuit, _require_valid(circuit).schedule, _LEVELS))


class CircuitBuilder:
    """Append-only constructor for :class:`Circuit`.

    Net ids are dense and allocated in construction order; gates may only
    reference nets that already exist, so the finished gate list is a valid
    evaluation order.  Each call checks its arguments (``GateKind`` members
    and their arity, net ids that are allocated ints, port names, int widths
    and ``Signedness`` members) and every gate drives a fresh net.  A group
    of gates appended in one call (``_add_cell``) checks its inputs the same
    way, and every other net it reads is one the call allocated.  So
    ``finalize`` records the analysis without a census and returns an
    immutable circuit; the builder must not be used afterwards.
    """

    def __init__(self, name: str):
        if not name or not _IDENT_RE.match(name):
            raise NetlistError(f"circuit name must be an identifier, got {name!r}")
        self._name = name
        self._inputs: list[Port] = []
        self._outputs: list[Port] = []
        self._gates: list[Gate] = []
        self._net_count = 0
        # The shared constant nets, once allocated (None before).  genlib
        # reads these two fields directly wherever it tests for a constant
        # net, so a change to how constants are stored must update genlib too.
        self._const0: NetId | None = None
        self._const1: NetId | None = None
        self._done = False

    @property
    def net_count(self) -> int:
        return self._net_count

    @property
    def gate_count(self) -> int:
        return len(self._gates)

    def _check_open(self) -> None:
        if self._done:
            raise NetlistError("builder already finalized")

    def _check_port(self, name: str, signedness: Signedness) -> None:
        self._check_open()
        if not name or not _IDENT_RE.match(name):
            raise NetlistError(f"port name must be an identifier, got {name!r}")
        if not isinstance(signedness, Signedness):
            raise NetlistError(
                f"port {name!r} signedness must be a Signedness, got {signedness!r}"
            )

    def add_input(self, name: str, width: int, signedness: Signedness) -> list[NetId]:
        """Allocate ``width`` fresh nets for a new input port, LSB first."""
        self._check_port(name, signedness)
        if type(width) is not int:
            raise NetlistError(f"port {name!r} width must be an int, got {width!r}")
        if width < 1:
            raise NetlistError(f"port {name!r} must have width >= 1")
        if any(p.name == name for p in self._inputs):
            raise NetlistError(f"duplicate input port {name!r}")
        bits = list(range(self._net_count, self._net_count + width))
        self._net_count += width
        self._inputs.append(Port(name, tuple(bits), signedness))
        return bits

    def add_output(self, name: str, bits: Iterable[NetId], signedness: Signedness) -> None:
        """Declare an output port over existing nets, LSB first."""
        self._check_port(name, signedness)
        bits = tuple(bits)
        if not bits:
            raise NetlistError(f"output port {name!r} must have width >= 1")
        if any(p.name == name for p in self._outputs):
            raise NetlistError(f"duplicate output port {name!r}")
        for net in bits:
            if type(net) is not int:
                raise NetlistError(f"output port {name!r} net id {net!r} is not an int")
            if not 0 <= net < self._net_count:
                raise NetlistError(f"output port {name!r} references unallocated net {net}")
        self._outputs.append(Port(name, bits, signedness))

    def _check_inputs(self, inputs: Sequence[NetId]) -> NetId:
        """Refuse a finalized builder, then an input that is not an
        allocated net id; returns the next free net id."""
        self._check_open()
        out = self._net_count
        for net in inputs:
            if type(net) is not int:
                raise NetlistError(f"gate input net id {net!r} is not an int")
            if not 0 <= net < out:
                raise NetlistError(f"gate references unallocated net {net}")
        return out

    def add_gate(self, kind: GateKind, inputs: Iterable[NetId]) -> NetId:
        """Append a gate over existing nets; returns its fresh output net."""
        ins = tuple(inputs)
        out = self._check_inputs(ins)
        if not isinstance(kind, GateKind):
            raise NetlistError(f"gate kind must be a GateKind, got {kind!r}")
        if len(ins) != kind.arity:
            raise NetlistError(
                f"{kind.value} takes {kind.arity} inputs, got {len(ins)}"
            )
        self._net_count = out + 1
        self._gates.append(tuple.__new__(Gate, (kind, ins, out)))
        return out

    def _add_cell(
        self, inputs: Sequence[NetId], recipe: Sequence[tuple[GateKind, int, int]]
    ) -> list[NetId]:
        """Append a fixed group of two-input gates; returns ``[*inputs,
        *outputs]``.  Recipe entry ``(kind, i, j)`` is a gate over entries
        ``i`` and ``j`` of that list as it stands when the gate is added.

        Checks ``inputs`` as :meth:`add_gate` does, and the recipe's kinds,
        before anything is appended; every other net a gate reads is an
        output of an earlier gate of the group.
        """
        out = self._check_inputs(inputs)
        nets = list(inputs)
        cell = []
        new = tuple.__new__
        for kind, i, j in recipe:
            if kind.arity != 2:
                raise NetlistError(f"{kind.value} takes {kind.arity} inputs, got 2")
            cell.append(new(Gate, (kind, (nets[i], nets[j]), out)))
            nets.append(out)
            out += 1
        self._gates += cell
        self._net_count = out
        return nets

    def const0(self) -> NetId:
        """Net holding constant 0 (one shared CONST0 gate per builder)."""
        if self._const0 is None:
            self._const0 = self.add_gate(GateKind.CONST0, ())
        return self._const0

    def const1(self) -> NetId:
        """Net holding constant 1 (one shared CONST1 gate per builder)."""
        if self._const1 is None:
            self._const1 = self.add_gate(GateKind.CONST1, ())
        return self._const1

    def finalize(self) -> Circuit:
        """Freeze the circuit; its analysis is the gate order as built, as
        the per-call checks leave no violation."""
        self._check_open()
        if not self._inputs or not self._outputs:
            raise NetlistError("circuit must have >= 1 input and >= 1 output port")
        circuit = Circuit(
            name=self._name,
            inputs=tuple(self._inputs),
            outputs=tuple(self._outputs),
            gates=tuple(self._gates),
            net_count=self._net_count,
        )
        circuit.__dict__["_analysis"] = _Analysis((), range(len(circuit.gates)))
        self._done = True
        return circuit
