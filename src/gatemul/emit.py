"""Serialization: structural Verilog and a lossless JSON interchange format.

The JSON schema is normative for interchange (shown compactly here):

    {"name": ..., "net_count": N,
     "inputs":  [{"name": ..., "width": W, "signed": bool, "bits": [net, ...]}, ...],
     "outputs": [ ...same shape... ],
     "gates":   [{"kind": "AND2", "inputs": [net, net], "output": net}, ...]}

Bit arrays are LSB-first net indices.  :func:`to_json` writes exactly what
``json.dumps(doc, indent=2)`` of that document gives, keys in the order
above, plus a final LF; the layout is byte-stable.  Loading validates
structure and the netlist invariants; a round trip reproduces the circuit
exactly.

Both emitters grow their text as one string, appended a block of gates at
a time (``_BLOCK``), so emitting holds the circuit, the text and one block.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator, Sequence
from itertools import chain

from .netlist import (
    Circuit,
    Gate,
    GateKind,
    Port,
    Signedness,
    _require_valid,
    validate,
)

# The reserved words of IEEE 1364-2005, Annex B.
_VERILOG_KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end endcase
    endconfig endfunction endgenerate endmodule endprimitive endspecify
    endtable endtask event for force forever fork function generate genvar
    highz0 highz1 if ifnone incdir include initial inout input instance integer
    join large liblist library localparam macromodule medium module nand
    negedge nmos nor noshowcancelled not notif0 notif1 or output parameter pmos
    posedge primitive pull0 pull1 pulldown pullup pulsestyle_ondetect
    pulsestyle_onevent rcmos real realtime reg release repeat rnmos rpmos
    rtran rtranif0 rtranif1 scalared showcancelled signed small specify
    specparam strong0 strong1 supply0 supply1 table task time tran tranif0
    tranif1 tri tri0 tri1 triand trior trireg unsigned use uwire vectored wait
    wand weak0 weak1 while wire wor xnor xor
""".split())

_NETNAME_RE = re.compile(r"n\d+\Z")


class JsonFormatError(ValueError):
    """Malformed or invariant-violating netlist document."""


def _sanitize(name: str, taken: set[str]) -> str:
    clean = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    while clean in _VERILOG_KEYWORDS or _NETNAME_RE.match(clean) or clean in taken:
        clean += "_"
    taken.add(clean)
    return clean


# Per gate kind, its assignment with the output net and the operands to fill
# in, and the same with every operand a wire ``n<net>``.
_GATE_VERILOG = {
    GateKind.CONST0: "  assign n%d = 1'b0;\n",
    GateKind.CONST1: "  assign n%d = 1'b1;\n",
    GateKind.NOT: "  assign n%d = ~%s;\n",
    GateKind.BUF: "  assign n%d = %s;\n",
    GateKind.AND2: "  assign n%d = %s & %s;\n",
    GateKind.NAND2: "  assign n%d = ~(%s & %s);\n",
    GateKind.OR2: "  assign n%d = %s | %s;\n",
    GateKind.NOR2: "  assign n%d = ~(%s | %s);\n",
    GateKind.XOR2: "  assign n%d = %s ^ %s;\n",
    GateKind.XNOR2: "  assign n%d = ~(%s ^ %s);\n",
}

_GATE_VERILOG_WIRES = {kind: t.replace("%s", "n%d") for kind, t in _GATE_VERILOG.items()}

# Gates per block of text.  An emitter formats one block of gates at a time
# and appends its text to the document at once, so the per-gate strings of
# the whole circuit never exist together: the text peaks at its length
# plus one block.
_BLOCK = 1024


def _in_blocks(
    gates: Sequence[Gate], sep: str, lines: Callable[[Sequence[Gate]], list[str]]
) -> Iterator[str]:
    """``sep.join`` of ``lines(block)`` for each block of ``_BLOCK`` gates,
    with ``sep`` between blocks: the pieces of one text, made one at a time."""
    for i in range(0, len(gates), _BLOCK):
        if i:
            yield sep
        yield sep.join(lines(gates[i:i + _BLOCK]))


def to_verilog(circuit: Circuit) -> str:
    """Structural Verilog: one module, one continuous assignment per gate.

    Each port gets its own name, in port order (inputs, then outputs).
    Net naming (``n<index>``) and line order are functions of the circuit
    alone, so emission is byte-identical across runs.
    """
    _require_valid(circuit)
    taken: set[str] = set()
    module = _sanitize(circuit.name, set())
    # Per port, in port order: direction, port, name, reference of each bit.
    ports = []
    for direction, group in (("input", circuit.inputs), ("output", circuit.outputs)):
        for p in group:
            name = _sanitize(p.name, taken)
            refs = [name] if p.width == 1 else [f"{name}[{i}]" for i in range(p.width)]
            ports.append((direction, p, name, refs))
    inputs, outputs = ports[:len(circuit.inputs)], ports[len(circuit.inputs):]
    # Input-port bits are read by their port reference, every other net as
    # ``n<net>``, the wire of the gate that drives it.  A gate that reads no
    # input-port bit, as most do, is written by its all-wire template, with
    # no lookup per operand.
    ref = {net: r for _, p, _, refs in inputs for net, r in zip(p.bits, refs)}
    reads_no_port = ref.keys().isdisjoint

    def name_of(net):
        return ref[net] if net in ref else f"n{net}"

    templates, wire_templates = _GATE_VERILOG, _GATE_VERILOG_WIRES
    text = f"module {module} ({', '.join(name for _, _, name, _ in ports)});\n"
    for direction, p, name, _ in ports:
        rng = "" if p.width == 1 else f"[{p.width - 1}:0] "
        text += f"  {direction} {rng}{name};\n"
    gates = circuit.gates
    # CPython grows a str in place on ``+=`` only while nothing else refers
    # to it, so ``text`` stays a plain local of this function and each block
    # is appended and freed: the text and one block, never a list of blocks
    # and their join (or an ``io.StringIO`` and its ``getvalue``).
    for piece in chain(
        _in_blocks(gates, "", lambda block: [f"  wire n{g[2]};\n" for g in block]),
        _in_blocks(gates, "", lambda block: [
            wire_templates[kind] % (out, *ins) if reads_no_port(ins)
            else templates[kind] % (out, *map(name_of, ins)) for kind, ins, out in block]),
        (f"  assign {r} = {name_of(net)};\n"
         for _, p, _, refs in outputs for r, net in zip(refs, p.bits)),
    ):
        text += piece
    text += "endmodule\n"
    return text


_quote = json.encoder.encode_basestring_ascii


def _int_array(values, indent: str) -> str:
    """Integers one per line, closing bracket at ``indent``, as
    ``json.dumps(indent=2)`` lays out an array nested at that depth."""
    if not values:
        return "[]"
    return f"[\n{indent}  " + f",\n{indent}  ".join(map(str, values)) + f"\n{indent}]"


def _object_array(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


_DOC_HEAD_JSON = (
    '{\n  "name": %s,\n  "net_count": %d,\n  "inputs": %s,\n'
    '  "outputs": %s,\n  "gates": '
)

_PORT_JSON = (
    '    {\n      "name": %s,\n      "width": %d,\n      "signed": %s,\n'
    '      "bits": %s\n    }'
)

# One gate template per kind, its quoted name built in; the input count,
# which the kind fixes, sets the rest.
_GATE_JSON = {
    kind: '    {\n      "kind": ' + _quote(kind.value) + ',\n      "inputs": '
          + _int_array(("%d",) * kind.arity, "      ") + ',\n      "output": %d\n    }'
    for kind in GateKind
}


def _port_json(p: Port) -> str:
    signed = "true" if p.signedness is Signedness.SIGNED else "false"
    return _PORT_JSON % (_quote(p.name), p.width, signed, _int_array(p.bits, "      "))


def to_json(circuit: Circuit) -> str:
    """The netlist document laid out exactly as ``json.dumps(doc, indent=2)``
    plus a final LF.

    It is written directly from the circuit: CPython serializes any indented
    dump in its pure-Python encoder, which is several times slower.
    """
    _require_valid(circuit)
    templates = _GATE_JSON
    text = _DOC_HEAD_JSON % (
        _quote(circuit.name),
        circuit.net_count,
        _object_array([_port_json(p) for p in circuit.inputs]),
        _object_array([_port_json(p) for p in circuit.outputs]),
    )
    gates = circuit.gates
    if not gates:
        return text + "[]\n}\n"
    text += "[\n"
    # Appended a block at a time to a local, as in :func:`to_verilog`.
    for piece in _in_blocks(gates, ",\n", lambda block: [
            templates[kind] % (*ins, out) for kind, ins, out in block]):
        text += piece
    text += "\n  ]\n}\n"
    return text


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise JsonFormatError(f"{where}: {what}")


def _is_nonneg_int(value) -> bool:
    """A non-negative JSON integer; ``true``/``false`` load as ``bool`` and are not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _load_port(doc, where: str) -> Port:
    _expect(isinstance(doc, dict), where, "expected an object")
    for key in ("name", "width", "signed", "bits"):
        _expect(key in doc, where, f"missing field {key!r}")
    name, width, signed, bits = doc["name"], doc["width"], doc["signed"], doc["bits"]
    _expect(isinstance(name, str) and name != "", where, "name must be a non-empty string")
    _expect(_is_nonneg_int(width), where, "width must be a non-negative integer")
    _expect(isinstance(signed, bool), where, "signed must be a boolean")
    _expect(isinstance(bits, list), where, "bits must be an array")
    _expect(len(bits) == width, where, f"bits length {len(bits)} != width {width}")
    for i, net in enumerate(bits):
        if not _is_nonneg_int(net):
            raise JsonFormatError(f"{where}.bits[{i}]: net index must be a non-negative integer")
    return Port(
        name=name,
        bits=tuple(bits),
        signedness=Signedness.SIGNED if signed else Signedness.UNSIGNED,
    )


def from_json(text: str) -> Circuit:
    """Parse and validate a netlist document; inverse of :func:`to_json`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # int-from-string digit limit; RecursionError, arrays or objects
        # nested past the recursion limit.
        raise JsonFormatError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "document", "expected a JSON object")
    for key in ("name", "net_count", "inputs", "outputs", "gates"):
        _expect(key in doc, "document", f"missing field {key!r}")
    _expect(isinstance(doc["name"], str) and doc["name"] != "",
            "name", "must be a non-empty string")
    _expect(_is_nonneg_int(doc["net_count"]), "net_count", "must be a non-negative integer")
    for key in ("inputs", "outputs", "gates"):
        _expect(isinstance(doc[key], list), key, "must be an array")

    inputs = [_load_port(p, f"inputs[{i}]") for i, p in enumerate(doc["inputs"])]
    outputs = [_load_port(p, f"outputs[{i}]") for i, p in enumerate(doc["outputs"])]

    kinds = {k.value: k for k in GateKind}
    gates = []
    # Messages are built only on the failing branch: this loop runs per gate.
    for i, g in enumerate(doc["gates"]):
        if not isinstance(g, dict):
            raise JsonFormatError(f"gates[{i}]: expected an object")
        for key in ("kind", "inputs", "output"):
            if key not in g:
                raise JsonFormatError(f"gates[{i}]: missing field {key!r}")
        kind, ins, out = g["kind"], g["inputs"], g["output"]
        if not (isinstance(kind, str) and kind in kinds):
            raise JsonFormatError(f"gates[{i}]: unknown gate kind {kind!r}")
        if not isinstance(ins, list):
            raise JsonFormatError(f"gates[{i}]: inputs must be an array")
        for j, net in enumerate(ins):
            if not _is_nonneg_int(net):
                raise JsonFormatError(
                    f"gates[{i}].inputs[{j}]: net index must be a non-negative integer")
        if not _is_nonneg_int(out):
            raise JsonFormatError(f"gates[{i}].output: net index must be a non-negative integer")
        gates.append(Gate(kind=kinds[kind], inputs=tuple(ins), output=out))

    # Each net is driven by exactly one input bit or gate, so a larger count
    # is invalid; rejecting it here also keeps the per-net tables of the
    # validation from being sized by an arbitrary number.
    drivers = sum(p.width for p in inputs) + len(gates)
    _expect(doc["net_count"] <= drivers, "net_count",
            f"{doc['net_count']} exceeds the {drivers} nets that input bits and gates drive")
    circuit = Circuit(
        name=doc["name"],
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        gates=tuple(gates),
        net_count=doc["net_count"],
    )
    violations = validate(circuit)
    if violations:
        raise JsonFormatError(
            "invalid netlist: " + "; ".join(v.message for v in violations)
        )
    return circuit
