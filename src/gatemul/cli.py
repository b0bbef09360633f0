"""Command-line front end: generate, verify, and compare multiplier netlists.

Exit codes are a stable scripting contract: 0 success, 1 verification
failure, 2 usage or input error.  Commands raise on an input they refuse,
and :func:`main` is the one place that maps a refusal to exit 2.  A reader
that closes stdout early (as ``| head`` does) changes neither: the rest of
the output is dropped.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .emit import JsonFormatError, from_json, to_json, to_verilog
from .multipliers import Architecture, Combiner, MultiplierSpec, generate
from .netlist import Circuit, Signedness
from .timing import DelayModel, compare, depth
from .verify import verify_exhaustive, verify_random

_ARCH_TOKENS = {
    "bw": Architecture.FLAT_BW,
    "array": Architecture.FLAT_UNSIGNED_ARRAY,
    "booth4": Architecture.BOOTH_RADIX4,
    "decomposed": Architecture.DECOMPOSED,
}
_COMBINER_TOKENS = {"csa": Combiner.CSA_TREE, "ripple": Combiner.RIPPLE_CASCADE}
_SIGN_TOKENS = {"signed": Signedness.SIGNED, "unsigned": Signedness.UNSIGNED}


def _make_spec(
    arch_token: str,
    width: int,
    leaf: int | None,
    combiner: str,
    sign_a: str | None = None,
    sign_b: str | None = None,
) -> MultiplierSpec:
    """Spec for ``gen`` and ``compare`` from their tokens.  Signs default to
    unsigned for ``array`` and signed otherwise; a decomposed leaf defaults
    to half the width."""
    arch = _ARCH_TOKENS[arch_token]
    default_sign = "unsigned" if arch is Architecture.FLAT_UNSIGNED_ARRAY else "signed"
    if arch is Architecture.DECOMPOSED and leaf is None:
        leaf = width // 2
    return MultiplierSpec(
        width_a=width,
        width_b=width,
        sign_a=_SIGN_TOKENS[sign_a or default_sign],
        sign_b=_SIGN_TOKENS[sign_b or default_sign],
        architecture=arch,
        leaf_width=leaf,
        combiner=_COMBINER_TOKENS[combiner],
    )


def _print(text: str, end: str = "\n") -> None:
    """Write one command's output to stdout and flush it.

    If the reader has closed the pipe, stdout is pointed at the null device,
    so that neither this write nor the interpreter's flush at exit fails.
    """
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_gen(args) -> int:
    spec = _make_spec(
        args.arch, args.width, args.leaf, args.combiner, args.sign_a, args.sign_b
    )
    circuit = generate(spec)
    out = Path(args.out)
    if out.suffix == ".json":
        text = to_json(circuit)
    elif out.suffix == ".v":
        text = to_verilog(circuit)
    else:
        raise ValueError(f"output file must end in .json or .v, got {out.name!r}")
    try:
        out.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc
    _print(
        f"{circuit.name}: {len(circuit.gates)} gates, "
        f"unit-delay depth {depth(circuit)}, wrote {out}"
    )
    return 0


def _load_circuit(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise JsonFormatError(f"cannot read {path}: {exc}") from exc
    return from_json(text)


class _Operands(NamedTuple):
    """What ``verify_random``/``verify_exhaustive`` read of their spec: the
    operand widths and signs, taken from the file's input ports.  A netlist
    read from a file is not bound by the generators' rules, so operands of
    unequal widths are verified too.  It stays a separate argument because
    the benchmark's traced probe unpacks ``(circuit, spec)`` from this call
    and hands ``spec`` to ``oracle_product``."""

    width_a: int
    width_b: int
    sign_a: Signedness
    sign_b: Signedness


def _cmd_verify(args) -> int:
    circuit = _load_circuit(args.file)
    if len(circuit.inputs) != 2 or len(circuit.outputs) != 1:
        raise ValueError("expected a 2-input, 1-output multiplier netlist")
    pa, pb = circuit.inputs
    spec = _Operands(pa.width, pb.width, pa.signedness, pb.signedness)
    if args.random is not None:
        report = verify_random(circuit, spec, count=args.random, seed=args.seed)
    else:
        report = verify_exhaustive(circuit, spec)
    if args.format == "json":
        _print(report.to_json(), end="")
    else:
        _print(report.to_text())
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    if len(args.archs) < 2:
        raise ValueError("compare needs at least two architecture tokens")
    entries = []
    for token in args.archs:
        name, _, leaf_text = token.partition(":")
        if name not in _ARCH_TOKENS:
            raise ValueError(f"unknown architecture token {token!r}")
        try:
            leaf = int(leaf_text) if leaf_text else None
        except ValueError:
            raise ValueError(f"invalid leaf in {token!r}") from None
        spec = _make_spec(name, args.width, leaf, args.combiner)
        entries.append((token, generate(spec)))
    table = compare(entries, DelayModel.by_name(args.model))
    if args.format == "csv":
        _print(table.to_csv(), end="")
    else:
        _print(table.to_markdown(), end="")
    return 0


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatemul",
        description="Generate, verify, and compare gate-level multiplier netlists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a netlist file")
    gen.add_argument("--arch", required=True, choices=sorted(_ARCH_TOKENS))
    gen.add_argument("--width", required=True, type=int)
    gen.add_argument("--leaf", type=int, help="leaf width for --arch decomposed")
    gen.add_argument("--combiner", choices=sorted(_COMBINER_TOKENS), default="csa")
    gen.add_argument("--sign-a", choices=sorted(_SIGN_TOKENS))
    gen.add_argument("--sign-b", choices=sorted(_SIGN_TOKENS))
    gen.add_argument("--out", required=True, help="output file (.json or .v)")
    gen.set_defaults(func=_cmd_gen)

    ver = sub.add_parser("verify", help="check a netlist against integer products")
    ver.add_argument("file", help="netlist .json file")
    mode = ver.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="sweep all pairs (default)")
    mode.add_argument("--random", type=int, metavar="N",
                      help="N seeded random vectors plus boundary pairs")
    ver.add_argument("--seed", type=_nonneg_int, default=0)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.set_defaults(func=_cmd_verify)

    cmp_ = sub.add_parser("compare", help="tabulate delay/area across architectures")
    cmp_.add_argument("--width", required=True, type=int)
    cmp_.add_argument("--model", choices=["unit", "tech-demo"], default="unit")
    cmp_.add_argument("--combiner", choices=sorted(_COMBINER_TOKENS), default="csa")
    cmp_.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    cmp_.add_argument("archs", nargs="+",
                      help="architecture tokens (bw, array, booth4, decomposed[:K])")
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code.

    The one place that maps a refused input to exit 2: a ``ValueError``
    from a command, or an ``OverflowError``/``MemoryError`` from a size too
    large to build or verify.  Other exceptions are bugs and keep their
    traceback.  ``gen`` and ``compare`` pause the cyclic GC, which frees
    none of their acyclic gates; ``verify`` does not, as a pause there
    keeps numpy's import garbage and raises peak RSS."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:
        # argparse has printed --help (or a usage error) and exits here.
        _print("", end="")
        raise
    try:
        if args.command not in ("gen", "compare") or not gc.isenabled():
            return args.func(args)
        gc.disable()
        try:
            return args.func(args)
        finally:
            gc.enable()
    except (ValueError, OverflowError, MemoryError) as exc:
        # A list of 2**62 nets fails at once with a MemoryError and no text.
        reason = str(exc)
        if not reason and isinstance(exc, MemoryError):
            reason = "out of memory"
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
