"""Command-line front end: generate, verify, and compare multiplier netlists.

Exit codes are a stable scripting contract: 0 success, 1 verification
failure, 2 usage or input error.  Commands raise on an input they refuse,
and :func:`main` is the one place that maps a refusal to exit 2.  A reader
that closes stdout early (as ``| head`` does) changes neither: the rest of
the output is dropped.  A stdout that cannot be written otherwise (a full
disk) is a refusal: exit 2 with one ``error: cannot write stdout`` line.
A process run as ``gatemul`` or ``python -m gatemul.cli`` leaves through
:func:`run_and_exit`, which skips interpreter teardown; :func:`main` only
returns the exit code, so the API and the tests call it in-process.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .multipliers import MultiplierSpec
    from .netlist import Circuit, Signedness

# The layer functions the commands call.  Each is read from the package, and
# so imported with its module, when it is first read as an attribute of this
# module; a command therefore loads only the layers it uses.  Commands call
# them through ``_this``, so a wrapper set on this module is what runs.
_LAYER_FUNCTIONS = frozenset({
    "compare", "depth", "from_json", "generate", "to_json", "to_verilog",
    "verify_exhaustive", "verify_random",
})
_this = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAYER_FUNCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


# Command-line tokens and the enum members they name.
_ARCH_TOKENS = {
    "bw": "FLAT_BW",
    "array": "FLAT_UNSIGNED_ARRAY",
    "booth4": "BOOTH_RADIX4",
    "decomposed": "DECOMPOSED",
}
_COMBINER_TOKENS = {"csa": "CSA_TREE", "ripple": "RIPPLE_CASCADE"}
_SIGN_TOKENS = {"signed": "SIGNED", "unsigned": "UNSIGNED"}


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
    from .multipliers import Architecture, Combiner, MultiplierSpec
    from .netlist import Signedness

    default_sign = "unsigned" if arch_token == "array" else "signed"
    if arch_token == "decomposed" and leaf is None:
        leaf = width // 2
    return MultiplierSpec(
        width_a=width,
        width_b=width,
        sign_a=Signedness[_SIGN_TOKENS[sign_a or default_sign]],
        sign_b=Signedness[_SIGN_TOKENS[sign_b or default_sign]],
        architecture=Architecture[_ARCH_TOKENS[arch_token]],
        leaf_width=leaf,
        combiner=Combiner[_COMBINER_TOKENS[combiner]],
    )


def _print(text: str, end: str = "\n") -> bool:
    """Write one command's output to stdout and flush it; False if the
    reader has gone, so that the rest need not be made.

    If the write fails, stdout is pointed at the null device, so that the
    interpreter's flush at exit cannot fail again.  A closed pipe then ends
    the output quietly; any other write error raises ``ValueError``.
    """
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise ValueError(f"cannot write stdout: {exc}") from exc
        return False
    return True


_WRITE_SLICE = 1 << 16  # characters of a gen file's text encoded at once


def _cmd_gen(args) -> int:
    spec = _make_spec(
        args.arch, args.width, args.leaf, args.combiner, args.sign_a, args.sign_b
    )
    out = Path(args.out)
    if out.suffix not in (".json", ".v"):
        raise ValueError(f"output file must end in .json or .v, got {out.name!r}")
    circuit = _this.generate(spec)
    text = (_this.to_json(circuit) if out.suffix == ".json"
            else _this.to_verilog(circuit))
    # Encoded a slice at a time, so no encoded copy of the whole text exists.
    try:
        with out.open("w", encoding="utf-8", newline="\n") as f:
            for i in range(0, len(text), _WRITE_SLICE):
                f.write(text[i:i + _WRITE_SLICE])
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc
    _print(
        f"{circuit.name}: {len(circuit.gates)} gates, "
        f"unit-delay depth {_this.depth(circuit)}, wrote {out}"
    )
    return 0


def _load_circuit(path: str) -> Circuit:
    from .emit import JsonFormatError

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise JsonFormatError(f"cannot read {path}: {exc}") from exc
    return _this.from_json(text)


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
        report = _this.verify_random(circuit, spec, count=args.random, seed=args.seed)
    else:
        report = _this.verify_exhaustive(circuit, spec)
    if args.format == "json":
        for block in report.json_blocks():  # written as they are made
            if not _print(block, end=""):
                break
    else:
        _print(report.to_text())
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    if len(args.archs) < 2:
        raise ValueError("compare needs at least two architecture tokens")
    specs = []
    for token in args.archs:
        name, _, leaf_text = token.partition(":")
        if name not in _ARCH_TOKENS:
            raise ValueError(f"unknown architecture token {token!r}")
        try:
            leaf = int(leaf_text) if leaf_text else None
        except ValueError:
            raise ValueError(f"invalid leaf in {token!r}") from None
        specs.append((token, _make_spec(name, args.width, leaf, args.combiner)))
    from .timing import DelayModel

    # Built as compare asks for them: it keeps one circuit at a time.
    entries = ((token, _this.generate(spec)) for token, spec in specs)
    table = _this.compare(entries, DelayModel.by_name(args.model))
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


class _Parser(argparse.ArgumentParser):
    """Writes ``--help`` with :func:`_print`, as every command writes."""

    def print_help(self, file=None) -> None:
        if file is None:
            _print(self.format_help(), end="")
        else:
            super().print_help(file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    from a command or from writing stdout (``--help`` included), or an
    ``OverflowError``/``MemoryError`` from a size too large to build or
    verify (``error: out of memory``, whatever the ``MemoryError`` says).
    Other exceptions are bugs and keep their traceback.  The cyclic GC,
    which frees none of the acyclic gates, programs and rows a command
    builds, is paused while the command runs, and the caller's state is
    restored on every exit.  numpy's OpenBLAS, which no command calls,
    gets one thread unless ``OPENBLAS_NUM_THREADS`` is already set."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    resume = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OverflowError, MemoryError) as exc:
        # A list of 2**62 nets fails at once with a MemoryError and no text;
        # numpy's names an array shape, which says nothing to the user.
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 2
    finally:
        if resume:
            gc.enable()


def run_and_exit() -> None:
    """The program's entry point, as ``gatemul`` and ``python -m gatemul.cli``:
    :func:`main` on ``sys.argv``, then stdout and stderr flushed and the
    process ended with ``os._exit``.

    Interpreter teardown would free every gate, string and array a command
    made, one object at a time, and has nothing else to do: a command
    closes each file it writes.  ``--help`` and argparse's usage errors
    still leave through ``SystemExit``."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
