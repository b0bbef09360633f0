"""Run one gatemul CLI command in this interpreter, with a span around each
call the command makes into a gatemul layer.

    python bench/traced_op.py SPANS_JSON OP_ID ARGS...

ARGS are `gatemul` CLI arguments.  The script imports gatemul.cli, swaps
span-recording wrappers in for the layer functions that module imports
(and for VerifyReport.to_text), and then runs ``gatemul.cli.main(ARGS)``.
The command is therefore the CLI's own code: it prints what
``python -m gatemul.cli ARGS`` prints and exits with its code, which the
benchmark checks.

Span records are {name, op, parent, start, end, counts}; ``parent`` is the
index of the enclosing span.  The root span ``op`` covers what the CLI
does.  The root span ``probe`` runs afterwards on the objects the command
made or loaded, and times layer calls the CLI makes only inside another
call (validate, gate_schedule, the simulator, the oracle, critical_path).
Spans stay in memory and are written to SPANS_JSON when the op ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# numpy, argparse and gatemul are imported inside the cli.import span, as
# the CLI imports them.


def _no_counts(args, result):
    return {}


def _text_bytes(args, text):
    return {"bytes": len(text.encode())}


def _verify_counts(args, report):
    return {"vectors": report.total_vectors, "failures": len(report.failures)}


# Name in gatemul.cli -> (span name, counts taken from (args, result)).
WRAPPED = {
    "generate": ("multipliers.generate", lambda args, c: {"gates": len(c.gates)}),
    "to_json": ("emit.to_json", _text_bytes),
    "to_verilog": ("emit.to_verilog", _text_bytes),
    "depth": ("timing.depth", lambda args, levels: {"levels": levels}),
    "from_json": ("emit.from_json", lambda args, c: {"bytes": len(args[0].encode())}),
    "verify_random": ("verify.verify", _verify_counts),
    "verify_exhaustive": ("verify.verify", _verify_counts),
    "compare": ("timing.compare", _no_counts),
}


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self.calls: list[tuple] = []   # (function name, args, kwargs, result)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its counts dict for the caller to fill."""
        rec = {"name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name: str, counts=_no_counts):
        """fn with a span around each call; the call is kept for the probe."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as n:
                result = fn(*args, **kwargs)
            n.update(counts(args, result))
            self.calls.append((fn.__name__, args, kwargs, result))
            return result
        return traced


def probe(tr: Tracer, g) -> None:
    """Time the inner layer calls on what the command generated or loaded."""
    import numpy as np

    import refcheck

    for fn, args, kwargs, result in tr.calls:
        if fn in ("generate", "from_json"):
            with tr.span("netlist.validate"):
                g.validate(result)
            with tr.span("netlist.gate_schedule"):
                g.gate_schedule(result)
    for fn, args, kwargs, result in tr.calls:
        if fn in ("verify_random", "verify_exhaustive"):
            circuit, spec = args
            pa, pb = circuit.inputs
            ports = {"inputs": [{"width": p.width, "signed": p.signedness is g.Signedness.SIGNED}
                                for p in (pa, pb)]}
            mode = "random" if fn == "verify_random" else "exhaustive"
            a, b, _ = refcheck.verify_vectors(ports, mode, kwargs.get("count"), kwargs.get("seed"))
            with tr.span("sim.evaluate_vector_array") as n:
                g.evaluate_vector_array(circuit, {pa.name: a, pb.name: b})
            n["gate_evals"] = len(circuit.gates) * len(a)
            with tr.span("verify.oracle"):
                np.fromiter((g.oracle_product(int(x), int(y), spec) for x, y in zip(a, b)),
                            dtype=np.int64, count=len(a))
        elif fn == "compare":
            entries, model = args
            for _, circuit in entries:
                with tr.span("timing.critical_path"):
                    g.critical_path(circuit, model)


def main() -> int:
    spans_path, op_id, *argv = sys.argv[1:]
    tr = Tracer(op_id)
    with tr.span("op"):
        with tr.span("cli.import"):
            import gatemul
            import gatemul.cli
        for name, (span, counts) in WRAPPED.items():
            setattr(gatemul.cli, name, tr.wrap(getattr(gatemul.cli, name), span, counts))
        report = gatemul.verify.VerifyReport
        report.to_text = tr.wrap(report.to_text, "verify.report")
        code = gatemul.cli.main(argv)
        sys.stdout.flush()
    with tr.span("probe"):
        probe(tr, gatemul)
    Path(spans_path).write_text(json.dumps(tr.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
