"""End-to-end benchmark of the gatemul CLI.

    python3 bench/run.py --workload verify-16 --seed 1 --seconds 50 --trace 0

Run it from the repository root; the program is imported from ./src.  Each
timed op is one ``python -m gatemul.cli ...`` process, started by this
one process, one at a time (a closed loop with one client).  Fresh
processes matter: a Circuit hashes by value, so repeating ops inside one
interpreter would let a per-process cache hit that no CLI user ever gets.

A run, for the chosen workload:

1. generates its input netlists with ``gatemul gen`` and checks them against
   outputs recorded at the seed commit (bench/golden.json) and against
   Python ``a*b`` through bench/refcheck.py;
2. runs the known-answer battery (14 verify verdicts, see KNOWN_ANSWERS);
3. repeats groups of ``import gatemul.cli`` (setup_s), gen .json, gen .v,
   verify, verify-on-a-mutant and compare ops, one architecture after the
   other, for about --seconds seconds, checking every op's exit code and
   exact output.

With --trace 1 every op also runs through bench/traced_op.py, which makes
the same public calls with a span around each layer call; the run then
reports the per-layer metrics and the tracing overhead instead.

Metric names and units come from BENCHMARK.json.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Details
(every sample, battery verdicts, spans) go to .bench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import refcheck

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OP_TIMEOUT_S = 60
IMPORT_ARGV = ["-c", "import gatemul.cli"]
MODEL = "tech-demo"


@dataclass(frozen=True)
class Workload:
    gen_width: int           # width of timed gen and compare ops
    verify_width: int        # width of the netlists timed verify ops check
    archs: tuple[tuple[str, int | None], ...]  # (arch token, decomposed leaf)
    verify_mode: tuple[str, ...]  # `gatemul verify` mode arguments
    mutant_mode: tuple[str, ...]


ARCHS_4 = (("bw", None), ("booth4", None), ("decomposed", 4))

# Why each workload exists is recorded in BENCHMARK.json.  Every workload
# runs every op kind so that every metric is measured on each of them; the
# widths and vector counts decide which layer dominates.  verify-32 is not
# listed in BENCHMARK.json (bench/NOTES.md says why) but runs on request.
WORKLOADS = {
    "verify-16": Workload(16, 16, ARCHS_4, ("--random", "1000000"), ("--random", "200000")),
    "verify-32": Workload(32, 32, (("bw", None), ("booth4", None), ("decomposed", 8)),
                          ("--random", "200000"), ("--random", "200000")),
    # 64-bit verify dies at the seed, so design-64 proves the 8-bit instance
    # of each architecture exhaustively before generating the 64-bit ones.
    "design-64": Workload(64, 8, ARCHS_4, ("--exhaustive",), ("--exhaustive",)),
}

SIGNS = {"s": "signed", "u": "unsigned"}
KAT_VECTORS = "2000"
# Correct netlists that `verify` must PASS (exit 0), generated with these
# signs rather than retagged, plus one-gate mutants that it must refute
# (exit 1).  At the seed commit the checks in KNOWN_DEFECTS die with an
# OverflowError; while they die that way they count against ops_ok instead
# of failing the run.  Any other wrong outcome of theirs fails the run.
KNOWN_ANSWERS = (
    [("array", w, None, sa + sb) for w in (32, 33) for sa in SIGNS for sb in SIGNS]
    + [(arch, 64, leaf, None) for arch, leaf in ARCHS_4]
)
MUTANT_CHECKS = [(arch, 16, leaf) for arch, leaf in ARCHS_4]
KNOWN_DEFECTS = {
    "array_32_uu", "array_33_ss", "array_33_su", "array_33_us", "array_33_uu",
    "bw_64", "booth4_64", "decomposed4_64",
}


def stem(arch: str, width: int, leaf: int | None, signs: str | None = None) -> str:
    return f"{arch}{leaf or ''}_{width}" + (f"_{signs}" if signs else "")


def gen_argv(arch, width, leaf=None, signs=None, ext="json") -> list[str]:
    argv = ["gen", "--arch", arch, "--width", str(width)]
    if leaf:
        argv += ["--leaf", str(leaf)]
    if signs:
        argv += ["--sign-a", SIGNS[signs[0]], "--sign-b", SIGNS[signs[1]]]
    return argv + ["--out", f"{stem(arch, width, leaf, signs)}.{ext}"]


def compare_argv(w: Workload) -> list[str]:
    tokens = [f"{a}:{leaf}" if leaf else a for a, leaf in w.archs]
    return ["compare", "--width", str(w.gen_width), "--model", MODEL, *tokens]


@dataclass
class OpRun:
    kind: str
    argv: list[str]
    wall_s: float
    rc: int
    stdout: str
    stderr: str
    rss_kb: int
    expect: tuple | None = None   # (exit code, exact stdout) a check compares with
    verify_args: tuple = ()       # (file, mode, seed) of a timed verify op
    error: str | None = None
    spans: list = field(default_factory=list)
    traced_wall_s: float | None = None


class Runner:
    """Starts gatemul processes in the work directory, one launcher each."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, argv: list[str], kind: str = "", script: list[str] | None = None) -> OpRun:
        cmd = [sys.executable, *(["-m", "gatemul.cli"] if script is None else script), *argv]
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            rc, wall, rss_kb = _launch(cmd, self.work, self.env, out, err)
            out.seek(0)
            err.seek(0)
            return OpRun(kind, argv, wall, rc, out.read().decode(), err.read().decode(), rss_kb)

    def run_all(self, argvs: list[list[str]]) -> list[OpRun]:
        """Untimed ops, two at a time."""
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(self.run, argvs))


def _launch(cmd: list[str], cwd: Path, env: dict, out, err) -> tuple[int, float, int]:
    """Run cmd through bench/launch.py; (exit code, wall s, peak RSS KB).

    The launcher and its child form their own process group, which is
    killed if the op outlives OP_TIMEOUT_S.
    """
    r, w = os.pipe()
    with os.fdopen(r, "rb") as result:
        try:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(BENCH / "launch.py"), str(w), *cmd],
                cwd=cwd, env=env, stdout=out, stderr=err, pass_fds=(w,),
                start_new_session=True)
        finally:
            os.close(w)
        try:
            proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -signal.SIGKILL, float(OP_TIMEOUT_S), 0
        fields = result.read().split()
    if len(fields) != 3:
        return proc.returncode or -1, 0.0, 0
    return int(fields[0]), float(fields[1]), int(fields[2])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def overflow_crash(op: OpRun) -> bool:
    """Whether the op died, printing nothing, in an OverflowError traceback."""
    lines = op.stderr.strip().splitlines()
    return (op.rc == 1 and op.stdout == "" and "Traceback (most recent call last):" in lines
            and lines[-1].startswith("OverflowError:"))


class Bench:
    """One run of one workload: its inputs, checks and timed ops."""

    def __init__(self, name: str, seed: int, work: Path):
        self.w = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.seed = seed
        self.work = work
        self.runner = Runner(work)
        self.golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
        self.docs: dict[str, dict] = {}
        self.problems: list[str] = []   # anything that makes the run incorrect

    # -- checks -------------------------------------------------------------

    def doc(self, filename: str) -> dict:
        if filename not in self.docs:
            self.docs[filename] = refcheck.load(self.work / filename)
        return self.docs[filename]

    def check_gen(self, op: OpRun) -> None:
        want = self.golden.get(" ".join(op.argv))
        out = self.work / op.argv[-1]
        if want is None:
            op.error = "no recorded output"
        elif op.rc != 0 or op.stdout != want["stdout"]:
            op.error = f"exit {op.rc}, stdout {op.stdout!r}"
        elif sha256(out) != want["sha256"]:
            op.error = f"{out.name} differs from the recorded output"

    def finish(self, op: OpRun) -> OpRun:
        """Check an op against its expected exit code and exact stdout."""
        if op.error is None and "Traceback" in op.stderr:
            op.error = "traceback: " + op.stderr.strip().splitlines()[-1]
        if op.error is None and op.kind in ("gen_json", "gen_verilog"):
            self.check_gen(op)
        elif op.error is None:
            rc, text = op.expect
            if (op.rc, op.stdout) != (rc, text):
                op.error = f"exit {op.rc} (want {rc}), stdout differs from the expected text"
        return op

    def expected_verify(self, filename: str, mode: tuple[str, ...], seed, passing: bool):
        """(exit code, exact stdout) of `gatemul verify FILE *mode --seed seed`."""
        count = int(mode[1]) if mode[0] == "--random" else None
        kind = mode[0].lstrip("-")
        if passing:
            return 0, refcheck.pass_report(self.doc(filename), kind, count, seed)
        return 1, refcheck.verify_report(self.doc(filename), kind, count, seed)

    # -- preparation and the known-answer battery ---------------------------

    def prepare(self) -> dict:
        """Input netlists, reference checks, mutants, then the battery."""
        if not self.make_netlists():
            return {}
        for path in sorted(self.work.glob("*.json")):
            problem = refcheck.check_product(refcheck.load(path), self.seed)
            if problem:
                self.problems.append(f"reference check: {problem}")
        mutants = {(a, width, leaf) for a, width, leaf in MUTANT_CHECKS}
        mutants |= {(a, self.w.verify_width, leaf) for a, leaf in self.w.archs}
        for key in sorted(mutants, key=str):
            name = stem(*key)
            doc = refcheck.mutate_first_and(self.doc(f"{name}.json"))
            (self.work / f"{name}_mutant.json").write_text(
                json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return self.battery()

    def make_netlists(self) -> bool:
        """Generate every .json netlist the run reads with `gatemul gen`.

        Returns False if any of them is not the recorded output.
        """
        w = self.w
        gens = [gen_argv(a, w.verify_width, leaf) for a, leaf in w.archs]
        gens += [gen_argv(a, width, leaf) for a, width, leaf in MUTANT_CHECKS]
        gens += [gen_argv(a, width, leaf, signs) for a, width, leaf, signs in KNOWN_ANSWERS]
        gens = [list(g) for g in dict.fromkeys(tuple(g) for g in gens)]
        for op in self.runner.run_all(gens):
            op.kind = "gen_json"
            if self.finish(op).error:
                self.problems.append(f"prepare {' '.join(op.argv)}: {op.error}")
        return not self.problems

    def battery(self) -> dict:
        checks = []   # (netlist name, whether verify must PASS it)
        for arch, width, leaf, signs in KNOWN_ANSWERS:
            checks.append((stem(arch, width, leaf, signs), True))
        for arch, width, leaf in MUTANT_CHECKS:
            checks.append((stem(arch, width, leaf) + "_mutant", False))
        seeds = [self.rng.randrange(1 << 31) for _ in checks]
        argvs = [["verify", f"{name}.json", "--random", KAT_VECTORS, "--seed", str(s)]
                 for (name, _), s in zip(checks, seeds)]
        verdicts = {}
        for (name, must_pass), s, op in zip(checks, seeds, self.runner.run_all(argvs)):
            op.kind = "known_answer"
            op.expect = self.expected_verify(f"{name}.json", ("--random", KAT_VECTORS), s, must_pass)
            self.finish(op)
            verdicts[name] = op.error or "ok"
            if op.error and not (name in KNOWN_DEFECTS and overflow_crash(op)):
                self.problems.append(f"known-answer {name}: {op.error}")
        return verdicts

    # -- timed ops ----------------------------------------------------------

    def cycle_groups(self) -> list[list[tuple[str, list[str], tuple]]]:
        """One cycle: per architecture a group of an import, gen .json,
        gen .v, verify, verify of its mutant, another import and a compare.
        Verify ops carry (file, mode, seed) for their output check."""
        w, groups = self.w, []
        for arch, leaf in w.archs:
            name = stem(arch, w.verify_width, leaf)
            ops = [("setup", IMPORT_ARGV, ()),
                   ("gen_json", gen_argv(arch, w.gen_width, leaf), ()),
                   ("gen_verilog", gen_argv(arch, w.gen_width, leaf, ext="v"), ())]
            for kind, filename, mode in (("verify", f"{name}.json", w.verify_mode),
                                         ("verify_fail", f"{name}_mutant.json", w.mutant_mode)):
                seed = self.rng.randrange(1 << 31) if mode[0] == "--random" else None
                argv = ["verify", filename, *mode] + (["--seed", str(seed)] if seed is not None else [])
                ops.append((kind, argv, (filename, mode, seed)))
            ops += [("setup", IMPORT_ARGV, ()), ("compare", compare_argv(w), ())]
            groups.append(ops)
        return groups

    def run_rounds(self, seconds: float, trace: bool) -> list[list[OpRun]]:
        """Run rounds of ops until about `seconds` have passed.

        A round is one architecture's group; in a traced run it is a whole
        cycle, because per-layer totals are taken per cycle.  Time metrics
        average per-command medians, so rounds need not cover the
        architectures evenly.
        """
        self.runner.run(IMPORT_ARGV, script=[])   # writes bytecode caches, warms the page cache
        rounds: list[list[OpRun]] = []
        start = time.perf_counter()
        while True:
            groups = self.cycle_groups()
            for ops in ([sum(groups, [])] if trace else groups):
                rounds.append([self.run_op(*op, f"{len(rounds)}.{i}" if trace else None,
                                            i % 2 == 1)
                               for i, op in enumerate(ops)])
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
                    return rounds

    def run_op(self, kind: str, argv: list[str], verify_args: tuple, trace_id: str | None,
               traced_first: bool = False) -> OpRun:
        """Run one timed op.  With a trace_id it also runs once through
        traced_op.py: before the untraced twin if traced_first, else after.
        The traced run alternates the order, so that the twin that runs
        second, on warm caches, is not always the same one."""
        if kind == "setup":
            return self.runner.run(argv, kind, script=[])
        traced = None
        if trace_id is not None and traced_first:
            traced = self.run_traced(kind, argv, trace_id)
        op = self.runner.run(argv, kind)
        if kind.startswith("gen"):
            self.finish(op)
        op.verify_args = verify_args
        if trace_id is not None:
            if traced is None:
                traced = self.run_traced(kind, argv, trace_id)
            self.check_traced(op, traced)
        return op

    def run_traced(self, kind: str, argv: list[str], op_id: str) -> OpRun:
        spans_file = self.work / f"spans-{op_id}.json"
        traced = self.runner.run([str(spans_file), op_id, *argv], kind,
                                 script=[str(BENCH / "traced_op.py")])
        traced.argv = argv
        if spans_file.is_file():
            traced.spans = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
        if kind.startswith("gen"):
            self.check_gen(traced)   # before the twin overwrites its file
        return traced

    def check_traced(self, op: OpRun, traced: OpRun) -> None:
        """The traced twin must print and exit as the op did."""
        if (traced.rc, traced.stdout, traced.stderr) != (op.rc, op.stdout, ""):
            op.error = op.error or f"traced op differs: exit {traced.rc}, {traced.stderr[-200:]!r}"
        elif traced.error:
            op.error = op.error or f"traced op: {traced.error}"
        else:
            op.spans = traced.spans
            op.traced_wall_s = traced.wall_s

    def check_rounds(self, rounds: list[list[OpRun]]) -> None:
        """Check verify and compare outputs once the timed loop is over."""
        for op in (op for r in rounds for op in r):
            if op.kind == "setup":
                op.expect = (0, "")
            elif op.kind == "compare":
                op.expect = (0, self.golden[" ".join(op.argv)]["stdout"])
            elif op.kind.startswith("verify"):
                op.expect = self.expected_verify(*op.verify_args, passing=op.kind == "verify")
            else:
                continue
            self.finish(op)


# -- metrics ----------------------------------------------------------------

def command_mean(ops: list[OpRun]) -> float:
    """Mean over the distinct commands of each command's median wall time.

    A workload mixes architectures whose ops differ in cost, so a plain
    median would jump between their clusters; verify ops that differ only
    in --seed count as one command.
    """
    by_cmd: dict[tuple, list[float]] = {}
    for op in ops:
        cmd = op.argv[:op.argv.index("--seed")] if "--seed" in op.argv else op.argv
        by_cmd.setdefault(tuple(cmd), []).append(op.wall_s)
    return statistics.fmean(statistics.median(xs) for xs in by_cmd.values())


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    text = f"median {statistics.median(xs):.4f}"
    if n > 10:
        text += f", p{math.floor(100 * (n - 10) / n)} {xs[n - 11]:.4f}"
    return text + f" (n={n})"


# A mutant verify's peak RSS depends on which vectors fail (102 or 141 MB for
# the same 32-bit netlist under different seeds), so it stays out of
# peak_rss_mb; imports are left out as the smallest ops.
RSS_KINDS = ("verify", "gen_json", "gen_verilog", "compare")
E2E_KINDS = {"setup_s": "setup", "verify_s": "verify", "verify_fail_s": "verify_fail",
             "gen_json_s": "gen_json", "gen_verilog_s": "gen_verilog", "compare_s": "compare"}

# Per-layer metric -> (span names, count field or None for busy seconds,
# op kinds whose spans count, or None for all).
LAYER_SPANS = {
    "cli.import_s": (("cli.import",), None, None),
    "verify.verify_s": (("verify.verify",), None, {"verify"}),
    "verify.oracle_s": (("verify.oracle",), None, None),
    "verify.vectors": (("verify.verify",), "vectors", None),
    "verify.failures": (("verify.verify",), "failures", {"verify_fail"}),
    "verify.fail_s": (("verify.verify", "verify.report"), None, {"verify_fail"}),
    "sim.evaluate_vector_array_s": (("sim.evaluate_vector_array",), None, None),
    "emit.from_json_s": (("emit.from_json",), None, None),
    "emit.json_bytes": (("emit.from_json",), "bytes", None),
    "emit.to_json_s": (("emit.to_json",), None, None),
    "emit.to_verilog_s": (("emit.to_verilog",), None, None),
    "emit.bytes_out": (("emit.to_json", "emit.to_verilog"), "bytes", None),
    "multipliers.generate_s": (("multipliers.generate",), None, None),
    "multipliers.gates": (("multipliers.generate",), "gates", None),
    "netlist.validate_s": (("netlist.validate",), None, None),
    "netlist.gate_schedule_s": (("netlist.gate_schedule",), None, None),
    "timing.compare_s": (("timing.compare",), None, None),
    "timing.critical_path_s": (("timing.critical_path",), None, None),
    "timing.depth_s": (("timing.depth",), None, None),
    "timing.levels": (("timing.depth",), "levels", None),
}


def layer_values(cycle: list[OpRun]) -> dict[str, float]:
    """Per-layer totals over one cycle: busy seconds or summed counts."""
    out = {}
    for metric, (names, count, kinds) in LAYER_SPANS.items():
        total = 0.0
        for op in cycle:
            if kinds is None or op.kind in kinds:
                for s in op.spans:
                    if s["name"] in names:
                        total += s["counts"].get(count, 0) if count else s["end"] - s["start"]
        out[metric] = total
    sim = [s for op in cycle for s in op.spans if s["name"] == "sim.evaluate_vector_array"]
    out["sim.gate_evals_per_s"] = (sum(s["counts"]["gate_evals"] for s in sim)
                                   / sum(s["end"] - s["start"] for s in sim))
    traced = [op for op in cycle if op.spans]
    probe_s = sum(s["end"] - s["start"] for op in traced for s in op.spans if s["name"] == "probe")
    out["trace.overhead_s"] = (sum(op.traced_wall_s for op in traced) - probe_s
                               - sum(op.wall_s for op in traced))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gatemul" / "cli.py").is_file():
        print(f"error: no gatemul sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args, units) for name in names)


def run_workload(name: str, args, units: dict[str, str]) -> int:
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(name, args.seed, work)

    verdicts = bench.prepare()
    if not verdicts:   # the input netlists could not be made
        print("\n".join(bench.problems), file=sys.stderr)
        return 1
    rounds = bench.run_rounds(args.seconds, bool(args.trace))
    bench.check_rounds(rounds)

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.error]
    kat_ok = sum(v == "ok" for v in verdicts.values())

    print(f"workload {name}, seed {args.seed}, {len(rounds)} {'cycles' if args.trace else 'groups'}, "
          f"{len(ops)} timed ops, {len(failed)} failed")
    for check, verdict in verdicts.items():
        if verdict != "ok":
            print(f"known-answer {check}: {verdict}")
    print(f"ops_failed: {len(verdicts) - kat_ok} of {len(verdicts)} known-answer ops "
          f"({(len(verdicts) - kat_ok) / len(verdicts):.4f}); {len(failed)} of {len(ops)} timed ops")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for op in failed:
        print(f"FAILED {op.kind}: {' '.join(op.argv)}: {op.error}")

    values: dict[str, float] = {}
    if args.trace:
        per_cycle = [layer_values(r) for r in rounds]
        for metric in per_cycle[0]:
            values[metric] = statistics.median(v[metric] for v in per_cycle)
    else:
        for metric, kind in E2E_KINDS.items():
            of_kind = [op for op in ops if op.kind == kind]
            values[metric] = command_mean(of_kind)
            print(f"{metric}: per-command mean {values[metric]:.4f} s; all samples: "
                  f"{tail([op.wall_s for op in of_kind])} s")
        values["peak_rss_mb"] = max(op.rss_kb for op in ops if op.kind in RSS_KINDS) / 1024
        values["ops_ok"] = kat_ok / len(verdicts)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    for metric, value in values.items():
        print(f"{metric} = {value:.6g} {units[metric]}")

    (work / "result.json").write_text(json.dumps({
        "workload": name, "seed": args.seed, "known_answers": verdicts,
        "ops": [{"kind": op.kind, "argv": op.argv, "wall_s": op.wall_s,
                 "traced_wall_s": op.traced_wall_s, "rss_kb": op.rss_kb, "error": op.error}
                for op in ops],
    }, indent=1), encoding="utf-8")
    if args.trace:
        (work / "spans.json").write_text(
            json.dumps([s for op in ops for s in op.spans]), encoding="utf-8")

    print(json.dumps({
        "correct": not failed and not bench.problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
