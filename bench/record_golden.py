"""Record the outputs the benchmark checks gen and compare ops against.

    python3 bench/record_golden.py      # from the repository root

Writes bench/golden.json: for every gen and compare command the benchmark
runs, its stdout and (for gen) the SHA-256 of the file it writes.  The
recorded outputs are those of the commit the benchmark was defined at;
re-record only for a change that is meant to alter these outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    argvs = []
    for w in run.WORKLOADS.values():
        for arch, leaf in w.archs:
            argvs += [run.gen_argv(arch, w.gen_width, leaf),
                      run.gen_argv(arch, w.gen_width, leaf, ext="v"),
                      run.gen_argv(arch, w.verify_width, leaf)]
        argvs.append(run.compare_argv(w))
    argvs += [run.gen_argv(a, width, leaf) for a, width, leaf in run.MUTANT_CHECKS]
    argvs += [run.gen_argv(*k) for k in run.KNOWN_ANSWERS]
    work = run.ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work)
    golden = {}
    for argv in dict.fromkeys(tuple(a) for a in argvs):
        op = runner.run(list(argv))
        if op.rc != 0:
            print(f"{' '.join(argv)}: exit {op.rc}\n{op.stderr}", file=sys.stderr)
            return 1
        entry = {"stdout": op.stdout}
        if argv[0] == "gen":
            entry["sha256"] = run.sha256(work / argv[-1])
        golden[" ".join(argv)] = entry
    (run.BENCH / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
