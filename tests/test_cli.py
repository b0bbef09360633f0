import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import gatemul
from gatemul import cli
from gatemul.cli import main
from gatemul.emit import from_json, to_json
from gatemul.multipliers import baugh_wooley_multiplier
from gatemul.netlist import CircuitBuilder, GateKind, Signedness
from gatemul.sim import evaluate
from gatemul.verify import _ROW_BLOCK, verify_random

from test_emit import D16_SHA256
from test_verify import flip_gate, partial_product_gates


SRC = Path(__file__).resolve().parent.parent / "src"


def run(args):
    return main(args)


def _run_python(argv):
    """A fresh interpreter that imports gatemul from this checkout."""
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )


def _run_cli(args):
    return _run_python(["-m", "gatemul.cli", *args])


class TestGen:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "bw8.json"
        assert run(["gen", "--arch", "bw", "--width", "8", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "bw8" in printed and "gates" in printed and "depth" in printed
        c = from_json(out.read_text())
        assert evaluate(c, {"A": -7, "B": 9})["P"] == -63

    def test_verilog_output(self, tmp_path):
        out = tmp_path / "d16.v"
        code = run(["gen", "--arch", "decomposed", "--width", "16",
                    "--leaf", "4", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == D16_SHA256

    def test_leaf_must_divide(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(["gen", "--arch", "decomposed", "--width", "8",
                    "--leaf", "3", "--out", str(out)])
        assert code == 2
        assert "divide" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_extension(self, tmp_path, capsys):
        code = run(["gen", "--arch", "bw", "--width", "4",
                    "--out", str(tmp_path / "x.vhdl")])
        assert code == 2
        assert ".json or .v" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run(["gen", "--arch", "bw", "--width", "4", "--out", str(out)]) == 2
        assert "error: cannot write" in capsys.readouterr().err

    def test_mixed_sign_array(self, tmp_path):
        out = tmp_path / "su.json"
        assert run(["gen", "--arch", "array", "--width", "4",
                    "--sign-a", "signed", "--sign-b", "unsigned",
                    "--out", str(out)]) == 0
        c = from_json(out.read_text())
        assert evaluate(c, {"A": -8, "B": 15})["P"] == -120


    def test_leaf_on_flat_arch_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(["gen", "--arch", "bw", "--width", "8", "--leaf", "4",
                    "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: leaf_width only applies to the Decomposed architecture\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("shape", [
        ["--arch", "array", "--sign-a", "signed"],
        ["--arch", "array", "--sign-b", "signed"],
        ["--arch", "bw"],
    ], ids=["array-su", "array-us", "bw"])
    def test_one_bit_signed_array_builds(self, shape, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["gen", *shape, "--width", "1", "--out", str(out)]) == 0
        assert run(["verify", str(out), "--exhaustive"]) == 0
        assert "PASS (4 vectors, 0 failures)" in capsys.readouterr().out


class TestVerify:
    def test_exhaustive_pass(self, tmp_path, capsys):
        out = tmp_path / "bw8.json"
        run(["gen", "--arch", "bw", "--width", "8", "--out", str(out)])
        capsys.readouterr()
        assert run(["verify", str(out), "--exhaustive"]) == 0
        printed = capsys.readouterr().out
        assert "65536 vectors, 0 failures" in printed

    def test_mutant_fails_with_witness(self, tmp_path, capsys):
        c = baugh_wooley_multiplier(4)
        mutant = flip_gate(c, partial_product_gates(c)[0])
        path = tmp_path / "mutant.json"
        path.write_text(to_json(mutant))
        assert run(["verify", str(path)]) == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed and "expected" in printed

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(to_json(baugh_wooley_multiplier(4))[:50])
        assert run(["verify", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run(["verify", str(tmp_path / "nope.json")]) == 2

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        assert run(["verify", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_huge_net_count_exits_2_without_traceback(self, tmp_path):
        # 2**62 nets: a per-net table of that size fails at once (a list
        # repeat past its size limit), so the check must come before it.
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        drivers = doc["net_count"]
        doc["net_count"] = 2**62
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli(["verify", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: net_count: {2**62} exceeds the {drivers} "
                               "nets that input bits and gates drive\n")

    @pytest.mark.parametrize("text", [
        "[" * 200_000,
        '{"name": "m", "net_count": 1' + "0" * 5000 + "}",
    ], ids=["deep_nesting", "long_int_literal"])
    def test_unparseable_json_exits_2_without_traceback(self, tmp_path, text):
        # Past the recursion limit json.loads raises RecursionError, and past
        # the int-from-string digit limit a plain ValueError.
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = _run_cli(["verify", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: not valid JSON: ")
        assert proc.stderr.count("\n") == 1

    def test_duplicate_input_names_exit_2(self, tmp_path, capsys):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        doc["inputs"][1]["name"] = "A"
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid netlist: BadPort: 2 input ports are named 'A'\n"

    def test_negative_seed_rejected_by_parser(self, tmp_path, capsys):
        out = tmp_path / "bw4.json"
        run(["gen", "--arch", "bw", "--width", "4", "--out", str(out)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(out), "--random", "10", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(net_count=True),
        lambda doc: doc["inputs"][0].update(width=True, bits=[0]),
    ], ids=["net_count", "width"])
    def test_boolean_count_exits_2(self, tmp_path, capsys, edit):
        doc = json.loads(to_json(baugh_wooley_multiplier(4)))
        edit(doc)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 2
        assert "must be a" in capsys.readouterr().err

    def test_64_bit_pass_and_mutant_fail(self, tmp_path, capsys):
        out = tmp_path / "bw64.json"
        assert run(["gen", "--arch", "bw", "--width", "64", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", str(out), "--random", "300", "--seed", "1"]) == 0
        assert "result: PASS (325 vectors, 0 failures)" in capsys.readouterr().out
        c = from_json(out.read_text())
        mutant = tmp_path / "bw64_mutant.json"
        mutant.write_text(to_json(flip_gate(c, partial_product_gates(c)[0])))
        assert run(["verify", str(mutant), "--random", "300", "--seed", "1"]) == 1
        assert "result: FAIL" in capsys.readouterr().out

    def test_32_bit_unsigned_json_report(self, tmp_path, capsys):
        out = tmp_path / "arr32.json"
        assert run(["gen", "--arch", "array", "--width", "32", "--out", str(out)]) == 0
        capsys.readouterr()
        code = run(["verify", str(out), "--random", "300", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True and doc["total_vectors"] == 309

    def test_random_mode_json_format(self, tmp_path, capsys):
        out = tmp_path / "bw4.json"
        run(["gen", "--arch", "bw", "--width", "4", "--out", str(out)])
        capsys.readouterr()
        code = run(["verify", str(out), "--random", "100", "--seed", "3",
                    "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["seed"] == 3
        assert doc["requested_count"] == 100

    def test_json_report_written_a_block_at_a_time(self, tmp_path, capsys, monkeypatch):
        c = baugh_wooley_multiplier(16)
        mutant = flip_gate(c, partial_product_gates(c)[0])
        path = tmp_path / "bw16_mutant.json"
        path.write_text(to_json(mutant))
        writes = []
        real = cli._print

        def recording_print(text, end="\n"):
            writes.append(text)
            return real(text, end)

        monkeypatch.setattr(cli, "_print", recording_print)
        assert run(["verify", str(path), "--random", "20000", "--format", "json"]) == 1
        out = capsys.readouterr().out
        spec = cli._Operands(16, 16, Signedness.SIGNED, Signedness.SIGNED)
        assert out == verify_random(mutant, spec, count=20000, seed=0).to_json()
        assert len(json.loads(out)["failures"]) > 2 * _ROW_BLOCK
        assert len(writes) > 3 and "".join(writes) == out
        # Once the reader has gone, no further block is made.
        writes.clear()

        def reader_gone(text, end="\n"):
            writes.append(text)
            return False

        monkeypatch.setattr(cli, "_print", reader_gone)
        assert run(["verify", str(path), "--random", "20000", "--format", "json"]) == 1
        assert len(writes) == 1

    def test_sign_override(self, tmp_path, capsys):
        # An unsigned array netlist whose file marks A, B and P signed is
        # read as signed x signed, and must fail.
        out = tmp_path / "arr4.json"
        run(["gen", "--arch", "array", "--width", "4", "--out", str(out)])
        capsys.readouterr()
        assert run(["verify", str(out)]) == 0
        text = out.read_text()
        assert text.count('"signed": false') == 3
        out.write_text(text.replace('"signed": false', '"signed": true'))
        assert run(["verify", str(out)]) == 1

    def test_one_bit_signed_netlist_is_verified(self, tmp_path, capsys):
        path = tmp_path / "a1.json"
        assert run(["gen", "--arch", "array", "--width", "1", "--sign-a", "signed",
                    "--sign-b", "signed", "--out", str(path)]) == 0
        capsys.readouterr()
        # A 1-bit AND is also the signed x signed product: (-a)(-b) == ab.
        assert run(["verify", str(path)]) == 0
        assert "PASS (4 vectors, 0 failures)" in capsys.readouterr().out

    @staticmethod
    def _m2x1(sign_a):
        # A hand-built 2x1 multiplier: P = (a0&b0, a1&b0, 0).
        b = CircuitBuilder("m2x1")
        a0, a1 = b.add_input("A", 2, sign_a)
        (b0,) = b.add_input("B", 1, Signedness.UNSIGNED)
        p0 = b.add_gate(GateKind.AND2, [a0, b0])
        p1 = b.add_gate(GateKind.AND2, [a1, b0])
        b.add_output("P", [p0, p1, b.const0()], sign_a)
        return b.finalize()

    def test_unequal_operand_widths(self, tmp_path, capsys):
        c = self._m2x1(Signedness.UNSIGNED)
        good, bad = tmp_path / "m2x1.json", tmp_path / "m2x1_mutant.json"
        good.write_text(to_json(c))
        bad.write_text(to_json(flip_gate(c, 0)))
        assert run(["verify", str(good), "--exhaustive"]) == 0
        assert "PASS (8 vectors, 0 failures)" in capsys.readouterr().out
        assert run(["verify", str(good), "--random", "100"]) == 0
        assert "PASS (106 vectors, 0 failures)" in capsys.readouterr().out
        for mode in (["--exhaustive"], ["--random", "100"]):
            assert run(["verify", str(bad), *mode]) == 1
            assert "FAIL" in capsys.readouterr().out
        # With A signed, the 2-bit operand's MSB weighs -2: -2 * 1 is no 2.
        signed_a = tmp_path / "m2x1_signed_a.json"
        signed_a.write_text(to_json(self._m2x1(Signedness.SIGNED)))
        assert run(["verify", str(signed_a)]) == 1
        assert capsys.readouterr().err == ""

    def test_exhaustive_width_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d16.json"
        run(["gen", "--arch", "decomposed", "--width", "16", "--leaf", "4",
             "--out", str(out)])
        capsys.readouterr()
        assert run(["verify", str(out), "--exhaustive"]) == 2
        assert "verify_random" in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_keeps_exit_code_and_stderr_quiet(tmp_path, unbuffered):
    # As `gatemul verify ... | head` when head exits first: no traceback, no
    # "Exception ignored" line, and the command's own exit code.
    c = baugh_wooley_multiplier(4)
    good = tmp_path / "bw4.json"
    good.write_text(to_json(c))
    bad = tmp_path / "mutant.json"
    bad.write_text(to_json(flip_gate(c, partial_product_gates(c)[0])))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cases = [
        (["verify", str(good)], 0),
        (["verify", str(bad), "--random", "20000"], 1),
        (["verify", str(bad), "--random", "20000", "--format", "json"], 1),
        (["gen", "--arch", "bw", "--width", "4", "--out", str(tmp_path / "g.v")], 0),
        (["--help"], 0),
        (["verify", "-h"], 0),
    ]
    for args, code in cases:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gatemul.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader is gone before anything is written
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (code, b""), args


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_stdout_is_a_refusal(tmp_path, unbuffered):
    # Every write to /dev/full fails with ENOSPC: one error line, no
    # traceback, exit 2, whatever the command would have exited with.
    c = baugh_wooley_multiplier(4)
    good = tmp_path / "bw4.json"
    good.write_text(to_json(c))
    bad = tmp_path / "mutant.json"
    bad.write_text(to_json(flip_gate(c, partial_product_gates(c)[0])))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cases = [
        ["gen", "--arch", "bw", "--width", "4", "--out", str(tmp_path / "g.v")],
        ["verify", str(good)],
        ["verify", str(good), "--format", "json"],
        ["verify", str(bad)],
        ["verify", str(bad), "--format", "json"],
        ["compare", "--width", "4", "bw", "booth4"],
        ["--help"],
        ["verify", "-h"],
    ]
    for args in cases:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "gatemul.cli", *args],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        assert (proc.returncode, proc.stderr) == (
            2, b"error: cannot write stdout: [Errno 28] No space left on device\n"
        ), args


def test_process_leaves_every_output_complete(tmp_path):
    # A command's process ends with os._exit, past interpreter teardown:
    # what it wrote to a regular file is all there, and its exit code holds.
    c = baugh_wooley_multiplier(16)
    mutant = flip_gate(c, partial_product_gates(c)[0])
    bad = tmp_path / "bw16_mutant.json"
    bad.write_text(to_json(mutant))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def to_file(args):
        out = tmp_path / "stdout.txt"
        with open(out, "w") as f:
            proc = subprocess.run([sys.executable, "-m", "gatemul.cli", *args],
                                  stdout=f, stderr=subprocess.PIPE, env=env, timeout=120)
        return proc.returncode, proc.stderr, out.read_text()

    code, err, report = to_file(["verify", str(bad), "--random", "20000", "--format", "json"])
    spec = cli._Operands(16, 16, Signedness.SIGNED, Signedness.SIGNED)
    assert (code, err) == (1, b"")
    assert json.loads(report)["passed"] is False
    assert report == verify_random(mutant, spec, count=20000, seed=0).to_json()
    netlist = tmp_path / "bw16.json"
    code, err, printed = to_file(["gen", "--arch", "bw", "--width", "16", "--out", str(netlist)])
    assert (code, err) == (0, b"") and printed.endswith(f"wrote {netlist}\n")
    assert netlist.read_text() == to_json(c)
    assert to_file(["gen", "--arch", "bw", "--width", "257", "--out", str(netlist)]) == (
        2, b"error: widths must be <= 256\n", "")


class TestCompare:
    def test_three_way_table(self, capsys):
        code = run(["compare", "--width", "8", "--model", "unit",
                    "booth4", "bw", "decomposed:4"])
        assert code == 0
        table = capsys.readouterr().out
        assert "booth4" in table and "bw" in table and "decomposed:4" in table
        assert "unit" in table.splitlines()[0]
        # The decomposed column has the smallest depth.
        depth_row = next(l for l in table.splitlines() if "depth" in l)
        cells = [c.strip() for c in depth_row.strip("|").split("|")]
        depths = [int(x) for x in cells[1:]]
        assert depths[2] == min(depths)

    def test_self_ratio_is_one(self, capsys):
        assert run(["compare", "--width", "8", "booth4", "booth4"]) == 0
        table = capsys.readouterr().out
        ratio_row = next(l for l in table.splitlines() if "ratio" in l)
        cells = [c.strip() for c in ratio_row.strip("|").split("|")]
        assert cells[1:] == ["1", "1"]

    def test_csv_matches_markdown(self, capsys):
        args = ["compare", "--width", "4", "--model", "tech-demo", "bw", "array"]
        assert run(args) == 0
        md = capsys.readouterr().out
        assert run(args + ["--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        md_cells = [
            [c.strip() for c in line.strip("|").split("|")]
            for line in md.splitlines() if "---" not in line
        ]
        csv_cells = [line.split(",") for line in csv_text.splitlines()]
        assert md_cells == csv_cells

    def test_holds_one_circuit_at_a_time(self, monkeypatch, capsys):
        # Each circuit is built once the previous one is dropped, whatever
        # the token count.
        real, built = cli.generate, []

        def generate(spec):
            assert not built or built[-1]() is None
            c = real(spec)
            built.append(weakref.ref(c))
            return c

        monkeypatch.setattr(cli, "generate", generate)
        assert run(["compare", "--width", "8", "bw", "booth4", "decomposed:4", "bw"]) == 0
        assert len(built) == 4

    def test_single_arch_rejected(self, capsys):
        assert run(["compare", "--width", "8", "bw"]) == 2

    def test_unknown_token_rejected(self, capsys):
        assert run(["compare", "--width", "8", "bw", "wallace"]) == 2
        assert "wallace" in capsys.readouterr().err

    def test_zero_leaf_rejected(self, capsys):
        assert run(["compare", "--width", "8", "bw", "decomposed:0"]) == 2
        assert "leaf_width" in capsys.readouterr().err


    def test_leaf_on_flat_token_rejected(self, capsys):
        assert run(["compare", "--width", "8", "bw:4", "booth4"]) == 2
        assert capsys.readouterr().err == (
            "error: leaf_width only applies to the Decomposed architecture\n"
        )

    def test_non_integer_leaf_names_the_token(self, capsys):
        assert run(["compare", "--width", "8", "decomposed:abc", "booth4"]) == 2
        assert capsys.readouterr().err == "error: invalid leaf in 'decomposed:abc'\n"

    def test_empty_leaf_suffix_means_default_leaf(self, capsys):
        argv = ["compare", "--width", "8", "--format", "csv", "decomposed:", "decomposed:4"]
        assert run(argv) == 0
        for row in capsys.readouterr().out.splitlines()[1:]:
            metric, default, leaf4 = row.split(",")
            assert default == leaf4, metric

@pytest.mark.parametrize("argv, err", [
    (["gen", "--width", "8"],
     "gatemul gen: error: the following arguments are required: --arch, --out\n"),
    # Operand signs come from the netlist file alone.
    (["verify", "{dir}/bw4.json", "--sign-a", "signed"],
     "gatemul: error: unrecognized arguments: --sign-a signed\n"),
], ids=["gen_missing_arch_and_out", "verify_sign_a"])
def test_usage_error_exits_2(tmp_path, argv, err):
    (tmp_path / "bw4.json").write_text(to_json(baugh_wooley_multiplier(4)))
    proc = _run_cli([a.format(dir=tmp_path) for a in argv])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: gatemul")
    assert proc.stderr.endswith(err)
    assert "Traceback" not in proc.stderr


class TestRefusals:
    """Every refused input exits 2 with one ``error:`` line on stderr."""

    @pytest.fixture
    def netlists(self, tmp_path):
        for width in (4, 8, 16):
            text = to_json(baugh_wooley_multiplier(width))
            (tmp_path / f"bw{width}.json").write_text(text)
        b = CircuitBuilder("inv")
        (a,) = b.add_input("A", 1, Signedness.UNSIGNED)
        b.add_output("Y", [b.add_gate(GateKind.NOT, (a,))], Signedness.UNSIGNED)
        (tmp_path / "one_in.json").write_text(to_json(b.finalize()))
        return tmp_path

    @pytest.mark.parametrize("argv, err", [
        (["gen", "--arch", "decomposed", "--width", "8", "--leaf", "3",
          "--out", "{dir}/x.json"],
         "error: leaf_width must divide the width\n"),
        (["gen", "--arch", "bw", "--width", "4", "--out", "{dir}/x.vhdl"],
         "error: output file must end in .json or .v, got 'x.vhdl'\n"),
        (["gen", "--arch", "bw", "--width", "4", "--out", "{dir}/missing/x.json"],
         "error: cannot write {dir}/missing/x.json: [Errno 2] No such file or "
         "directory: '{dir}/missing/x.json'\n"),
        (["verify", "{dir}/nope.json"],
         "error: cannot read {dir}/nope.json: [Errno 2] No such file or "
         "directory: '{dir}/nope.json'\n"),
        (["verify", "{dir}/one_in.json"],
         "error: expected a 2-input, 1-output multiplier netlist\n"),
        (["verify", "{dir}/bw16.json", "--exhaustive"],
         "error: width 16 exceeds the exhaustive cap (8); use verify_random\n"),
        (["verify", "{dir}/bw4.json", "--random", "0"],
         "error: count must be >= 1\n"),
        (["compare", "--width", "8", "bw"],
         "error: compare needs at least two architecture tokens\n"),
        (["compare", "--width", "8", "bw", "wallace"],
         "error: unknown architecture token 'wallace'\n"),
        (["gen", "--arch", "bw", "--width", str(2**62), "--out", "{dir}/x.json"],
         "error: widths must be <= 256\n"),
        (["compare", "--width", str(10**20), "bw", "booth4"],
         "error: widths must be <= 256\n"),
        (["verify", "{dir}/bw8.json", "--random", str(2**59)],
         "error: count must be <= 16777216\n"),
    ], ids=["spec", "suffix", "unwritable_out", "unreadable_file", "not_2_in_1_out",
            "exhaustive_cap", "random_0", "single_token", "unknown_token",
            "gen_width_2**62", "compare_width_10**20", "verify_random_2**59"])
    def test_error_text_is_pinned(self, netlists, capsys, argv, err):
        assert run([a.format(dir=netlists) for a in argv]) == 2
        assert capsys.readouterr() == ("", err.format(dir=netlists))

    @pytest.mark.parametrize("argv", [
        ["gen", "--arch", "bw", "--width", str(2**62), "--out", "{dir}/x.json"],
        ["compare", "--width", str(10**20), "bw", "booth4"],
        ["verify", "{dir}/bw8.json", "--random", str(2**59)],
    ], ids=["gen_width_2**62", "compare_width_10**20", "verify_random_2**59"])
    def test_size_too_large_exits_2_without_traceback(self, netlists, argv):
        # A size cap refuses each argv with a ValueError before anything is
        # allocated.
        proc = _run_cli([a.format(dir=netlists) for a in argv])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, err", [
        (["gen", "--arch", "bw", "--width", "8", "--out", "{dir}/x.txt"],
         "error: output file must end in .json or .v, got 'x.txt'\n"),
        (["compare", "--width", "8", "bw", "nope"],
         "error: unknown architecture token 'nope'\n"),
        (["compare", "--width", "8", "bw", "decomposed:3"],
         "error: leaf_width must divide the width\n"),
    ], ids=["gen_suffix", "compare_unknown_token", "compare_bad_leaf"])
    def test_refused_before_any_circuit_is_built(self, tmp_path, capsys, monkeypatch,
                                                 argv, err):
        built = []
        monkeypatch.setattr(cli, "generate", lambda spec: built.append(spec))
        assert run([a.format(dir=tmp_path) for a in argv]) == 2
        assert capsys.readouterr() == ("", err)
        assert built == []


class TestCollectorState:
    """main pauses the cyclic collector while any command runs and leaves it
    as it found it."""

    @pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @staticmethod
    def _spy(monkeypatch, name, seen):
        """Record ``gc.isenabled()`` at each call of ``cli.<name>`` in ``seen``."""
        real = getattr(cli, name)

        def spy(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)

    @pytest.mark.parametrize("argv, code, called", [
        (["gen", "--arch", "bw", "--width", "8", "--out", "{dir}/bw8.json"], 0,
         ["generate"]),
        # Refused after generating: the output directory does not exist.
        (["gen", "--arch", "bw", "--width", "8", "--out", "{dir}/missing/bw8.json"], 2,
         ["generate"]),
        (["compare", "--width", "8", "bw", "booth4", "decomposed:4"], 0,
         ["generate"] * 3),
        (["verify", "{dir}/bw4.json"], 0, ["from_json", "verify_exhaustive"]),
        (["verify", "{dir}/bw4.json", "--random", "50"], 0, ["from_json", "verify_random"]),
        (["verify", "{dir}/bw4.json", "--format", "json"], 0,
         ["from_json", "verify_exhaustive"]),
        (["verify", "{dir}/bw4_mutant.json", "--random", "50"], 1,
         ["from_json", "verify_random"]),
        (["verify", "{dir}/garbage.json"], 2, ["from_json"]),
    ], ids=["gen", "gen_exit_2", "compare", "verify", "verify_random", "verify_json",
            "verify_exit_1", "verify_exit_2"])
    def test_every_command_runs_with_it_paused(
        self, gc_state, monkeypatch, tmp_path, capsys, argv, code, called
    ):
        c = baugh_wooley_multiplier(4)
        (tmp_path / "bw4.json").write_text(to_json(c))
        (tmp_path / "bw4_mutant.json").write_text(to_json(flip_gate(c, partial_product_gates(c)[0])))
        (tmp_path / "garbage.json").write_text("not a netlist")
        seen = []
        for name in ("generate", "from_json", "verify_exhaustive", "verify_random"):
            self._spy(monkeypatch, name, seen)
        assert run([a.format(dir=tmp_path) for a in argv]) == code
        assert seen == [(name, False) for name in called]
        assert gc.isenabled() is gc_state

    @pytest.mark.parametrize("error, err", [
        (MemoryError(), "error: out of memory\n"),
        # numpy's message names an array; the user is told the one fact.
        (MemoryError("Unable to allocate 512. KiB for an array with shape (65536,) "
                     "and data type int64"), "error: out of memory\n"),
        (OverflowError("Python int too large to convert to C ssize_t"),
         "error: Python int too large to convert to C ssize_t\n"),
    ], ids=["MemoryError", "numpy_MemoryError", "OverflowError"])
    def test_bare_memory_error_exits_2_and_restores_it(
        self, gc_state, monkeypatch, tmp_path, capsys, error, err
    ):
        # The size caps refuse every argv before either error can occur, so
        # the generator raises it here.
        seen = []

        def exhausted(spec):
            seen.append(gc.isenabled())
            raise error

        monkeypatch.setattr(cli, "generate", exhausted)
        argv = ["gen", "--arch", "bw", "--width", "8", "--out", str(tmp_path / "bw8.json")]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", err)
        assert seen == [False]
        assert gc.isenabled() is gc_state

    def test_usage_error_leaves_it(self, gc_state, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--width", "8"])
        assert exc.value.code == 2
        assert gc.isenabled() is gc_state


class TestNumpyOffStartup:
    """Each command loads only its own layer modules: gen, compare and
    exhaustive verify never load numpy, and verify --random loads it on first
    use."""

    def _loaded_after(self, body, prelude="import gatemul, gatemul.cli"):
        """numpy and the gatemul layer modules (bare names) loaded after
        ``prelude`` and ``body`` run in a fresh interpreter."""
        code = (
            "import sys\n"
            f"{prelude}\n"
            f"{body}\n"
            "print(*sorted(sys.modules))\n"
        )
        proc = _run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        modules = proc.stdout.splitlines()[-1].split()
        return {m.removeprefix("gatemul.") for m in modules
                if m == "numpy" or (m.startswith("gatemul.") and m != "gatemul.cli")}

    def _numpy_loaded_after(self, body):
        return "numpy" in self._loaded_after(body)

    def test_import_leaves_numpy_unloaded(self):
        assert not self._numpy_loaded_after("")

    @pytest.mark.parametrize("prelude", ["import gatemul", "import gatemul.cli"])
    def test_import_loads_no_layer(self, prelude):
        assert self._loaded_after("", prelude) == set()

    @pytest.mark.parametrize("argv, unloaded", [
        (["gen", "--arch", "bw", "--width", "8", "--out", "{dir}/bw8.json"],
         {"verify", "sim", "timing"}),
        (["gen", "--arch", "decomposed", "--width", "8", "--out", "{dir}/d8.v"],
         {"verify", "sim", "timing"}),
        (["compare", "--width", "8", "--model", "tech-demo", "bw", "booth4",
          "decomposed:4"], {"emit", "verify", "sim"}),
    ], ids=["gen_json", "gen_verilog", "compare"])
    def test_gen_and_compare_leave_numpy_unloaded(self, tmp_path, argv, unloaded):
        argv = [a.format(dir=tmp_path) for a in argv]
        loaded = self._loaded_after(f"assert gatemul.cli.main({argv!r}) == 0")
        assert not loaded & {"numpy", *unloaded}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exhaustive_verify_leaves_numpy_unloaded(self, tmp_path, fmt):
        c = baugh_wooley_multiplier(8)
        good, bad = tmp_path / "bw8.json", tmp_path / "bw8_mutant.json"
        good.write_text(to_json(c))
        bad.write_text(to_json(flip_gate(c, partial_product_gates(c)[0])))
        loaded = self._loaded_after(
            f"assert gatemul.cli.main(['verify', {str(good)!r}, '--format', {fmt!r}]) == 0\n"
            f"assert gatemul.cli.main(['verify', {str(bad)!r}, '--format', {fmt!r}]) == 1"
        )
        assert not loaded & {"numpy", "multipliers", "genlib", "timing"}

    def test_random_verify_loads_numpy(self, tmp_path):
        out = tmp_path / "bw4.json"
        out.write_text(to_json(baugh_wooley_multiplier(4)))
        loaded = self._loaded_after(
            f"assert gatemul.cli.main(['verify', {str(out)!r}, '--random', '50']) == 0"
        )
        assert "numpy" in loaded
        assert not loaded & {"multipliers", "genlib", "timing"}

    def test_random_verify_without_numpy_exits_2(self, tmp_path):
        # numpy blocked: one error line naming it, nothing on stdout, and
        # the refusal's exit code rather than a traceback's 1.
        out = tmp_path / "bw4.json"
        out.write_text(to_json(baugh_wooley_multiplier(4)))
        proc = _run_python([
            "-c",
            "import sys; sys.modules['numpy'] = None; from gatemul.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "verify", str(out), "--random", "10",
        ])
        assert proc.returncode == 2
        assert proc.stdout == ""
        line, = proc.stderr.splitlines()
        assert line.startswith("error: verify --random needs numpy, which failed to load: ")

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_main_sets_one_blas_thread_unless_set(self, tmp_path, preset):
        # Importing gatemul sets nothing; main sets the variable only where
        # it is absent, before numpy (and its OpenBLAS) loads.  Linux lists
        # the process's threads under /proc/self/task.
        out = tmp_path / "bw4.json"
        out.write_text(to_json(baugh_wooley_multiplier(4)))
        want = preset or "1"
        code = (
            "import os\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            f"if {preset!r} is not None:\n"
            f"    os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}\n"
            "import gatemul.cli\n"
            f"assert os.environ.get('OPENBLAS_NUM_THREADS') == {preset!r}\n"
            f"assert gatemul.cli.main(['verify', {str(out)!r}, '--random', '50']) == 0\n"
            f"assert os.environ['OPENBLAS_NUM_THREADS'] == {want!r}\n"
            f"if {want!r} == '1' and os.path.isdir('/proc/self/task'):\n"
            "    assert os.listdir('/proc/self/task') == [str(os.getpid())]\n"
        )
        proc = _run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr

    def test_cli_names_the_verify_functions(self):
        # A wrapper installed on gatemul.cli.verify_* must be what main() calls.
        assert not self._numpy_loaded_after(
            "import gatemul.verify as v\n"
            "assert gatemul.cli.verify_random is v.verify_random\n"
            "assert gatemul.cli.verify_exhaustive is v.verify_exhaustive\n"
            "assert gatemul.verify.VerifyReport is gatemul.VerifyReport"
        )


def _traced_op_wrapped():
    """The keys of ``WRAPPED`` in bench/traced_op.py: the names in gatemul.cli
    that the benchmark's traced run replaces with span-recording wrappers."""
    source = (SRC.parent / "bench" / "traced_op.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED":
            return {ast.literal_eval(key) for key in node.value.keys}
    raise AssertionError("bench/traced_op.py defines no WRAPPED")


class TestTracedOpContract:
    """bench/traced_op.py sets its wrappers on gatemul.cli; each name must be
    the layer's function, and a stand-in set there must be what main calls."""

    COMMANDS = {
        "gen_json": (["gen", "--arch", "bw", "--width", "4", "--out", "{dir}/out.json"],
                     {"generate", "to_json", "depth"}),
        "gen_verilog": (["gen", "--arch", "bw", "--width", "4", "--out", "{dir}/out.v"],
                        {"generate", "to_verilog", "depth"}),
        "verify": (["verify", "{dir}/bw4.json"], {"from_json", "verify_exhaustive"}),
        "verify_random": (["verify", "{dir}/bw4.json", "--random", "50"],
                          {"from_json", "verify_random"}),
        "compare": (["compare", "--width", "4", "bw", "booth4"], {"generate", "compare"}),
    }

    def test_wrapped_names_are_the_layer_functions(self):
        wrapped = _traced_op_wrapped()
        assert wrapped == set().union(*(called for _, called in self.COMMANDS.values()))
        for name in wrapped:
            assert getattr(cli, name) is getattr(gatemul, name), name

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_main_calls_the_stand_in(self, monkeypatch, tmp_path, capsys, command):
        argv, called = self.COMMANDS[command]
        (tmp_path / "bw4.json").write_text(to_json(baugh_wooley_multiplier(4)))
        seen = set()
        for name in _traced_op_wrapped():
            real = getattr(cli, name)

            def stand_in(*args, _name=name, _real=real, **kwargs):
                seen.add(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, stand_in)
        assert run([a.format(dir=tmp_path) for a in argv]) == 0
        assert seen == called
