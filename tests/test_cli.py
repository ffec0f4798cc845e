import csv
import io
import json
import os
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import elemrange
from elemrange import cli, unitary_opt
from elemrange.cli import main
from elemrange.elemop import KTupleOperator, random_instance
from elemrange.io import (
    InstanceFormatError,
    dump_csv,
    dump_result,
    dumps_result,
    instance_to_dict,
    parse_instance,
    parse_instance_dict,
    write_instance,
    write_text_atomic,
)
from elemrange.linalg import haar_unitary
from elemrange.verify import verify_main

IDENTITY_DOC = {
    "n": 2,
    "k": 1,
    "a": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
    "b": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
}


@pytest.fixture
def identity_path(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(IDENTITY_DOC))
    return str(path)


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this elemrange."""
    src = str(Path(elemrange.__file__).resolve().parent.parent)
    return dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )


def fast_args(extra=()):
    return ["--directions", "16", "--restarts", "2", *extra]


# The flags each subcommand runs its fast tests with.
COMMAND_ARGS = {
    "fov": ["--directions", "16"],
    "norm": ["--restarts", "2"],
    **{command: fast_args() for command in ("range", "verify", "derivation", "projection")},
}


class TestInstanceFormat:
    def test_identity_doc_parses(self):
        r = parse_instance_dict(IDENTITY_DOC)
        assert r.n == 2 and r.k == 1
        assert np.allclose(r.a[0], np.eye(2))
        assert np.allclose(r.b[0], np.eye(2))

    def test_round_trip_bit_exact(self, tmp_path, rng):
        r = random_instance(3, 2, rng, label="roundtrip")
        path = str(tmp_path / "inst.json")
        write_instance(KTupleOperator(r.a, r.b, label=r.label, seed=17), path)
        back = parse_instance(path)
        assert np.array_equal(back.a, r.a)
        assert np.array_equal(back.b, r.b)
        assert back.label == "roundtrip"
        assert back.seed == 17

    def test_k_mismatch_rejected(self):
        doc = dict(IDENTITY_DOC, k=2)
        with pytest.raises(InstanceFormatError, match="'a'"):
            parse_instance_dict(doc)

    def test_non_square_rejected(self):
        doc = json.loads(json.dumps(IDENTITY_DOC))
        doc["a"][0][0] = [[1, 0]]
        with pytest.raises(InstanceFormatError, match="row 0"):
            parse_instance_dict(doc)

    def test_bad_pair_rejected(self):
        doc = json.loads(json.dumps(IDENTITY_DOC))
        doc["a"][0][0][0] = [1, 0, 0]
        with pytest.raises(InstanceFormatError, match=r"\[re, im\]"):
            parse_instance_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("n", True), ("k", True), ("seed", False), ("pair", [True, False]), ("pair", [1, False])],
    )
    def test_boolean_rejected(self, field, value):
        # JSON true and false are not numbers, though Python's bool is an int.
        doc = json.loads(json.dumps(IDENTITY_DOC))
        if field == "pair":
            doc["a"][0][0][0] = value
        else:
            doc[field] = value
        where = r"\[re, im\]" if field == "pair" else f"field '{field}'"
        with pytest.raises(InstanceFormatError, match=where):
            parse_instance_dict(doc)

    def test_boolean_dimension_is_2(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(dict(IDENTITY_DOC, n=True)))
        assert main(["norm", str(path)]) == 2
        assert "field 'n'" in capsys.readouterr().err

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,\n  "k": }')
        with pytest.raises(InstanceFormatError, match="line 2"):
            parse_instance(str(path))

    def test_missing_file(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("/nonexistent/path.json")


class TestExitCodes:
    def test_usage_error_is_2(self, tmp_path):
        assert main(["norm", str(tmp_path / "missing.json")]) == 2

    def test_malformed_instance_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["norm", str(path)]) == 2

    def test_pass_is_0(self, identity_path, capsys):
        code = main(["verify", identity_path, *fast_args()])
        capsys.readouterr()
        assert code == 0

    def test_failed_verification_is_1(self, identity_path, capsys):
        code = main(["verify", identity_path, "--tol", "1e-15", *fast_args()])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_non_finite_smax_factor_is_2(self, identity_path, factor, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", identity_path, *fast_args(["--smax-factor", factor])])
        assert exc.value.code == 2
        assert "argument --smax-factor: must be >= 16 and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["1,2,3", "nan,0", "0,nan", "inf", "1,-inf", "abc", "", "1,"])
    def test_bad_shift_is_2(self, identity_path, z, capsys):
        code = main(["norm", identity_path, "--restarts", "1", "--z", z])
        out, err = capsys.readouterr()
        assert code == 2
        assert "--z" in err and "norm value" not in out

    @pytest.mark.parametrize("command", ["verify", "derivation"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_empty_batch_is_2(self, command, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--count", count])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("fov", "--seed"), ("fov", "--restarts"), ("fov", "--tol"),
         ("norm", "--directions"), ("norm", "--haar-samples"), ("range", "--tol"),
         ("derivation", "--smax-factor"), ("range", "--haar-samples"),
         ("verify", "--haar-samples"), ("derivation", "--haar-samples"),
         ("projection", "--haar-samples")],
    )
    def test_flag_the_handler_does_not_read_is_2(self, identity_path, command, flag, capsys):
        instance = [] if command == "derivation" else [identity_path]
        with pytest.raises(SystemExit) as exc:
            main([command, *instance, flag, "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [[command, "--tol", tol]
         for command in ("verify", "derivation", "projection") for tol in ("nan", "-1", "inf")]
        + [["projection", "--dim", "2", "--rank", rank] for rank in ("3", "5", "-1")]
        + [[command, "--dim", dim]
           for command in ("verify", "derivation", "projection") for dim in ("0", "-1")]
        + [["verify", "--tuples", tuples] for tuples in ("0", "-1")]
        + [[command, "--restarts", "0"] for command in ("verify", "derivation", "projection")],
        ids=lambda argv: "-".join(argv),
    )
    def test_value_out_of_range_is_2(self, argv, capsys):
        # Exit 1 means a check exceeded its tolerance, so a tolerance no
        # discrepancy can be measured against is a usage error; so are a
        # projection rank the dimension cannot hold, and a dimension, tuple
        # length or restart count below 1.
        try:
            code = main([*argv, "--directions", "8"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert argv[-2] in err and "PASS" not in out

    @pytest.mark.parametrize(
        "argv",
        [[command, "--directions", m]
         for command in ("fov", "range", "verify", "derivation", "projection")
         for m in ("0", "-4", "6")]
        + [[command, "--seed", "-1"] for command in ("norm", "range", "verify")]
        + [[command, "--smax-factor", factor]
           for command in ("range", "verify", "projection") for factor in ("8", "15.9", "-64")],
        ids=lambda argv: "-".join(argv),
    )
    def test_flag_below_its_minimum_names_itself(self, identity_path, argv, capsys):
        # --directions needs 8, --seed 0 and --smax-factor 16; the usage
        # error names the flag, before any side is computed.
        command, *rest = argv
        instance = [identity_path] if command in ("fov", "norm", "range") else []
        with pytest.raises(SystemExit) as exc:
            main([command, *instance, *rest])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: must be >= " in err

    def test_zero_tolerance_is_checked(self, identity_path, capsys):
        code = main(["verify", identity_path, "--tol", "0", *fast_args()])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("command", ["projection", "derivation"])
    def test_odd_directions_is_2(self, command, capsys):
        code = main([command, "--directions", "9", "--restarts", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "even number of directions" in err


def projection_files(tmp_path, rng) -> list:
    """Projection instance files on n = 2, 2, 3, 2."""
    v = haar_unitary(2, rng)[:, :1]
    q = haar_unitary(3, rng)[:, :2]
    projections = [np.diag([1.0, 0.0]), v @ v.conj().T, q @ q.conj().T, np.eye(2)]
    paths = []
    for i, p in enumerate(projections):
        paths.append(str(tmp_path / f"p{i}.json"))
        write_instance(KTupleOperator.multiplication(p, p, label=f"p{i}"), paths[-1])
    return paths


def mixed_files(identity_path, tmp_path) -> list:
    """Verify instance files on n = 2, 3, 2: three runs of one instance."""
    path3 = str(tmp_path / "identity3.json")
    write_instance(KTupleOperator.identity(3, label="identity3"), path3)
    return [identity_path, path3, identity_path]


class TestCommands:
    def test_fov_json(self, identity_path, tmp_path, capsys):
        out = tmp_path / "fov.json"
        code = main(["fov", identity_path, "--directions", "16",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        reg = doc["instances"][0]["regions"]["fov"]
        assert reg["m"] == 16
        # W(I) = {1}
        assert reg["support"][0][1] == pytest.approx(1.0, abs=1e-12)

    def test_norm_value(self, identity_path, tmp_path, capsys):
        out = tmp_path / "norm.json"
        code = main(["norm", identity_path, "--restarts", "2", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["instances"][0]["diagnostics"]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_norm_with_shift(self, identity_path, tmp_path, capsys):
        out = tmp_path / "norm.json"
        code = main(["norm", identity_path, "--restarts", "2", "--z", "0.5,0",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["instances"][0]["diagnostics"]["value"] == pytest.approx(0.5, abs=1e-10)

    def test_range_both_sides(self, identity_path, tmp_path, capsys):
        out = tmp_path / "range.json"
        code = main(["range", identity_path, *fast_args(["--out", str(out)])])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        regions = doc["instances"][0]["regions"]
        assert set(regions) == {"lhs", "rhs"}
        assert doc["instances"][0]["residuals"] is not None

    def test_range_csv(self, identity_path, tmp_path, capsys):
        out = tmp_path / "range.csv"
        code = main(["range", identity_path, "--format", "csv",
                     *fast_args(["--out", str(out)])])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "instance,theta,h_lhs,h_rhs,residual,restart_spread"
        assert len(lines) == 17

    def test_range_svg(self, identity_path, tmp_path, capsys):
        out = tmp_path / "range.svg"
        code = main(["range", identity_path, "--format", "svg",
                     *fast_args(["--out", str(out)])])
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg")
        # Each drawn region, lhs and rhs, has one legend swatch in its
        # colour and one legend label.
        fills = sorted(
            line.split('fill="')[1].split('"')[0] for line in text.splitlines()
            if line.startswith("<rect ") and 'width="10" height="10"' in line
        )
        assert fills == ["#1f77b4", "#d62728"]
        for name in ("lhs", "rhs"):
            assert text.count(f">{name}</text>") == 1

    def test_svg_escapes_the_label(self, tmp_path, capsys):
        path = str(tmp_path / "amp.json")
        write_instance(KTupleOperator.identity(2, label="A&B <1>"), path)
        out = tmp_path / "fov.svg"
        assert main(["fov", path, "--directions", "16", "--format", "svg",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        root = ET.fromstring(out.read_text())
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "A&B <1>"

    def test_out_file_gets_the_umask_mode(self, identity_path, tmp_path, capsys):
        # The result file has the mode open() gives a new file, not 0600.
        old = os.umask(0o022)
        try:
            out = tmp_path / "fov.json"
            assert main(["fov", identity_path, "--directions", "16",
                         "--out", str(out)]) == 0
            plain = tmp_path / "plain.json"
            with open(plain, "w"):
                pass
        finally:
            os.umask(old)
        capsys.readouterr()
        assert out.stat().st_mode == plain.stat().st_mode

    def test_range_writes_one_witness_per_direction(self, identity_path, tmp_path, capsys):
        out = tmp_path / "range.json"
        assert main(["range", identity_path, "--side", "rhs", "--directions", "720",
                     "--restarts", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text())["instances"][0]["witnesses"]) == 720

    def test_svg_requires_regions(self, identity_path, tmp_path, capsys):
        # norm's result has no region, so norm does not offer svg.
        out = tmp_path / "norm.svg"
        with pytest.raises(SystemExit) as exc:
            main(["norm", identity_path, "--restarts", "2", "--format", "svg",
                  "--out", str(out)])
        capsys.readouterr()
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "where", ["missing/r.json", ".", "new/"], ids=["missing_dir", "directory", "no_name"]
    )
    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_unwritable_out_is_rejected_first(self, tmp_path, capsys, command, where):
        # A file in a missing directory, a directory, and a path that names
        # no file.  The instance file does not exist: the usage error comes
        # before it is read.
        out = os.path.join(tmp_path, where)
        with pytest.raises(SystemExit) as exc:
            main([command, str(tmp_path / "missing.json"), "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --out" in err
        # The subcommand's usage line, as argparse gives for its own errors.
        assert err.startswith(f"usage: elemrange {command} ")

    @pytest.mark.parametrize(
        "command, fmt",
        [(command, fmt) for command in COMMAND_ARGS
         for fmt in ("json", "csv", *(() if command == "norm" else ("svg",)))],
    )
    def test_stdout_is_the_out_file(
        self, identity_path, derivation_path, tmp_path, capsys, command, fmt
    ):
        # Every format has one writer: stdout gets the bytes --out gets, and
        # the status lines go to stderr.
        instance = derivation_path if command == "derivation" else identity_path
        argv = [command, instance, "--format", fmt, *COMMAND_ARGS[command]]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / f"result.{fmt}"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {out}\n")
        assert stdout.encode() == out.read_bytes()
        if fmt == "svg":
            assert stdout.startswith("<svg")

    def test_reader_that_closes_stdout_early_ends_the_run_quietly(self, identity_path):
        # `range ... | head -c 10`: the result (about 150 kB) is larger than
        # a pipe's buffer, so the writer meets the closed pipe.  The run
        # ends with its own exit code, and nothing on stderr.
        proc = subprocess.Popen(
            [sys.executable, "-m", "elemrange.cli", "range", identity_path, "--side", "rhs",
             "--directions", "720", "--restarts", "1"],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    def test_verify_json_on_stdout_parses(self, identity_path, capsys):
        # Without --out the result is stdout, and the check lines go to stderr.
        assert main(["verify", identity_path, "--directions", "8", "--restarts", "1"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert [c["name"] for c in doc["instances"][0]["checks"]][0] == "main_formula"
        assert "main_formula" in err and "PASS" in err

    def test_norm_csv_on_stdout_parses(self, identity_path, capsys):
        assert main(["norm", identity_path, "--restarts", "1", "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2 and len(rows[0]) == len(rows[1])
        assert "norm value" in err

    def test_verify_random_batch(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--count", "2", "--dim", "2", "--tuples", "2",
                     "--seed", "3", *fast_args(["--out", str(out)])])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "main_formula" in stdout
        doc = json.loads(out.read_text())
        assert len(doc["instances"]) == 2
        for inst in doc["instances"]:
            for chk in inst["checks"]:
                assert chk["passed"]

    def test_verify_restart_spreads_are_the_max_of_both_sides(self, tmp_path, capsys):
        # verify reports the operator side first; the orbit side's spreads
        # must still count, as they do for range --side both.
        r = random_instance(2, 2, np.random.default_rng(4), label="spreads")
        path = tmp_path / "spreads.json"
        write_instance(r, str(path))
        out = tmp_path / "verify.json"
        assert main(["verify", str(path), *fast_args(["--out", str(out)])]) == 0
        capsys.readouterr()
        spreads = json.loads(out.read_text())["instances"][0]["restart_spreads"]
        rep = verify_main([r], m=16, cfg=unitary_opt.OptConfig(restarts=2))[0]
        lhs, rhs = (rep.artifacts[side].restart_spreads for side in ("lhs", "rhs"))
        assert np.any(rhs > lhs)
        assert spreads == [float(s) for s in np.maximum(lhs, rhs)]

    def test_derivation_instance_roundtrip(self, tmp_path, capsys):
        a = np.diag([0.0, 1.0])
        b = np.diag([0.0, 1.0j])
        delta = KTupleOperator.derivation(a, b, label="rect")
        path = str(tmp_path / "delta.json")
        write_instance(delta, path)
        code = main(["derivation", path, *fast_args()])
        capsys.readouterr()
        assert code == 0

    def test_derivation_rejects_non_derivation(self, identity_path, capsys):
        code = main(["derivation", identity_path, *fast_args()])
        err = capsys.readouterr().err
        assert code == 2
        assert "does not encode" in err

    def test_projection_default(self, tmp_path, capsys):
        out = tmp_path / "proj.json"
        code = main(["projection", "--dim", "2", "--rank", "1",
                     *fast_args(["--out", str(out)])])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        diag = doc["instances"][0]["diagnostics"]
        assert diag["support_rhs_0"] == pytest.approx(1.0, abs=1e-3)
        assert diag["support_rhs_pi"] == pytest.approx(0.125, abs=1e-3)
        assert diag["hermitian"] is False

    def test_projection_batch_matches_solo_runs(self, tmp_path, capsys, rng):
        # Files on n = 2, 2, 3, 2 run as three batches; each instance's
        # fragment is byte-equal to the one its file writes alone.
        paths = projection_files(tmp_path, rng)

        def run(files, name):
            out = tmp_path / f"{name}.json"
            assert main(["projection", *files, *fast_args(["--out", str(out)])]) == 0
            return [dumps_result(inst) for inst in json.loads(out.read_text())["instances"]]

        whole = run(paths, "whole")
        assert len(whole) == 4
        for i, path in enumerate(paths):
            assert run([path], f"alone{i}") == [whole[i]]
        capsys.readouterr()

    def test_projection_rejects_non_projection_instance(self, tmp_path, capsys, monkeypatch):
        bad = KTupleOperator(np.diag([0.5, 0.0])[None], np.diag([0.5, 0.0])[None])
        path = str(tmp_path / "notproj.json")
        write_instance(bad, path)
        code = main(["projection", path, *fast_args()])
        capsys.readouterr()
        assert code == 2

        # Every file is checked while it is read, before any verification
        # runs, and the error names the offending instance.
        def no_verify(*args, **kwargs):
            raise AssertionError("verification ran")

        monkeypatch.setattr(elemrange.verify, "verify_main", no_verify)
        good = str(tmp_path / "good_n3.json")
        p = np.diag([1.0, 1.0, 0.0])
        write_instance(KTupleOperator.multiplication(p, p, label="good_n3"), good)
        bad_path = str(tmp_path / "bad_n2.json")
        write_instance(KTupleOperator(bad.a, bad.b, label="bad_n2"), bad_path)
        code = main(["projection", good, bad_path, *fast_args()])
        err = capsys.readouterr().err
        assert code == 2
        assert "'bad_n2' is not an orthogonal projection" in err

    def test_slabs_give_same_result(self, tmp_path, capsys, monkeypatch):
        # Every instance's result fragment is the same whether it runs alone,
        # inside a 20-instance batch, or in that batch with one instance per
        # slab.  n = 3 runs one GEMM per instance, where a GEMM over every
        # row of a slab would change bits.
        for command, dim in (("verify", 2), ("verify", 3), ("derivation", 3)):
            args = [command, "--dim", str(dim), "--seed", "11", "--directions", "8",
                    "--restarts", "1",
                    *(["--smax-factor", "16"] if command == "verify" else [])]

            def run(extra, name):
                out = tmp_path / f"{command}{dim}-{name}.json"
                assert main([*args, *extra, "--out", str(out)]) == 0
                return json.loads(out.read_text())["instances"]

            batch = ["--count", "20"]
            whole = run(batch, "whole")
            monkeypatch.setattr(unitary_opt, "_SLAB_ENTRIES", 1)
            ones = run(batch, "ones")
            monkeypatch.undo()
            assert len(whole) == 20 and ones == whole

            for i in (0, 13):
                path = tmp_path / f"{command}{dim}-alone{i}.json"
                if command == "verify":
                    path.write_text(json.dumps(whole[i]["instance"]))
                else:
                    rng = np.random.default_rng([11, 131, i])
                    a, b = (
                        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
                        / np.sqrt(2)
                        for _ in range(2)
                    )
                    write_instance(
                        KTupleOperator.derivation(a, b, label=whole[i]["label"]), str(path)
                    )
                assert run([str(path)], f"alone{i}") == [whole[i]]
        capsys.readouterr()

    def test_verify_mixed_dimensions(self, identity_path, tmp_path, capsys):
        # A batch holds one n; a change of n between files starts a new batch.
        out = tmp_path / "mixed.json"
        code = main(["verify", *mixed_files(identity_path, tmp_path),
                     *fast_args(["--out", str(out)])])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert [inst["instance"]["n"] for inst in doc["instances"]] == [2, 3, 2]

    def test_projection_honours_tol_and_smax_factor(self, tmp_path, capsys):
        args = ["projection", "--directions", "8", "--restarts", "2"]
        assert main([*args, "--tol", "1e-15"]) == 1
        residuals = []
        for factor in ("16", "64"):
            out = tmp_path / f"proj-{factor}.json"
            assert main([*args, "--smax-factor", factor, "--out", str(out)]) == 0
            residuals.append(json.loads(out.read_text())["instances"][0]["residuals"])
        capsys.readouterr()
        assert residuals[0] != residuals[1]


@pytest.fixture
def derivation_path(tmp_path):
    path = tmp_path / "delta.json"
    write_instance(KTupleOperator.derivation(np.diag([0.0, 1.0]), np.diag([0.0, 1.0j])), path)
    return str(path)


# Stand-ins for the instance files in argv below.
IDENTITY, DERIVATION = "<identity>", "<derivation>"


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["fov", IDENTITY, "--directions", "16"], {"directions"}),
        (["norm", IDENTITY, "--restarts", "2", "--z", "0.5,0"], {"restarts", "seed", "z"}),
        (["range", IDENTITY, *fast_args()],
         {"side", "directions", "restarts", "smax_factor", "seed"}),
        (["derivation", "--count", "1", "--tol", "1", *fast_args()],
         {"count", "dim", "directions", "restarts", "seed", "tol"}),
        # Instance files replace the random batch, so its flags are not read.
        (["verify", IDENTITY, "--count", "5", "--dim", "4", "--tuples", "7", *fast_args()],
         {"directions", "restarts", "smax_factor", "seed"}),
        (["derivation", DERIVATION, "--count", "3", "--dim", "4", *fast_args()],
         {"directions", "restarts", "seed"}),
        (["projection", IDENTITY, "--dim", "4", "--rank", "2", *fast_args()],
         {"directions", "restarts", "smax_factor", "seed"}),
        (["projection", "--dim", "2", "--rank", "1", *fast_args()],
         {"dim", "rank", "directions", "restarts", "smax_factor", "seed"}),
    ],
)
def test_config_echoes_exactly_the_options_read(
    identity_path, derivation_path, tmp_path, argv, keys, capsys
):
    files = {IDENTITY: identity_path, DERIVATION: derivation_path}
    out = tmp_path / "result.json"
    assert main([files.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 0
    capsys.readouterr()
    config = json.loads(out.read_text())["config"]
    assert set(config) == keys | {"command", "format"}


SPLIT_ARGS = ["--directions", "8", "--restarts", "1"]


class TestSplit:
    """verify, derivation and projection split each run of one n into
    cli._cpus() contiguous parts, all but the first in forked children."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # A run that blocks fails after a minute instead of hanging the
        # session.  Afterwards this process has no child, live or exited.
        def expire(signum, frame):
            raise TimeoutError("blocked for 60 s")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "case", ["verify-n2", "verify-n3", "derivation-n3", "projection-files", "verify-mixed"]
    )
    def test_any_part_count_gives_the_same_bytes(
        self, monkeypatch, tmp_path, capsys, identity_path, rng, case
    ):
        if case == "projection-files":
            argv = ["projection", *projection_files(tmp_path, rng)]
        elif case == "verify-mixed":
            argv = ["verify", *mixed_files(identity_path, tmp_path)]
        else:
            command, dim = case.split("-n")
            argv = [command, "--count", "20", "--dim", dim]
        out = tmp_path / "result.json"
        seen = []
        for parts in (1, 2, 3):
            monkeypatch.setattr(cli, "_cpus", lambda: parts)
            code = main([*argv, *SPLIT_ARGS, "--out", str(out)])
            seen.append((code, capsys.readouterr(), out.read_bytes()))
        assert seen[0][0] == 0
        assert seen[1] == seen[0] and seen[2] == seen[0]

    @pytest.mark.parametrize("bad", ["00", "05"], ids=["parent_part", "child_part"])
    def test_worker_error_reads_as_in_process(self, monkeypatch, capsys, bad):
        # rand-n2k2-00 lies in the part this process runs, -05 in a child's.
        real = cli.verify_main

        def failing(rs, **kwargs):
            if any(r.label == f"rand-n2k2-{bad}" for r in rs):
                raise ValueError(f"no result for rand-n2k2-{bad}")
            return real(rs, **kwargs)

        monkeypatch.setattr(cli, "verify_main", failing)
        seen = []
        for parts in (1, 2, 3):
            monkeypatch.setattr(cli, "_cpus", lambda: parts)
            seen.append((main(["verify", "--count", "6", *SPLIT_ARGS]), capsys.readouterr()))
        assert seen[0] == (2, ("", f"error: no result for rand-n2k2-{bad}\n"))
        assert seen[1] == seen[0] and seen[2] == seen[0]

    @pytest.mark.parametrize("parts, first", [(2, "03"), (3, "04")])
    def test_worker_that_dies_is_named(self, monkeypatch, capsys, parts, first):
        parent = os.getpid()
        real = cli.verify_main

        def dying(rs, **kwargs):
            if any(r.label == "rand-n2k2-05" for r in rs):
                assert os.getpid() != parent, "the last part ran in this process"
                os._exit(3)
            return real(rs, **kwargs)

        monkeypatch.setattr(cli, "verify_main", dying)
        monkeypatch.setattr(cli, "_cpus", lambda: parts)
        assert main(["verify", "--count", "6", *SPLIT_ARGS]) == 2
        assert capsys.readouterr().err == (
            f"error: the worker for instances rand-n2k2-{first} .. rand-n2k2-05 "
            "ended with exit code 3 and no result\n"
        )

    @pytest.mark.parametrize("parts, inside", [(1, 3), (2, 1)])
    def test_split_runs_blas_on_one_thread(self, monkeypatch, capsys, parts, inside):
        # Two processes with a BLAS thread pool each would ask for more
        # threads than there are CPUs; one part leaves BLAS as it is.
        blas = cli._openblas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS is not a loaded OpenBLAS")
        get, set_ = blas
        real = cli.verify_main

        def checked(rs, **kwargs):
            if get() != inside:
                raise ValueError(f"BLAS on {get()} threads")
            return real(rs, **kwargs)

        monkeypatch.setattr(cli, "verify_main", checked)
        monkeypatch.setattr(cli, "_cpus", lambda: parts)
        before = get()
        set_(3)
        try:
            assert main(["verify", "--count", "4", *SPLIT_ARGS]) == 0
            assert get() == 3
        finally:
            set_(before)
        capsys.readouterr()

    def test_one_part_without_fork(self, monkeypatch):
        assert cli._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "fork")
        assert cli._cpus() == 1


class TestDeterminism:
    def test_identical_result_files(self, tmp_path, capsys):
        args = ["verify", "--count", "2", "--dim", "2", "--tuples", "2",
                "--seed", "7", *fast_args()]
        files = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main([*args, "--out", out]) == 0
            files.append(open(out, "rb").read())
        capsys.readouterr()
        assert files[0] == files[1]

    def test_identical_result_files_n3(self, tmp_path, capsys):
        # n = 3 runs the LAPACK eigen/SVD branches, not the 2x2 closed forms.
        args = ["verify", "--count", "2", "--dim", "3", "--tuples", "2",
                "--seed", "5", "--directions", "8", "--restarts", "2"]
        for fmt in ("json", "csv"):
            blobs = []
            for name in ("a", "b"):
                out = str(tmp_path / f"{name}.{fmt}")
                assert main([*args, "--format", fmt, "--out", out]) == 0
                blobs.append(open(out, "rb").read())
            capsys.readouterr()
            assert blobs[0] == blobs[1]

    def test_csv_and_svg_identical(self, identity_path, tmp_path, capsys):
        for fmt, suffix in (("csv", ".csv"), ("svg", ".svg")):
            blobs = []
            for name in ("a", "b"):
                out = str(tmp_path / f"{name}{suffix}")
                assert main(["range", identity_path, "--format", fmt,
                             *fast_args(["--out", out])]) == 0
                blobs.append(open(out, "rb").read())
            capsys.readouterr()
            assert blobs[0] == blobs[1]


PUBLIC_NAMES = [
    "CheckResult", "KTupleOperator", "OptConfig", "OptReport", "RangeEstimate",
    "RegionEmptyError", "SupportRegion", "VerificationReport", "banach_region",
    "default_s_schedule", "field_of_values", "haar_unitaries", "hausdorff",
    "hermitian_check", "hull_of_points", "minkowski_sum", "negate", "orbit_region",
    "random_batch", "random_instance", "region_from_supports", "russo_dye_norm",
    "shifted_norm", "verify_derivation", "verify_inclusion", "verify_main",
    "verify_mult_projection",
]


def test_public_names():
    # The package exports what the program and its callers run; the tests'
    # single-matrix references live in tests/oracles.py.
    assert sorted(elemrange.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(elemrange, name), name


def test_cli_import_loads_no_heavy_module():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    # The standard library's network, mail and XML packages cost import time
    # and resident memory that every CLI call pays (xml.sax.saxutils alone
    # cost 2.8 MB of peak RSS).  What the interpreter's startup and numpy
    # load (pathlib loads urllib.parse) is the floor.
    # The batch split forks with os alone: no process pool is imported.
    heavy = ("scipy", "urllib", "ssl", "email", "http", "xml", "multiprocessing", "concurrent")
    code = (
        "import sys, numpy; floor = set(sys.modules); import elemrange.cli; "
        f"print(sorted(m for m in set(sys.modules) - floor if m.split('.')[0] in {heavy!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=src_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"


class TestResultSerialization:
    def test_dumps_sorted_and_native(self):
        text = dumps_result({"b": np.float64(1.5), "a": np.int64(2),
                             "c": np.array([1.0, 2.0]), "d": 1 + 2j})
        doc = json.loads(text)
        assert doc == {"a": 2, "b": 1.5, "c": [1.0, 2.0], "d": [1.0, 2.0]}
        assert list(doc) == ["a", "b", "c", "d"]

    def test_dump_result_streams_the_dumps_text(self):
        result = {"z": [1.5, np.float64(2.0)], "a": {"m": np.arange(3), "c": 1 - 2j}}
        fh = io.StringIO()
        dump_result(result, fh)
        assert fh.getvalue() == dumps_result(result) + "\n"

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_write_error_names_the_path(self, tmp_path, where):
        # The error names the target, not the temporary file, and no
        # temporary file is left behind.
        path = tmp_path / "missing" / "r.json" if where == "missing_dir" else tmp_path / "d"
        if where == "directory":
            path.mkdir()
        with pytest.raises(OSError) as exc:
            write_text_atomic(str(path), lambda fh: fh.write("text"))
        assert exc.value.filename == str(path)
        assert ".tmp" not in str(exc.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if where == "missing_dir" else ["d"]
        )

    def test_instance_dict_matches_spec_shape(self, rng):
        r = random_instance(2, 1, rng, label="x")
        doc = instance_to_dict(r)
        assert set(doc) == {"n", "k", "a", "b", "label"}
        assert doc["a"][0][0][0] == [r.a[0, 0, 0].real, r.a[0, 0, 0].imag]

    def test_csv_norm_layout(self):
        result = {
            "command": "norm",
            "instances": [
                {"label": "x", "diagnostics": {"value": 1.0, "iterations": 3,
                                               "converged": True, "restart_spread": 0.0}}
            ],
        }
        fh = io.StringIO()
        dump_csv(result, fh)
        text = fh.getvalue()
        assert text.splitlines()[0] == "instance,value,iterations,converged,restart_spread"
        assert text.splitlines()[1].startswith("x,1.0,3,True,")
