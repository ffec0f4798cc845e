"""Record a fixed set of command-line runs byte for byte, and compare two records.

    python scripts/byte_baseline.py OUT [--src SRC] [--only NAME ...]
    python scripts/byte_baseline.py --compare A B

The first form writes seeded instance files to OUT/inputs and runs each
command of ``commands()`` as ``python -m elemrange.cli``, with the package
imported from SRC (default: this checkout's ``src``).  Each run's stdout,
stderr, exit code and ``--out`` file go to OUT/runs/NAME, and
OUT/manifest.json lists the commands, the numpy version and a SHA-256 of
every file.  A run's working directory is its own folder and every path it
is given is relative, so a ``wrote PATH`` line reads the same in any OUT.
BLAS runs on one thread.  The inputs are written by this checkout's
package and ``perfbench/workloads.py``, so two records of different trees
run on the same bytes.

``--compare A B`` lists every file that differs between two records and,
for a JSON result, the largest fall and the largest rise of the supports of
each region side (lhs, rhs, oracle, fov), with the count of its supports
that fell by more than MISS_REL (a miss), and the largest witness-point
move, all relative to 1 + max|h|, the largest change of any check's
discrepancy, and the checks whose ``passed`` flag changed.  Where they
moved, it prints the largest fall and rise of the restart spreads (each
direction's and the ``*_restart_spread_max`` diagnostics), relative to
1 + max|h|, and the largest change of any ``*_iterations_max``
diagnostic.  It also counts the other leaves of the result that differ,
such as a diagnostic or a vertex, and lists the first three as
``path: old -> new``.  It exits 1 when a file differs.

The set of 47 commands covers every subcommand and format, m = 8, 16, 64
and 720, n = 2-4, an operator scaled by 2^200, a two-shift ray schedule
(``--smax-factor 16``), the seed-1 batches 0 and 1 of the three benchmark
workloads, diagonal and rank-one projections, mixed n in one batch, and
seven error exits.  A full record takes about half a minute on two CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from elemrange.elemop import KTupleOperator, random_instance  # noqa: E402
from elemrange.io import write_instance  # noqa: E402

# A support that falls by more than this, relative to 1 + max|h| of its
# region, counts as a miss: the ascents' own stopping precision is about
# 1e-9 (1 + max|h|) on the operator side.
MISS_REL = 1e-9

BLAS_ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}


def _in(name: str) -> str:
    """An input's path as a run sees it from OUT/runs/NAME."""
    return f"../../inputs/{name}"


def write_inputs(directory: Path) -> dict:
    """Write the instance files; return {workload name: [file names]} of
    the benchmark batches."""
    directory.mkdir(parents=True)
    for n in (2, 3, 4):
        r = random_instance(n, 2, np.random.default_rng([1, n]))
        write_instance(r, directory / f"r{n}.json")
    # r3 times 2^200, which scales V(R) exactly, so a rule that reads an
    # absolute size, such as a step floor, moves these results.
    r3 = random_instance(3, 2, np.random.default_rng([1, 3]))
    write_instance(KTupleOperator(2.0**200 * r3.a, r3.b), directory / "r3-big.json")
    rng = np.random.default_rng([1, 7])
    projections = {"p10": np.diag([1.0, 0.0]), "p01": np.diag([0.0, 1.0]),
                   "p110": np.diag([1.0, 1.0, 0.0]), "half": np.diag([0.5, 0.0])}
    for n in (2, 3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        projections[f"q{n}"] = np.outer(v, v.conj())
    for name, p in projections.items():
        write_instance(KTupleOperator(p[None], p[None]), directory / f"{name}.json")
    batches = {}
    for name, wl in workloads.WORKLOADS.items():
        (directory / name).mkdir()
        for batch in (0, 1):
            paths, _ = workloads.write_batch(wl, 1, batch, directory / name)
            batches[f"{name}-b{batch}"] = [f"{name}/{p.name}" for p in paths]
    return batches


def commands(batches: dict) -> dict:
    """{name: (argv, out file or None)}: the fixed command set."""
    out = {}
    for name, files in batches.items():
        wl = workloads.WORKLOADS[name.rsplit("-b", 1)[0]]
        out[name] = (wl.argv([_in(f) for f in files], "result.json"), "result.json")
    r2, r3, r4 = _in("r2.json"), _in("r3.json"), _in("r4.json")
    fast = ["--directions", "16", "--restarts", "4"]
    plain = {
        "fov-r2": ["fov", r2],
        "fov-r3-m64-csv": ["fov", r3, "--directions", "64", "--format", "csv"],
        "fov-r4-m16-svg": ["fov", r4, "--directions", "16", "--format", "svg"],
        "norm-r2": ["norm", r2],
        "norm-r3-z-csv": ["norm", r3, "--z", "0.5,-0.25", "--format", "csv"],
        "range-r2": ["range", r2],
        "range-r3-rhs": ["range", r3, "--side", "rhs"],
        "range-r4-rhs": ["range", r4, "--side", "rhs"],
        "range-r3-lhs-m64": ["range", r3, "--side", "lhs", "--directions", "64"],
        "range-r3-big-m16": ["range", _in("r3-big.json"), "--directions", "16"],
        "range-r2-m16-csv": ["range", r2, "--directions", "16", "--format", "csv"],
        "range-r2-m64-svg": ["range", r2, "--directions", "64", "--format", "svg"],
        "verify-default": ["verify"],
        "verify-n3-m32-s5": ["verify", "--dim", "3", "--count", "6", "--directions", "32",
                             "--seed", "5"],
        "verify-n4-k3-m8": ["verify", "--dim", "4", "--tuples", "3", "--directions", "8"],
        "verify-mixed-n": ["verify", r2, r3, _in("r2.json"), *fast],
        "verify-csv": ["verify", "--count", "4", "--format", "csv", *fast],
        "verify-svg": ["verify", "--count", "3", "--format", "svg", *fast],
        "verify-tol0-fails": ["verify", "--count", "3", "--tol", "0", *fast],
        # A two-shift ray schedule: its one later shift starts from the first.
        "verify-smax16": ["verify", "--count", "4", "--smax-factor", "16", *fast],
        "derivation-default": ["derivation"],
        "derivation-n3-m32-csv": ["derivation", "--dim", "3", "--count", "4",
                                  "--directions", "32", "--format", "csv"],
        "derivation-n2-svg": ["derivation", "--count", "2", "--format", "svg", *fast],
        "projection-default": ["projection"],
        "projection-n3r2-m16": ["projection", "--dim", "3", "--rank", "2", "--directions", "16"],
        "projection-n4r2-csv": ["projection", "--dim", "4", "--rank", "2", "--format", "csv",
                                *fast],
        "projection-files": ["projection", _in("p10.json"), _in("p01.json"), _in("q2.json")],
        "projection-q3-p110-svg": ["projection", _in("q3.json"), _in("p110.json"),
                                   "--format", "svg", *fast],
        "error-odd-directions": ["derivation", "--count", "2", "--directions", "9"],
        "error-missing-file": ["verify", _in("missing.json")],
        "error-not-projection": ["projection", _in("half.json")],
        "error-not-derivation": ["derivation", r2],
        "error-not-multiplication": ["projection", r2],
        "error-bad-z": ["norm", r2, "--z", "1,2,3"],
        "error-bad-out": ["range", r2, "--out", "no-such-dir/result.json"],
    }
    for name, argv in plain.items():
        out[name] = (argv, None)
    # The same results again through --out.
    for name in ("fov-r4-m16-svg", "norm-r3-z-csv", "range-r2-m64-svg", "verify-csv",
                 "derivation-n2-svg", "projection-n3r2-m16"):
        argv = out[name][0]
        ext = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        out[f"{name}-out"] = ([*argv, "--out", f"result.{ext}"], f"result.{ext}")
    return out


def _hashes(directory: Path) -> dict:
    """{path relative to directory: SHA-256} of every file but the manifest."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def record(out_dir: Path, src: Path, only=None) -> int:
    """Write the inputs and every run (or those named in only) to out_dir."""
    batches = write_inputs(out_dir / "inputs")
    cmds = commands(batches)
    unknown = set(only or ()) - set(cmds)
    if unknown:
        raise SystemExit(f"unknown command names: {sorted(unknown)}")
    env = {**os.environ, **BLAS_ONE_THREAD, "PYTHONPATH": str(src.resolve())}
    manifest = {"src": str(src.resolve()), "numpy": np.__version__,
                "python": sys.version.split()[0], "commands": {}, "seconds": {}}
    for name, (argv, out_file) in cmds.items():
        if only and name not in only:
            continue
        run_dir = out_dir / "runs" / name
        run_dir.mkdir(parents=True)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "elemrange.cli", *argv], cwd=run_dir,
                              env=env, capture_output=True, check=False)
        manifest["seconds"][name] = round(time.perf_counter() - start, 2)
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
        manifest["commands"][name] = {"argv": argv, "out": out_file, "exit_code": proc.returncode}
        print(f"{name}: exit {proc.returncode} in {manifest['seconds'][name]:.1f} s", flush=True)
    manifest["files"] = _hashes(out_dir)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


def _result(path: Path):
    """The parsed JSON result in path, or None."""
    try:
        doc = json.loads(path.read_bytes())
    except (ValueError, OSError):
        return None
    return doc if isinstance(doc, dict) and "instances" in doc else None


def _changes(a: dict, b: dict) -> tuple:
    """(moves, witness, discrepancy, flipped, spreads, iterations) between
    two results.

    moves maps each region side present (lhs, rhs, oracle, fov) to
    (fall, rise, misses): the largest amount by which one of that side's
    supports fell, and rose, from a to b over every instance, relative to
    1 + max|h| of its region in a, and how many fell by more than MISS_REL
    of it.  witness is the largest distance a
    witness point moved, relative to 1 + max|h| over its instance's
    regions in a; discrepancy the largest change of any check's
    discrepancy; flipped the checks whose passed flag differs.  witness
    and discrepancy are None when no instance carries witnesses or checks.
    spreads is (fall, rise) of the restart spreads (each direction's, and
    the ``*_restart_spread_max`` diagnostics), relative to 1 + max|h| as
    for the witnesses, and iterations the largest change of any
    ``*_iterations_max`` diagnostic; both are 0 where none moved.
    """
    moves, witness, discrepancy, flipped = {}, [], [], []
    spreads, iterations = (0.0, 0.0), 0
    for ia, ib in zip(a["instances"], b["instances"]):
        top = 0.0
        for side, ra in ia.get("regions", {}).items():
            ha = np.array([h for _, h in ra["support"]])
            hb = np.array([h for _, h in ib["regions"][side]["support"]])
            top = max(top, float(np.max(np.abs(ha))))
            rel = (hb - ha) / (1.0 + float(np.max(np.abs(ha))))
            fall, rise, misses = moves.get(side, (0.0, 0.0, 0))
            moves[side] = (max(fall, float(np.max(-rel))), max(rise, float(np.max(rel))),
                           misses + int(np.sum(-rel > MISS_REL)))
        if "witnesses" in ia:
            moved = np.hypot(*(np.array(ia["witnesses"]) - np.array(ib["witnesses"])).T)
            witness.append(float(np.max(moved, initial=0.0)) / (1.0 + top))
        da, db = ia.get("diagnostics", {}), ib.get("diagnostics", {})
        for old, new in [
            *zip(ia.get("restart_spreads", []), ib.get("restart_spreads", [])),
            *((v, db[key]) for key, v in da.items() if key.endswith("_restart_spread_max")),
        ]:
            rel = (new - old) / (1.0 + top)
            spreads = (max(spreads[0], -rel), max(spreads[1], rel))
        for key, old in da.items():
            if key.endswith("_iterations_max"):
                iterations = max(iterations, abs(db[key] - old))
        for ca, cb in zip(ia.get("checks", []), ib.get("checks", [])):
            discrepancy.append(abs(ca["discrepancy"] - cb["discrepancy"]))
            if ca["passed"] != cb["passed"]:
                flipped.append(f"{ia['label']}: {ca['name']}")
    return (moves, max(witness, default=None), max(discrepancy, default=None), flipped,
            spreads, iterations)


def _leaves(x, path: str = ""):
    """(path, value) of every scalar in a parsed JSON tree, in document
    order; a path reads like instances[7].diagnostics.rhs_iterations_max."""
    if isinstance(x, dict):
        for key, value in x.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(x, list):
        for i, value in enumerate(x):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, x


# The leaves _changes reports: supports, witnesses, check discrepancies,
# restart spreads and the *_restart_spread_max and *_iterations_max
# diagnostics.
_REPORTED = re.compile(
    r"instances\[\d+\]\.(regions\.\w+\.support\[|witnesses\[|checks\[\d+\]\.discrepancy$"
    r"|restart_spreads\[|diagnostics\.\w+_(restart_spread_max|iterations_max)$)"
)


def _other_leaves(a: dict, b: dict) -> list:
    """['path: old -> new'] for every leaf that differs between two results
    outside the ones _changes reports; a missing leaf reads 'absent'."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    out = []
    for path in [*la, *(p for p in lb if p not in la)]:
        old, new = (json.dumps(d[path]) if path in d else "absent" for d in (la, lb))
        if old != new and not _REPORTED.match(path):
            out.append(f"{path}: {old} -> {new}")
    return out


def compare(a_dir: Path, b_dir: Path) -> int:
    """Print the files that differ between two records; 1 if any does."""
    files_a, files_b = _hashes(a_dir), _hashes(b_dir)
    differ = sorted(f for f in set(files_a) | set(files_b) if files_a.get(f) != files_b.get(f))
    for name in differ:
        if name not in files_a or name not in files_b:
            print(f"{name}: only in {a_dir if name in files_a else b_dir}")
            continue
        ra, rb = _result(a_dir / name), _result(b_dir / name)
        if ra is None or rb is None:
            print(f"{name}: differs")
            continue
        moves, witness, discrepancy, flipped, spreads, iterations = _changes(ra, rb)
        line = f"{name}: differs"
        for side, (fall, rise, misses) in sorted(moves.items()):
            line += (f"; {side} supports fell {fall:.2e}, rose {rise:.2e} x (1 + max|h|), "
                     f"{misses} by more than {MISS_REL:.0e}")
        if witness is not None:
            line += f"; largest witness move {witness:.2e} x (1 + max|h|)"
        if discrepancy is not None:
            line += f"; largest discrepancy change {discrepancy:.2e}"
        if flipped:
            line += f"; passed flag changed: {', '.join(flipped)}"
        if any(spreads):
            fall, rise = spreads
            line += f"; restart spreads fell {fall:.2e}, rose {rise:.2e} x (1 + max|h|)"
        if iterations:
            line += f"; largest iterations_max change {iterations}"
        others = _other_leaves(ra, rb)
        if others:
            line += f"; {len(others)} other leaf(s) differ: {', '.join(others[:3])}"
        print(line)
    same = sum(files_a.get(f) == digest for f, digest in files_b.items())
    print(f"{len(differ)} file(s) differ, {same} identical")
    return int(bool(differ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="directory to record into (new)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the elemrange package to run")
    parser.add_argument("--only", nargs="+", help="record only these command names")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two records instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT or --compare A B")
    if args.out.exists():
        parser.error(f"{args.out} exists")
    return record(args.out, args.src, args.only)


if __name__ == "__main__":
    sys.exit(main())
