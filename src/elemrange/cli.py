"""Command-line front end: instance ingestion, computation, verification, plots.

Exit codes: 0 all checks passed, 1 a verification exceeded its tolerance,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import itertools
import os
import pickle
import sys

import numpy as np

from . import __version__
from .elemop import KTupleOperator, random_instance, shifted_norm
from .fov import field_of_values
from .io import (
    InstanceFormatError,
    dump_csv,
    dump_result,
    instance_to_dict,
    parse_instance,
    region_to_dict,
    write_text_atomic,
)
from .orbit import banach_region, orbit_region
from .region import RegionEmptyError
from .svg import dump_svg
from .unitary_opt import OptConfig
from .verify import (
    DEFAULT_CFG,
    DEFAULT_DIRECTIONS,
    DEFAULT_SMAX_FACTOR,
    _derivation_pair,
    _require_projection,
    random_batch,
    verify_derivation,
    verify_main,
    verify_mult_projection,
)


def _int_at_least(low: int):
    """The argparse type of an integer >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _float_at_least(low: float):
    """The argparse type of a finite float >= low."""

    def parse(text: str) -> float:
        value = float(text)
        if not (np.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be >= {low:g} and finite, got {value}")
        return value

    parse.__name__ = "float"
    return parse


def _out_path(text: str) -> str:
    """The argparse type of --out: a file path in an existing directory, so
    that a result that cannot be written is a usage error before any work."""
    if (
        not os.path.basename(text)
        or os.path.isdir(text)
        or not os.path.isdir(os.path.dirname(os.path.abspath(text)))
    ):
        raise argparse.ArgumentTypeError(f"{text!r} is not a file path in an existing directory")
    return text


# Flags shared by several subcommands, keyed by their dest; each subcommand
# takes only the ones its handler reads (see _flags).
_FLAGS = {
    "directions": dict(type=_int_at_least(8), default=DEFAULT_DIRECTIONS,
                       help="support directions (default %(default)s)"),
    "restarts": dict(type=_int_at_least(1), default=DEFAULT_CFG.restarts,
                     help="Haar restarts per optimization (default %(default)s)"),
    "smax_factor": dict(type=_float_at_least(16), default=DEFAULT_SMAX_FACTOR,
                        help="largest shift as a multiple of scale (default %(default)g)"),
    "seed": dict(type=_int_at_least(0), default=0, help="random seed (default %(default)s)"),
    "tol": dict(type=_float_at_least(0), default=None,
                help="override the verification tolerance: the absolute main_formula "
                     "tolerance for verify and projection, a multiple of the oracle's "
                     "diameter for derivation"),
    "dim": dict(type=_int_at_least(1), default=2, help="matrix dimension (default %(default)s)"),
}


def _flags(sub, *names, formats=("json", "csv", "svg"), **defaults) -> None:
    """Add the named _FLAGS (defaults overridden by keyword), then --out and
    --format with the given choices."""
    for name in names:
        spec = {**_FLAGS[name], "default": defaults.get(name, _FLAGS[name]["default"])}
        sub.add_argument("--" + name.replace("_", "-"), **spec)
    sub.add_argument("--out", type=_out_path, default=None, help="output file path")
    sub.add_argument("--format", choices=formats, default="json",
                     help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elemrange",
        description="Numerical range of elementary operators on M_n, two ways.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fov", help="field of values of the instance's first a-matrix")
    p.add_argument("instance", help="instance file")
    _flags(p, "directions", directions=720)

    p = subs.add_parser("norm", help="operator norm over the unitary group")
    p.add_argument("instance", help="instance file")
    p.add_argument("--z", type=str, default=None,
                   help="complex shift RE,IM: compute |R - z Id| instead")
    _flags(p, "restarts", "seed", formats=("json", "csv"))

    p = subs.add_parser("range", help="numerical-range regions of an instance")
    p.add_argument("instance", help="instance file")
    p.add_argument("--side", choices=("lhs", "rhs", "both"), default="both",
                   help="operator side (lhs), orbit side (rhs), or both")
    _flags(p, "directions", "restarts", "smax_factor", "seed", directions=720)

    p = subs.add_parser("verify", help="verify the orbit formula on a batch")
    p.add_argument("instances", nargs="*", help="instance files (default: random batch)")
    p.add_argument("--count", type=_int_at_least(1), default=20,
                   help="random instances (default 20)")
    p.add_argument("--tuples", type=_int_at_least(1), default=2, help="tuple length k (default 2)")
    _flags(p, "dim", "directions", "restarts", "smax_factor", "seed", "tol")

    p = subs.add_parser("derivation",
                        help="check x -> Ax - xB against W(A) - W(B)")
    p.add_argument("instances", nargs="*",
                   help="instance files encoding a derivation (default: random batch)")
    p.add_argument("--count", type=_int_at_least(1), default=10,
                   help="random pairs (default 10)")
    _flags(p, "dim", "directions", "restarts", "seed", "tol")

    p = subs.add_parser("projection",
                        help="two-sided multiplication by an orthogonal projection")
    p.add_argument("instances", nargs="*",
                   help="instance files with a_1 = b_1 = p (default: diag projection)")
    p.add_argument("--rank", type=int, default=1, help="projection rank (default 1)")
    _flags(p, "dim", "directions", "restarts", "smax_factor", "seed", "tol")

    return parser


def _config(args) -> OptConfig:
    return OptConfig(restarts=args.restarts, seed=args.seed)


# Flags read only to draw the default batch, which instance files replace.
_BATCH_FLAGS = {
    "verify": ("count", "dim", "tuples"),
    "derivation": ("count", "dim"),
    "projection": ("dim", "rank"),
}


def _config_echo(args) -> dict:
    # The output path is not part of the computation configuration; leaving
    # it out keeps result files for identical runs byte-identical.  Neither
    # are the batch flags when instance files are given.
    skip = {"command", "instance", "instances", "out"}
    if getattr(args, "instances", None):
        skip.update(_BATCH_FLAGS[args.command])
    echo = {key: val for key, val in vars(args).items() if key not in skip and val is not None}
    echo["command"] = args.command
    return echo


def _labelled(path: str) -> KTupleOperator:
    r = parse_instance(path)
    if r.label is None:
        base = os.path.splitext(os.path.basename(path))[0]
        return KTupleOperator(r.a, r.b, label=base, seed=r.seed)
    return r


def _read_batch(paths, check=lambda r: None) -> list[KTupleOperator]:
    """The labelled operators of the instance files, each passed to check
    as it is read, so that a bad file is an error before any work."""
    batch = []
    for path in paths:
        batch.append(_labelled(path))
        check(batch[-1])
    return batch


def _estimate_fragment(inst: dict, side: str, est):
    inst.setdefault("regions", {})[side] = region_to_dict(est.region)
    if side == "rhs":
        inst["witnesses"] = [[float(w.real), float(w.imag)] for w in est.samples]
    if est.residuals is not None:
        inst["residuals"] = [float(x) for x in est.residuals]
    # Either side may come first; the spreads are the max of both.
    spreads = [float(s) for s in est.restart_spreads]
    prior = inst.get("restart_spreads", spreads)
    inst["restart_spreads"] = [max(a, b) for a, b in zip(prior, spreads)]


def _to_stdout(write) -> None:
    """write(sys.stdout), then flush it.

    A reader that closes stdout early (``| head``) ends the output quietly:
    stdout goes to os.devnull, as the Python docs' note on SIGPIPE shows, so
    that neither this write nor the flush at exit reports an error, and the
    run goes on to the exit code its checks give.
    """
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(result: dict, args, status=()) -> None:
    """Write the result to --out or stdout, then the status lines: to stdout
    after --out, else to stderr, so that stdout parses."""
    # Looked up per call, so that a wrapper installed on these module names
    # (perfbench's tracer) sees the writer.
    write = {"json": dump_result, "csv": dump_csv, "svg": dump_svg}[args.format]
    lines = "".join(f"{line}\n" for line in status)
    if args.out is None:
        _to_stdout(lambda fh: write(result, fh))
        sys.stderr.write(lines)
    else:
        write_text_atomic(args.out, lambda fh: write(result, fh))
        _to_stdout(lambda fh: fh.write(f"wrote {args.out}\n{lines}"))


def _check_lines(result: dict) -> tuple[list, int]:
    """One status line per check, then a count of the failed ones if any;
    and the exit code, 1 when a check failed."""
    lines, failures = [], 0
    for inst in result["instances"]:
        for chk in inst.get("checks", []):
            failures += not chk["passed"]
            lines.append(
                f"{inst['label']}: {chk['name']} "
                f"discrepancy={chk['discrepancy']:.3e} "
                f"tolerance={chk['tolerance']:.3e} {'PASS' if chk['passed'] else 'FAIL'}"
            )
    if failures:
        lines.append(f"{failures} check(s) FAILED")
    return lines, int(failures > 0)


def _checked(heads, reports) -> list:
    """The instance heads, each completed by its report's checks, diagnostics and regions."""
    for inst, rep in zip(heads, reports):
        inst["checks"] = [c.to_dict() for c in rep.checks]
        inst["diagnostics"] = rep.diagnostics
        for side in ("lhs", "rhs"):
            est = rep.artifacts.get(side)
            if est is not None:
                _estimate_fragment(inst, side, est)
        oracle = rep.artifacts.get("oracle")
        if oracle is not None:
            inst.setdefault("regions", {})["oracle"] = region_to_dict(oracle)
    return heads


def _cmd_fov(args) -> tuple[list, tuple]:
    r = _labelled(args.instance)
    region = field_of_values(r.a[0], args.directions)
    inst = {
        "label": r.label,
        "instance": instance_to_dict(r),
        "regions": {"fov": region_to_dict(region)},
    }
    return [inst], ()


def _shift(text: str | None) -> complex:
    """The --z value RE[,IM] as a finite complex number; 0 when absent."""
    if text is None:
        return 0j
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if not 0 < len(parts) <= 2 or not np.all(np.isfinite(parts)):
        raise ValueError(f"--z takes RE or RE,IM with finite parts, got {text!r}")
    return complex(*parts)


def _cmd_norm(args) -> tuple[list, tuple]:
    r = _labelled(args.instance)
    z = _shift(args.z)
    rep = shifted_norm([r], z, _config(args))[0]
    inst = {
        "label": r.label,
        "instance": instance_to_dict(r),
        "diagnostics": {
            "value": rep.value,
            "z": [z.real, z.imag],
            "iterations": rep.iterations,
            "converged": rep.converged,
            "restart_spread": rep.spread,
            "start_values": [float(v) for v in rep.start_values],
        },
    }
    return [inst], (f"{r.label}: norm value {rep.value!r} (converged={rep.converged})",)


def _cmd_range(args) -> tuple[list, tuple]:
    r = _labelled(args.instance)
    cfg = _config(args)
    inst: dict = {"label": r.label, "instance": instance_to_dict(r)}
    rhs = None
    if args.side in ("rhs", "both"):
        rhs = orbit_region([r], args.directions, cfg)[0]
        _estimate_fragment(inst, "rhs", rhs)
    if args.side in ("lhs", "both"):
        warm = [rhs.reports] if rhs is not None else None
        lhs = banach_region(
            [r], args.directions, cfg, smax_factor=args.smax_factor, warm_starts=warm
        )[0]
        _estimate_fragment(inst, "lhs", lhs)
    return [inst], ()


def _cpus() -> int:
    """How many processes a batch may use: the CPUs this process may run on,
    or 1 where fork or CPU affinity is missing."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _run_batch(batch, worker) -> list:
    """Map worker(run) -> one result per operator over runs of the batch's
    operators on one n.

    Each run is split into P = min(_cpus(), len(run)) contiguous, near-equal
    parts.  Part 0 runs in this process and each other part in a forked
    child; their results come back in part order.  Every instance's result
    is the one it gets alone (README, "Batches of instances"), so the split
    moves no bit, and a child's exception is raised here as if its part had
    run here.  ``taskset -c 0`` gives one part and no fork.
    """
    out = []
    for _, run in itertools.groupby(batch, key=lambda r: r.n):
        run = list(run)
        parts = min(_cpus(), len(run))
        bounds = [len(run) * i // parts for i in range(parts + 1)]
        out.extend(_run_parts([run[lo:hi] for lo, hi in zip(bounds, bounds[1:])], worker))
    return out


@functools.cache
def _openblas_threads():
    """The get and set functions of the thread count of the OpenBLAS that
    numpy loaded, or None where no loaded library provides them.

    The library is found by its path in /proc/self/maps (Linux); numpy's
    wheels name the functions scipy_openblas_{get,set}_num_threads64_.
    The lookup takes about 0.3 ms, a few percent of a small run, so it is
    made once per process.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with BLAS on one thread, then restore its thread count.

    Every subcommand runs under it.  The matrices are small, so a BLAS
    thread pool costs more than it saves even in one process, and a split
    run has one process per CPU, where a pool in each would ask for more
    threads than there are CPUs.  The forked children inherit the setting.
    Only numpy's OpenBLAS is found (see _openblas_threads); any other BLAS
    is left as it is.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _run_parts(parts, worker) -> list:
    """worker over each part, a list of operators, concatenated: the first
    part here, every other one in a forked child."""
    children = []  # (pid, reader of its pipe), in part order, until reaped
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(w, worker, part)
            os.close(w)
            children.append((pid, open(r, "rb")))
        out = list(worker(parts[0]))
        for part in parts[1:]:
            pid, reader = children[0]
            with reader:
                data = reader.read()
            del children[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if not data:
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise ChildProcessError(
                    f"the worker for instances {part[0].label} .. {part[-1].label} "
                    f"ended with {how} and no result"
                )
            kind, value = pickle.loads(data)
            if kind == "err":
                raise value
            out.extend(value)
        return out
    finally:
        # Children are left here only when something raised, and their
        # results are not needed.  Only this path loads the signal module.
        if children:
            from signal import SIGKILL

            for pid, reader in children:
                reader.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _child(w: int, worker, items) -> None:
    """The forked child's whole life: pickle ("ok", worker(items)), or
    ("err", exception), into the pipe w, then os._exit.  It never returns
    into its caller's stack, and flushes no buffer and runs no exit handler
    that it shares with the parent."""
    code = 1
    try:
        try:
            payload = ("ok", worker(items))
        except Exception as exc:
            payload = ("err", exc)
        data = pickle.dumps(payload)
        with open(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _cmd_verify(args) -> tuple[list, tuple]:
    cfg = _config(args)
    if args.instances:
        batch = _read_batch(args.instances)
    else:
        batch = random_batch(args.count, args.dim, args.tuples, args.seed)

    def worker(run):
        return verify_main(
            run, m=args.directions, cfg=cfg, smax_factor=args.smax_factor, tol=args.tol
        )

    heads = [{"label": r.label, "instance": instance_to_dict(r)} for r in batch]
    return _checked(heads, _run_batch(batch, worker)), ()


def _cmd_derivation(args) -> tuple[list, tuple]:
    cfg = _config(args)
    if args.instances:
        batch = _read_batch(args.instances, _derivation_pair)
    else:
        batch = []
        for i in range(args.count):
            r = random_instance(args.dim, 1, np.random.default_rng([args.seed, 131, i]))
            label = f"derivation-n{args.dim}-{i:02d}"
            batch.append(KTupleOperator.derivation(r.a[0], r.b[0], label=label))

    kwargs = {} if args.tol is None else {"tol_rel": args.tol}

    def worker(run):
        return verify_derivation(run, m=args.directions, cfg=cfg, **kwargs)

    return _checked([{"label": r.label} for r in batch], _run_batch(batch, worker)), ()


def _cmd_projection(args) -> tuple[list, tuple]:
    cfg = _config(args)
    if args.instances:
        batch = _read_batch(args.instances, _require_projection)
    else:
        if not 0 <= args.rank <= args.dim:
            raise ValueError(f"--rank must be in 0..{args.dim}, got {args.rank}")
        p = np.diag((np.arange(args.dim) < args.rank).astype(complex))
        label = f"projection-n{args.dim}r{args.rank}"
        batch = [KTupleOperator.multiplication(p, p, label=label)]

    def worker(run):
        return verify_mult_projection(
            run, m=args.directions, cfg=cfg, smax_factor=args.smax_factor, tol=args.tol
        )

    return _checked([{"label": r.label} for r in batch], _run_batch(batch, worker)), ()


_HANDLERS = {
    "fov": _cmd_fov,
    "norm": _cmd_norm,
    "range": _cmd_range,
    "verify": _cmd_verify,
    "derivation": _cmd_derivation,
    "projection": _cmd_projection,
}


def main(argv=None) -> int:
    """Run one subcommand; the one result tail.  Its handler returns the
    instance dicts and any status notes, and main writes the result and a
    line per check once, inside the try, so a failed write also exits 2."""
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            instances, notes = _HANDLERS[args.command](args)
            result = {
                "tool": {"name": "elemrange", "version": __version__},
                "command": args.command,
                "config": _config_echo(args),
                "instances": instances,
            }
            lines, code = _check_lines(result)
            _emit(result, args, [*notes, *lines])
            return code
    except (InstanceFormatError, RegionEmptyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
