"""End-to-end benchmark of the elemrange command line, with a traced mode.

    python3 perfbench/run.py --workload verify-n2k2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark imports the CLI
from ``src/`` and calls ``elemrange.cli.main`` in this process on batches
of instance files it generates from ``--seed``, until ``--seconds`` have
passed.  Every batch result is checked (exit code, the CLI's own checks and
independent bounds); a failed batch counts all of its checks as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each batch
once untraced and once with every elemrange function wrapped in a span,
asserts that both result files are byte-identical, and prints the
per-layer metrics and a self-time table; the spans are written to
``perfbench/.work/`` at the end.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, and the modules of this directory that import it, are imported
# only after pin_threads() has set the thread pools' environment.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# setup_s is the fastest of this many fresh imports, spread over the run:
# noise from the rest of the machine only ever adds time to an import, and
# a slow spell of a few seconds then catches only some of them.
SETUP_REPEATS = 9
SETUP_FIRST = 3
SETUP_BETWEEN = 2
SETUP_CODE = (
    "import time; t = time.perf_counter(); import elemrange.cli; "
    "print(time.perf_counter() - t)"
)
TABLE_ROWS = 30
# The acceptance floor on trace.covered_frac; a traced run below it warns.
COVERED_FLOOR = 0.95


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread, before numpy is imported.

    The matrices are at most 4x4, so a thread pool only adds contention.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_cli():
    """Import elemrange from this checkout's src/, never from elsewhere."""
    if not (SRC / "elemrange" / "cli.py").is_file():
        raise SystemExit(f"error: no elemrange sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import elemrange
    import elemrange.cli

    if SRC.resolve() not in Path(elemrange.__file__).resolve().parents:
        raise SystemExit(f"error: imported elemrange from {elemrange.__file__}")
    return elemrange, elemrange.cli


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(times: list, repeats: int) -> None:
    """Append the times of ``repeats`` imports of elemrange.cli, each in a
    fresh interpreter, to ``times``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))


def call_cli(cli, argv) -> tuple[int, float, str]:
    """One in-process CLI call: (exit code, seconds, captured output)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the run goes on; the batch counts as failed
            code = -1
            sink.write(traceback.format_exc())
    return code, time.perf_counter() - t0, sink.getvalue()


class Run:
    """State of one benchmark run: batches done, checks counted."""

    def __init__(self, wl, seed: int, workdir: Path, cli):
        self.wl, self.seed, self.workdir, self.cli = wl, seed, workdir, cli
        self.attempted = 0
        self.failed = 0
        self.batch_ratios: list[list[float]] = []
        self.problems: list[str] = []

    def batch(self, index: int, tag: str) -> tuple[float, bytes | None]:
        """Run and check one batch; returns (seconds, result bytes)."""
        from workloads import check_batch, write_batch

        paths, docs = write_batch(self.wl, self.seed, index, self.workdir)
        out = self.workdir / f"result-{tag}-b{index}.json"
        code, seconds, log = call_cli(self.cli, self.wl.argv(paths, out))
        payload = out.read_bytes() if out.is_file() else None
        chk = check_batch(self.wl, docs, code, payload, self.seed)
        self.attempted += chk.attempted
        self.failed += chk.failed
        self.batch_ratios.append(chk.ratios)
        self.problems += chk.problems
        if chk.failed and code != 0:
            self.problems.append(log.strip()[-2000:])
        for path in paths:
            path.unlink()
        if payload is not None:
            out.unlink()
        return seconds, payload

    def warm_up(self) -> None:
        """One tiny call, so lazy imports inside numpy/scipy are done before timing."""
        from workloads import write_batch

        paths, _ = write_batch(self.wl, self.seed, 0, self.workdir)
        out = self.workdir / "warmup.json"
        call_cli(self.cli, [
            self.wl.command, str(paths[0]), "--directions", "8",
            "--restarts", "1", "--haar-samples", "4", "--out", str(out),
        ])
        for path in [*paths, out]:
            path.unlink(missing_ok=True)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def another_round(start: float, rounds: int, min_rounds: int, seconds: float) -> bool:
    """Whether to start another round: until ``min_rounds`` are done, then
    while a round of the mean length so far ends nearer to ``seconds`` after
    ``start`` than stopping now would."""
    if rounds < min_rounds:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_untraced(run: Run, seconds: float, between=None) -> dict:
    """Batches for ``seconds``, and at least those judged by tolerance_headroom.

    ``between``, if given, is called after every batch, outside its timing.
    """
    judged_batches = -(-run.wl.judged // run.wl.batch)
    instances, busy, index = 0, 0.0, 0
    start = time.perf_counter()
    while another_round(start, index, judged_batches, seconds):
        dt, _ = run.batch(index, "plain")
        instances += run.wl.batch
        busy += dt
        index += 1
        if between is not None:
            between()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Mean, not max: the max over a run is set by its single worst instance,
    # and spreads across seeds more than the mean does (see README.md).
    judged = [r for rs in run.batch_ratios[:judged_batches] for r in rs] or [1.0]
    use_mean = sum(judged) / len(judged)
    print(f"batches: {index} of {run.wl.batch}; instances/s {instances / busy:.4f}; "
          f"tolerance use max {max(judged):.4g} mean {use_mean:.4g}")
    return {
        "instances_per_s": metric(instances / busy, "1/s"),
        "checks_passed_fraction": metric(1.0 - run.failed / run.attempted, "ratio"),
        "tolerance_headroom": metric(1.0 - use_mean, "ratio"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }


def run_traced(run: Run, seconds: float, package, spans_path: Path) -> tuple[dict, bool]:
    """Paired untraced/traced batches; returns (per-layer metrics, bytes equal)."""
    import spans

    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    identical = True
    index = 0
    start = time.perf_counter()
    # At least two pairs, so that each side runs first once.
    while another_round(start, index, 2, seconds):
        # Alternate which side runs first so warm caches favour neither.
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        payloads = {}
        for side in order:
            if side == "traced":
                tracer.install(package)
                try:
                    dt, payloads[side] = run.batch(index, side)
                finally:
                    tracer.restore()
                traced_s += dt
            else:
                dt, payloads[side] = run.batch(index, side)
                plain_s += dt
        if payloads["plain"] is None or payloads["plain"] != payloads["traced"]:
            identical = False
            run.problems.append(f"batch {index}: traced result bytes differ from untraced")
        index += 1

    instances = index * run.wl.batch
    table = spans.SpanTable(tracer.names, tracer.spans)
    values, absent = spans.evaluate(table, "cli.main", instances, tracer.wrapped)
    out = {name: metric(value, unit) for name, (value, unit) in values.items()}
    out["trace.overhead_frac"] = metric(traced_s / plain_s - 1.0, "ratio")

    wall = table.inclusive("cli.main")
    print(f"traced {instances} instances in {index} batches; wall {wall:.3f} s; "
          f"spans {len(tracer.spans)}; overhead {traced_s / plain_s - 1.0:+.3f}")
    print(f"{'span':<48} {'calls/inst':>11} {'self s/inst':>12} {'self %':>7} {'incl s/inst':>12}")
    for span_name, calls, self_s, incl_s in table.table()[:TABLE_ROWS]:
        print(f"{span_name:<48} {calls / instances:>11.1f} {self_s / instances:>12.5f} "
              f"{100.0 * self_s / wall:>6.2f}% {incl_s / instances:>12.5f}")
    if tracer.missing or absent:
        print(f"absent: names {sorted(tracer.missing)}; metrics {absent}")
    covered = values.get("trace.covered_frac", (0.0, ""))[0]
    if covered < COVERED_FLOOR:
        print(f"warning: wrapped functions cover {covered:.3f} of the traced wall time, "
              f"under the {COVERED_FLOOR} floor")
    tracer.write(spans_path)
    return out, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_threads()
    package, cli = import_cli()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(nproc)
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    run = Run(wl, args.seed, workdir, cli)
    try:
        if args.trace:
            run.warm_up()
            metrics, identical = run_traced(
                run, args.seconds, package,
                WORK / f"spans-{args.workload}-s{args.seed}.jsonl.gz",
            )
        else:
            setup = []
            measure_setup(setup, SETUP_FIRST)
            run.warm_up()
            metrics = run_untraced(run, args.seconds, between=lambda: measure_setup(
                setup, min(SETUP_BETWEEN, SETUP_REPEATS - len(setup))))
            measure_setup(setup, SETUP_REPEATS - len(setup))
            metrics["setup_s"] = metric(min(setup), "s")
            identical = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0 and identical
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    summary = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
               "metrics": metrics}
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"environment": env, **summary}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
