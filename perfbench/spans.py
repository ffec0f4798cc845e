"""In-memory span tracing around the calls into elemrange's modules.

The tracer patches functions where they are looked up: a name imported
into another module (``orbit.maximize_grouped``, ``verify.haar_unitary``)
is wrapped in that module's namespace, and the objective methods and the
ascent driver's ``run`` are wrapped on their class.  Each call records one
span ``(name, start, end, parent, instance, info)`` in a list; nothing is
written until the run ends.  ``restore`` puts every original back, so an
untraced call made after it runs the unmodified program.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Layer metrics are derived from self times, from
inclusive times of phase spans attributed by their parent span, and from
counts taken at the same boundaries.
"""

from __future__ import annotations

import gzip
import json
import math
import time
import types
from collections import defaultdict

MODULES = (
    "cli", "verify", "orbit", "unitary_opt", "elemop", "linalg",
    "fov", "region", "io", "_batched", "svg",
)

# Private module-level functions that carry a phase or kernel of their own.
# Public functions are found by scanning each module's namespace.
PRIVATE_FUNCTIONS = (
    ("cli", "_emit"),
    ("orbit", "_chain_polish"),
    ("orbit", "_sweep_starts"),
    ("orbit", "_witnesses_at_own_angle"),
    ("fov", "_trusted_region"),
    ("region", "_trusted_region"),
)

METHODS = (
    ("unitary_opt", "OrbitSupportObjective", "value"),
    ("unitary_opt", "OrbitSupportObjective", "value_and_grad"),
    ("unitary_opt", "ShiftedNormObjective", "value"),
    ("unitary_opt", "ShiftedNormObjective", "value_and_grad"),
    ("unitary_opt", "_Ascent", "run"),
)

# Calls that start one instance of a batch; spans below them carry its id.
INSTANCE_ROOTS = ("verify.verify_main", "verify.verify_derivation")

KERNELS = (
    "top_svd", "sigma_max", "top_eigh", "eigvals_max",
    "eigh_full", "skew_exp_factors", "apply_skew_exp",
)
OBJECTIVE_METHODS = tuple(
    f"unitary_opt.{cls}.{meth}" for _, cls, meth in METHODS if cls != "_Ascent"
)


def _rows(x) -> int:
    """Number of matrices in a stack of shape (..., n, n)."""
    shape = getattr(x, "shape", ())
    if len(shape) < 2:
        return 1
    return int(math.prod(shape[:-2]))


def _probe_rows_arg0(args, kwargs, out):
    return _rows(args[0]) if args else 0


def _probe_rows_arg1(args, kwargs, out):
    return _rows(args[1]) if len(args) > 1 else 0


def _report_stats(reports) -> tuple[int, int, int]:
    """(reports, converged reports, most iterations) of optimizer reports."""
    return (
        len(reports),
        sum(bool(r.converged) for r in reports),
        max((int(r.iterations) for r in reports), default=0),
    )


def _probe_maximize_grouped(args, kwargs, out):
    coarse = kwargs.get("coarse_first", args[4] if len(args) > 4 else True)
    return (bool(coarse), *_report_stats(out))


def _probe_maximize(args, kwargs, out):
    return (True, *_report_stats([out]))


def _probe_ray_shifts(args, kwargs, out):
    schedules = getattr(out, "g_schedules", None) or []
    return [len(g) for g in schedules]


PROBES = {
    "unitary_opt.maximize_grouped": _probe_maximize_grouped,
    "unitary_opt.maximize": _probe_maximize,
    "orbit.banach_region": _probe_ray_shifts,
    **{f"unitary_opt.{cls}.{meth}": _probe_rows_arg1
       for _, cls, meth in METHODS if cls != "_Ascent"},
    **{f"_batched.{k}": _probe_rows_arg0 for k in KERNELS},
}


class Tracer:
    """Records spans of the wrapped calls of one process, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.wrapped: set[str] = set()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list = []
        self._instances = 0
        self.instance = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrapper(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_id = self._name_id(name)
        probe = PROBES.get(name)
        starts_instance = name in INSTANCE_ROOTS
        tracer = self

        def traced(*args, **kwargs):
            if starts_instance:
                tracer.instance = tracer._instances
                tracer._instances += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            inst = tracer.instance
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                if starts_instance:
                    tracer.instance = -1
                info = probe(args, kwargs, out) if probe is not None and out is not None else None
                spans[idx] = (name_id, t0, t1, parent, inst, info)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrapper(original, name))
        self._patches.append((owner, attr, original))
        self.wrapped.add(name)

    def install(self, package) -> None:
        """Wrap every elemrange function where the modules look it up."""
        prefix = package.__name__ + "."
        mods = {}
        for short in MODULES:
            mods[short] = getattr(package, short, None)
            if mods[short] is None:
                self.missing.add(short)
        for short, mod in mods.items():
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if (
                    isinstance(val, types.FunctionType)
                    and not attr.startswith("_")
                    and val.__module__.startswith(prefix)
                ):
                    self._patch(mod, attr, _span_name(val, prefix))
        for short, attr in PRIVATE_FUNCTIONS:
            mod = mods.get(short)
            val = getattr(mod, attr, None) if mod is not None else None
            if isinstance(val, types.FunctionType):
                self._patch(mod, attr, _span_name(val, prefix))
            else:
                self.missing.add(f"{short}.{attr}")
        for short, cls_name, meth in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            if cls is not None and isinstance(cls.__dict__.get(meth), types.FunctionType):
                self._patch(cls, meth, f"{short}.{cls_name}.{meth}")
            else:
                self.missing.add(f"{short}.{cls_name}.{meth}")

    def restore(self) -> None:
        """Put back every original function, last patch first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name_id, t0, t1, parent, inst, info = span
                fh.write(json.dumps({
                    "id": idx, "name": self.names[name_id], "start": t0,
                    "end": t1, "parent": parent, "instance": inst,
                    "info": info,
                }) + "\n")


def _span_name(fn, prefix: str) -> str:
    return fn.__module__[len(prefix):] + "." + fn.__qualname__


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``spans`` is a list of ``(start, end, parent)`` where parent is the
    index of the parent span or -1.  Children of one parent may overlap
    (threads); the overlap is counted once.  Child intervals are clipped
    to the parent's.
    """
    children = defaultdict(list)
    for idx, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (t0, t1, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c0, c1 in sorted(
            (max(spans[c][0], t0), min(spans[c][1], t1)) for c in children.get(idx, ())
        ):
            if c1 <= c0:
                continue
            if cur_end is None or c0 > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c0, c1
            else:
                cur_end = max(cur_end, c1)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((t1 - t0) - covered)
    return out


class SpanTable:
    """Aggregates over a finished list of spans."""

    def __init__(self, names, spans):
        self.names = names
        self.spans = spans
        self.self_s = self_times([(s[1], s[2], s[3]) for s in spans])
        self.by_name = defaultdict(list)
        for idx, s in enumerate(spans):
            self.by_name[names[s[0]]].append(idx)

    def name_of(self, idx: int) -> str:
        return self.names[self.spans[idx][0]]

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return self.name_of(parent) if parent >= 0 else None

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def self_of(self, names) -> float:
        return sum(self.self_s[i] for n in names for i in self.by_name.get(n, ()))

    def inclusive(self, name: str, parent: str | None = None, where=None) -> float:
        """Summed duration of the outermost spans of ``name``.

        With ``parent``, only spans whose direct parent has that name count;
        ``where`` filters on the span's info.
        """
        total = 0.0
        for idx in self.by_name.get(name, ()):
            if parent is not None and self.parent_name(idx) != parent:
                continue
            if where is not None and not where(self.spans[idx][5]):
                continue
            if self._has_ancestor(idx, name):
                continue
            total += self.duration(idx)
        return total

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.name_of(parent) == name:
                return True
            parent = self.spans[parent][3]
        return False

    def infos(self, name: str, parent: str | None = None) -> list:
        return [
            self.spans[i][5] for i in self.by_name.get(name, ())
            if self.spans[i][5] is not None
            and (parent is None or self.parent_name(i) == parent)
        ]

    def rows(self, name: str, parent: str | None = None) -> int:
        return sum(self.infos(name, parent))

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, self seconds, inclusive seconds), by self time."""
        out = []
        for name, idxs in self.by_name.items():
            out.append((
                name, len(idxs),
                sum(self.self_s[i] for i in idxs),
                self.inclusive(name),
            ))
        return sorted(out, key=lambda row: -row[2])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def evaluate(table: SpanTable, root: str, instances: int, wrapped) -> tuple[dict, list]:
    """Per-layer metrics as {name: (value, unit)}, plus the names left absent.

    A metric is absent, not zero, when a function it is built on was not
    found in the program (renamed or removed).
    """
    values, absent = {}, []
    for name, unit, _better, needs, fn in layer_metrics(table, root, instances):
        if all(n in wrapped for n in needs):
            values[name] = (float(fn()), unit)
        else:
            absent.append(name)
    return values, absent


# Each layer metric: (name, unit, better, span names it needs, function).
# Times and counts are per traced instance; ratios are plain.
def layer_metrics(table: SpanTable, root: str, instances: int):
    """Per-layer metric definitions as (name, unit, better, needs, fn)."""
    per = 1.0 / instances
    t = table
    mg = "unitary_opt.maximize_grouped"
    run = "unitary_opt._Ascent.run"
    value_names = [n for n in OBJECTIVE_METHODS if n.endswith(".value")]
    grad_names = [n for n in OBJECTIVE_METHODS if n.endswith(".value_and_grad")]
    ascent_names = [
        n for n in t.by_name
        if n.startswith("unitary_opt.") and n not in OBJECTIVE_METHODS
    ]
    region_names = [n for n in t.by_name if n.startswith("region.")]
    io_names = [n for n in t.by_name if n.startswith("io.")]
    cloud_parts = (
        "linalg.haar_unitary", "orbit.orbit_witnesses",
        "orbit._witnesses_at_own_angle", "region.cloud_supports",
    )

    def opt_reports():
        return t.infos(mg) + t.infos("unitary_opt.maximize")

    def grad_rows():
        return sum(t.rows(n) for n in grad_names)

    def value_rows():
        return sum(t.rows(n) for n in value_names)

    def rows_per_call():
        calls = sum(t.calls(n) for n in OBJECTIVE_METHODS)
        return _ratio(grad_rows() + value_rows(), calls)

    def trials_per_grad():
        return _ratio(sum(t.rows(n, parent=run) for n in value_names), grad_rows())

    def ray_shifts_mean():
        counts = [c for info in t.infos("orbit.banach_region") for c in info]
        return _ratio(sum(counts), len(counts))

    def converged_fraction():
        reps = opt_reports()
        return _ratio(sum(r[2] for r in reps), sum(r[1] for r in reps))

    def covered_frac():
        wall = t.inclusive(root)
        return _ratio(sum(t.self_s) - t.self_of([root]), wall)

    metrics = [
        ("elemop.norm_s", "s/inst", "lower", ["elemop.russo_dye_norm"],
         lambda: t.inclusive("elemop.russo_dye_norm") * per),
        ("orbit.sweep_s", "s/inst", "lower", ["orbit.orbit_region", mg],
         lambda: t.inclusive(mg, parent="orbit.orbit_region") * per),
        ("orbit.banach_first_shift_s", "s/inst", "lower", ["orbit.banach_region", mg],
         lambda: t.inclusive(mg, "orbit.banach_region", lambda i: i[0]) * per),
        ("orbit.banach_continuation_s", "s/inst", "lower", ["orbit.banach_region", mg],
         lambda: t.inclusive(mg, "orbit.banach_region", lambda i: not i[0]) * per),
        ("orbit.ray_shifts_mean", "shifts", "lower", ["orbit.banach_region"],
         ray_shifts_mean),
        ("orbit.chain_polish_s", "s/inst", "lower", ["orbit._chain_polish"],
         lambda: t.inclusive("orbit._chain_polish") * per),
        ("orbit.witness_cloud_s", "s/inst", "lower",
         ["orbit.orbit_region", "orbit.orbit_witnesses", "orbit._witnesses_at_own_angle"],
         lambda: sum(t.inclusive(n, parent="orbit.orbit_region") for n in cloud_parts) * per),
        ("unitary_opt.objective_self_s", "s/inst", "lower", list(OBJECTIVE_METHODS),
         lambda: t.self_of(OBJECTIVE_METHODS) * per),
        ("unitary_opt.ascent_self_s", "s/inst", "lower", [mg, run],
         lambda: t.self_of(ascent_names) * per),
        ("unitary_opt.grad_rows", "rows/inst", "lower", grad_names,
         lambda: grad_rows() * per),
        ("unitary_opt.value_rows", "rows/inst", "lower", value_names,
         lambda: value_rows() * per),
        ("unitary_opt.rows_per_call", "rows", "higher", list(OBJECTIVE_METHODS),
         rows_per_call),
        ("unitary_opt.trials_per_grad", "ratio", "lower", value_names + grad_names + [run],
         trials_per_grad),
        ("unitary_opt.iterations_max", "iterations", "lower", [mg],
         lambda: max((r[3] for r in opt_reports()), default=0)),
        ("unitary_opt.converged_fraction", "ratio", "higher", [mg],
         converged_fraction),
    ]
    for k in KERNELS:
        # Metric names must start with a letter, so "_batched" loses its "_".
        span, name = f"_batched.{k}", f"batched.{k}"
        metrics += [
            (f"{name}.s", "s/inst", "lower", [span], lambda n=span: t.self_of([n]) * per),
            (f"{name}.calls", "calls/inst", "lower", [span], lambda n=span: t.calls(n) * per),
            (f"{name}.rows", "rows/inst", "lower", [span], lambda n=span: t.rows(n) * per),
        ]
    metrics += [
        ("linalg.haar_unitary.calls", "calls/inst", "lower", ["linalg.haar_unitary"],
         lambda: t.calls("linalg.haar_unitary") * per),
        ("linalg.haar_unitary.s", "s/inst", "lower", ["linalg.haar_unitary"],
         lambda: t.self_of(["linalg.haar_unitary"]) * per),
        ("region.s", "s/inst", "lower", ["region.region_from_supports"],
         lambda: t.self_of(region_names) * per),
        ("io.s", "s/inst", "lower", ["io.dumps_result"],
         lambda: t.self_of(io_names) * per),
        ("fov.field_of_values_s", "s/inst", "lower", ["fov.field_of_values"],
         lambda: t.inclusive("fov.field_of_values") * per),
        ("cli.emit_s", "s/inst", "lower", ["cli._emit"],
         lambda: t.inclusive("cli._emit") * per),
        ("trace.covered_frac", "ratio", "higher", [root], covered_frac),
    ]
    return metrics
