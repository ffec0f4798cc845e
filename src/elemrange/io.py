"""Instance and result file formats.

Instances are UTF-8 JSON with complex numbers as two-element [re, im]
arrays and matrices as arrays of row arrays; top-level fields are n, k,
a, b and optional label and seed.  Result files are JSON with sorted keys
and no timestamps, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .elemop import KTupleOperator
from .region import SupportRegion


class InstanceFormatError(ValueError):
    """Malformed or inconsistent instance file."""


def _pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_to_json(mat: np.ndarray):
    return [[_pair(entry) for entry in row] for row in np.asarray(mat)]


def _is_int(obj) -> bool:
    """A JSON integer: bool is a subclass of int, but true and false are not numbers."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _parse_complex(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(_is_int(v) or isinstance(v, float) for v in obj)
    ):
        raise InstanceFormatError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def _parse_matrix(obj, n: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise InstanceFormatError(f"{where}: expected {n} rows")
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"{where} row {i}: expected {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{where}[{i}][{j}]")
    if not np.all(np.isfinite(out)):
        raise InstanceFormatError(f"{where}: non-finite entry")
    return out


def instance_to_dict(r: KTupleOperator) -> dict:
    d = {
        "n": r.n,
        "k": r.k,
        "a": [_matrix_to_json(r.a[i]) for i in range(r.k)],
        "b": [_matrix_to_json(r.b[i]) for i in range(r.k)],
    }
    if r.label is not None:
        d["label"] = r.label
    if r.seed is not None:
        d["seed"] = int(r.seed)
    return d


def parse_instance_dict(d: dict) -> KTupleOperator:
    if not isinstance(d, dict):
        raise InstanceFormatError("top level: expected an object")
    for fld in ("n", "k", "a", "b"):
        if fld not in d:
            raise InstanceFormatError(f"field '{fld}' is missing")
    n, k = d["n"], d["k"]
    if not _is_int(n) or n < 1:
        raise InstanceFormatError(f"field 'n': expected a positive integer, got {n!r}")
    if not _is_int(k) or k < 1:
        raise InstanceFormatError(f"field 'k': expected a positive integer, got {k!r}")
    for fld in ("a", "b"):
        if not isinstance(d[fld], list) or len(d[fld]) != k:
            raise InstanceFormatError(f"field '{fld}': expected {k} matrices")
    a = np.stack([_parse_matrix(d["a"][i], n, f"a[{i}]") for i in range(k)])
    b = np.stack([_parse_matrix(d["b"][i], n, f"b[{i}]") for i in range(k)])
    label = d.get("label")
    if label is not None and not isinstance(label, str):
        raise InstanceFormatError("field 'label': expected a string")
    seed = d.get("seed")
    if seed is not None and not _is_int(seed):
        raise InstanceFormatError("field 'seed': expected an integer")
    return KTupleOperator(a, b, label=label, seed=seed)


def parse_instance(path: str) -> KTupleOperator:
    """Read and validate an instance file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return parse_instance_dict(payload)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def write_instance(r: KTupleOperator, path: str):
    write_text_atomic(path, lambda fh: dump_result(instance_to_dict(r), fh))


def region_to_dict(region: SupportRegion) -> dict:
    th = region.directions
    return {
        "m": region.m,
        "support": [[float(t), float(h)] for t, h in zip(th, region.support)],
        "vertices": [[float(x), float(y)] for x, y in region.vertices],
    }


def _json_default(obj):
    """json's hook for what it cannot write itself: numpy scalars and arrays
    become Python values and lists, complex numbers [re, im] pairs."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return _pair(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_result(result: dict) -> str:
    """Deterministic JSON: sorted keys, stable float repr, no timestamps."""
    return json.dumps(result, indent=2, sort_keys=True, default=_json_default)


def dump_result(result: dict, fh) -> None:
    """Write ``dumps_result(result)`` and a newline to the text file fh.

    The text goes out piece by piece and is never held whole: for a large
    batch, the whole text and its pieces would set the peak memory of a run.
    """
    json.dump(result, fh, indent=2, sort_keys=True, default=_json_default)
    fh.write("\n")


def write_text_atomic(path: str, write) -> None:
    """Call write(fh) on a temporary file in the target directory, then
    rename it to path.

    The file gets the mode that open() gives a new file, not mkstemp's
    0600.  An OSError names path, not the temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def dump_csv(result: dict, fh) -> None:
    """One row per direction: theta, supports, residual, restart spread.

    Columns adapt to the command: region-bearing commands emit the
    documented per-direction layout; `norm` emits one summary row per
    instance.
    """
    if result.get("command") == "norm":
        fh.write("instance,value,iterations,converged,restart_spread\n")
        for inst in result["instances"]:
            d = inst["diagnostics"]
            fh.write(
                f"{inst['label']},{d['value']!r},{d['iterations']},"
                f"{d['converged']},{d['restart_spread']!r}\n"
            )
        return

    fh.write("instance,theta,h_lhs,h_rhs,residual,restart_spread\n")
    for inst in result["instances"]:
        regions = inst.get("regions", {})
        lhs = regions.get("lhs")
        rhs = regions.get("rhs") or regions.get("fov") or regions.get("oracle")
        some = lhs or rhs
        if some is None:
            continue
        residuals = inst.get("residuals")
        spreads = inst.get("restart_spreads")
        for j in range(some["m"]):
            cells = [
                lhs["support"][j][1] if lhs else None,
                rhs["support"][j][1] if rhs else None,
                residuals[j] if residuals else None,
                spreads[j] if spreads else None,
            ]
            row = [inst["label"], repr(some["support"][j][0])]
            row += ["" if c is None else repr(c) for c in cells]
            fh.write(",".join(row) + "\n")
