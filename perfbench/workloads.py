"""Workload definitions, seeded instance files and the result checks.

Instances are drawn by the benchmark itself from ``numpy.random`` with the
workload seed, so a change to the program's own random generators does not
change the inputs.  The CLI receives only the instance files; its optimizer
``--seed`` stays at its default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sampled lower bounds on the supports must not exceed the computed regions
# by more than this share of the operator scale (roundoff and grid slack).
SAMPLE_SLACK = 1e-6
SAMPLE_UNITARIES = 8


@dataclass(frozen=True)
class Workload:
    """One CLI batch shape: subcommand, matrix size, tuple length, batch size.

    ``judged`` is how many instances, from the start of every run, the
    ``tolerance_headroom`` metric covers; a run always completes them.
    """

    command: str  # "verify" or "derivation"
    n: int
    k: int
    batch: int
    directions: int
    judged: int
    checks: tuple[str, ...]

    def argv(self, files, out_path) -> list[str]:
        return [
            self.command, *map(str, files),
            "--directions", str(self.directions), "--out", str(out_path),
        ]


VERIFY_CHECKS = ("main_formula", "ray_monotone", "orbit_hull_filling")

# Batch sizes and direction counts: see README.md.  verify-n2k2 and
# derivation-n4 pass the acceptance batch of 20 instances to each call;
# an n=4 verify instance takes seconds, so that workload passes a few.
WORKLOADS = {
    "verify-n2k2": Workload(
        "verify", 2, 2, batch=20, directions=16, judged=40, checks=VERIFY_CHECKS,
    ),
    "verify-n4k2": Workload(
        "verify", 4, 2, batch=4, directions=8, judged=8, checks=VERIFY_CHECKS,
    ),
    "derivation-n4": Workload(
        "derivation", 4, 2, batch=20, directions=16, judged=40,
        checks=("derivation_difference",),
    ),
}


def _complex_gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def make_instance(wl: Workload, seed: int, batch: int, index: int) -> dict:
    """The instance document for one slot of a batch, a pure function of its key."""
    rng = np.random.default_rng([seed, batch, index])
    label = f"s{seed}-b{batch}-{index}"
    if wl.command == "derivation":
        # x -> Ax - xB as the k=2 tuple a = (A, I), b = (I, -B).
        a_mat = _complex_gaussian(rng, (wl.n, wl.n))
        b_mat = _complex_gaussian(rng, (wl.n, wl.n))
        eye = np.eye(wl.n, dtype=complex)
        a, b = np.stack([a_mat, eye]), np.stack([eye, -b_mat])
    else:
        a = _complex_gaussian(rng, (wl.k, wl.n, wl.n))
        b = _complex_gaussian(rng, (wl.k, wl.n, wl.n))
    return {
        "n": wl.n, "k": a.shape[0], "label": label,
        "a": [_matrix_json(m) for m in a], "b": [_matrix_json(m) for m in b],
    }


def _matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def write_batch(wl: Workload, seed: int, batch: int, directory: Path):
    """Write one batch of instance files; returns (paths, documents)."""
    paths, docs = [], []
    for i in range(wl.batch):
        doc = make_instance(wl, seed, batch, i)
        path = directory / f"{doc['label']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
        docs.append(doc)
    return paths, docs


@dataclass
class BatchCheck:
    """Outcome of checking one batch result."""

    attempted: int
    failed: int
    ratios: list  # discrepancy / tolerance of every check found
    problems: list  # human-readable reasons for failures


def _supports(region: dict) -> np.ndarray:
    return np.array([h for _, h in region["support"]], dtype=float)


def _sampled_supports(a, b, n_dirs: int, rng) -> np.ndarray:
    """max over random unitaries u of lambda_max(Herm(e^{-i t} sum u* a_i u b_i)).

    Every value is attained by a unitary, so it is a lower bound on the
    orbit-side support, and by the theorem on the operator side too.
    """
    n = a.shape[-1]
    z = _complex_gaussian(rng, (SAMPLE_UNITARIES, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    c = np.einsum("uji,kjl,ulm,kmp->uip", u.conj(), a, u, b)
    th = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    rc = np.exp(-1j * th)[None, :, None, None] * c[:, None]
    h = np.linalg.eigvalsh((rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0)[..., -1]
    return h.max(axis=0)


def _derivation_oracle(a_mat, b_mat, n_dirs: int) -> np.ndarray:
    """Support of W(A) - W(B): h_A(t) + h_B(t + pi)."""
    th = 2.0 * np.pi * np.arange(n_dirs) / n_dirs

    def fov(c, angles):
        rc = np.exp(-1j * angles)[:, None, None] * c
        return np.linalg.eigvalsh((rc + np.conj(np.swapaxes(rc, -1, -2))) / 2.0)[:, -1]

    return fov(a_mat, th) + fov(b_mat, th + np.pi)


def check_batch(wl: Workload, docs, exit_code, payload: bytes | None, seed: int) -> BatchCheck:
    """Check one CLI batch result against the inputs and independent bounds.

    A non-zero exit, an unreadable result or a result that does not match
    the batch counts every check of the batch as failed.
    """
    attempted = len(docs) * len(wl.checks)
    fail_all = BatchCheck(attempted, attempted, [], [])
    if exit_code != 0:
        fail_all.problems.append(f"exit code {exit_code}")
        return fail_all
    try:
        result = json.loads(payload)
        instances = result["instances"]
    except (TypeError, ValueError, KeyError) as exc:
        fail_all.problems.append(f"unreadable result: {exc!r}")
        return fail_all
    if [inst.get("label") for inst in instances] != [d["label"] for d in docs]:
        fail_all.problems.append("result instances do not match the batch")
        return fail_all

    out = BatchCheck(attempted, 0, [], [])
    rng = np.random.default_rng([seed, 0xBE7C])
    for doc, inst in zip(docs, instances):
        try:
            bad = _check_instance(wl, doc, inst, out.ratios, rng)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            bad = {name: f"malformed result: {exc!r}" for name in wl.checks}
        out.failed += len(bad)
        out.problems += [f"{doc['label']} {name}: {why}" for name, why in bad.items()]
    return out


def _check_instance(wl: Workload, doc, inst, ratios, rng) -> dict:
    """Failed checks of one instance as {check name: reason}."""
    bad = {}
    found = {c["name"]: c for c in inst["checks"]}
    for name in wl.checks:
        chk = found.get(name)
        if chk is None:
            bad[name] = "missing"
            continue
        disc, tol = float(chk["discrepancy"]), float(chk["tolerance"])
        if not (math.isfinite(disc) and math.isfinite(tol) and tol > 0):
            bad[name] = f"non-finite discrepancy {disc} or tolerance {tol}"
            continue
        ratios.append(disc / tol)
        if not chk["passed"] or disc > tol:
            bad[name] = f"discrepancy {disc:.3e} > tolerance {tol:.3e}"

    # The independent checks below ride on the first check of the workload.
    name = wl.checks[0]
    if name in bad:
        return bad
    regions = inst["regions"]
    a = np.stack([_matrix_from_json(m) for m in doc["a"]])
    b = np.stack([_matrix_from_json(m) for m in doc["b"]])
    m = wl.directions
    rhs = _supports(regions["rhs"])
    if wl.command == "derivation":
        gap = float(np.max(np.abs(rhs - _derivation_oracle(a[0], -b[1], m))))
        if gap > float(found[name]["tolerance"]):
            bad[name] = f"orbit region is {gap:.3e} from the independent oracle"
        return bad
    gap = float(np.max(np.abs(_supports(regions["lhs"]) - rhs)))
    if abs(gap - float(found[name]["discrepancy"])) > 1e-12 * (1 + gap):
        bad[name] = f"reported discrepancy differs from the regions' gap {gap:.3e}"
        return bad
    scale = 1.0 + float(np.max(np.abs(rhs)))
    floor = _sampled_supports(a, b, m, rng)
    for side in ("lhs", "rhs"):
        under = float(np.max(floor - _supports(regions[side])))
        if under > SAMPLE_SLACK * scale:
            bad[name] = f"{side} support is {under:.3e} below a sampled unitary"
    return bad
