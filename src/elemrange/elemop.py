"""Elementary operators x -> sum_i a_i x b_i on the matrix algebra M_n.

Provides application, a Kronecker matricization oracle, and operator
norms computed over the unitary group, where the supremum of |R(x)| over
the unit ball is attained (unitaries are the extreme points of the ball
and the ball is their closed convex hull).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batched import ElementaryMatrix
from .linalg import as_square_matrix
from .unitary_opt import (
    OptConfig,
    OptReport,
    ShiftedNormObjective,
    _maximize_blocks,
    default_starts,
)


@dataclass(frozen=True)
class KTupleOperator:
    """The pair of k-tuples (a, b) defining x -> sum_i a_i x b_i on M_n."""

    a: np.ndarray
    b: np.ndarray
    label: str | None = None
    seed: int | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.ndim == 2:
            a = a[None]
        if b.ndim == 2:
            b = b[None]
        if a.ndim != 3 or b.ndim != 3:
            raise ValueError("a and b must be stacks of square matrices")
        if a.shape != b.shape or a.shape[1] != a.shape[2]:
            raise ValueError(
                f"tuple shapes must match and be square, got {a.shape} vs {b.shape}"
            )
        if a.shape[0] < 1:
            raise ValueError("tuple length k must be >= 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("operator tuples have non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def k(self) -> int:
        return self.a.shape[0]

    @classmethod
    def identity(cls, n: int, label: str | None = None) -> "KTupleOperator":
        eye = np.eye(n, dtype=complex)
        return cls(eye[None], eye[None], label=label)

    @classmethod
    def multiplication(cls, a, b, label: str | None = None) -> "KTupleOperator":
        """x -> a x b."""
        a = as_square_matrix(a, "a")
        b = as_square_matrix(b, "b")
        return cls(a[None], b[None], label=label)

    @classmethod
    def derivation(cls, a, b, label: str | None = None) -> "KTupleOperator":
        """x -> a x - x b, encoded as the k=2 tuple ((a, I), (I, -b))."""
        a = as_square_matrix(a, "a")
        b = as_square_matrix(b, "b")
        eye = np.eye(a.shape[0], dtype=complex)
        return cls(np.stack([a, eye]), np.stack([eye, -b]), label=label)

    def translated(self, z: complex, label: str | None = None) -> "KTupleOperator":
        """The operator R + z*Id, as the appended tuple (.., z*I), (.., I)."""
        eye = np.eye(self.n, dtype=complex)
        a = np.concatenate([self.a, (complex(z) * eye)[None]])
        b = np.concatenate([self.b, eye[None]])
        return KTupleOperator(a, b, label=label)


def apply(r: KTupleOperator, x) -> np.ndarray:
    """R(x) = sum_i a_i x b_i."""
    x = as_square_matrix(x, "x")
    if x.shape[0] != r.n:
        raise ValueError(f"operand is {x.shape[0]}x{x.shape[0]}, operator acts on {r.n}x{r.n}")
    return apply_batched(r, x[None])[0]


def apply_batched(r: KTupleOperator, u: np.ndarray) -> np.ndarray:
    """R applied to a stack of operands of shape (B, n, n)."""
    return ElementaryMatrix([(r.a, r.b)]).apply(np.asarray(u))


def matricize(r: KTupleOperator) -> np.ndarray:
    """The n^2 x n^2 matrix of R under column stacking: sum_i (b_i^T kron a_i).

    With vec the column-major stacking, vec(R(x)) = matricize(R) @ vec(x);
    this is the independent oracle against which `apply` is tested.
    """
    m = np.zeros((r.n * r.n, r.n * r.n), dtype=complex)
    for i in range(r.k):
        m += np.kron(r.b[i].T, r.a[i])
    return m


def vec(x) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(x).flatten(order="F")


def _batch_dim(rs) -> int:
    """The common n of a nonempty batch of operators."""
    if not rs:
        raise ValueError("empty batch of operators")
    dims = sorted({r.n for r in rs})
    if len(dims) > 1:
        raise ValueError(f"a batch needs operators on one M_n, got n = {dims}")
    return dims[0]


def shifted_norm(
    rs: list[KTupleOperator], z: complex, cfg: OptConfig | None = None
) -> list[OptReport]:
    """Best found maximum of |R(u) - z u| over the unitary group, per operator.

    At the global maximum this equals the operator norm of R - z*Id on
    M_n; the returned value is always a certified lower bound.  The
    identity, the flip permutation and cfg.restarts Haar unitaries start
    each operator's ascent; all operators run as one grouped ascent, and
    each report is the one its operator gets alone.
    """
    cfg = cfg or OptConfig()
    n = _batch_dim(rs)
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    block = default_starts(n, cfg.restarts, rng)
    reports = _maximize_blocks(ShiftedNormObjective, rs, [[(z, block)]] * len(rs), cfg)
    return [reps[0] for reps in reports]


def russo_dye_norm(
    rs: list[KTupleOperator], cfg: OptConfig | None = None
) -> list[OptReport]:
    """Operator norm of each R via the reduction of the unit-ball supremum to U(n)."""
    return shifted_norm(rs, 0.0, cfg=cfg)


def random_instance(
    n: int, k: int, rng: np.random.Generator, label: str | None = None
) -> KTupleOperator:
    """Random operator with unit-scale iid complex Gaussian entries."""

    def stack():
        re = rng.standard_normal((k, n, n))
        im = rng.standard_normal((k, n, n))
        return (re + 1j * im) / np.sqrt(2.0)

    return KTupleOperator(stack(), stack(), label=label)
