"""Symmetric-matrix values and system-model validation.

Everything downstream manipulates covariance matrices, so this module pins
down one concrete value type (`SymMatrix`), the partial order used for all
comparisons (`loewner_leq`), and the admissibility checks a filtering model
must pass before the iteration theory applies (`validate_system`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance used for Loewner comparisons unless the caller overrides.
DEFAULT_ORDER_TOL = 1e-9
# Rank decisions use singular values above RANK_REL_TOL * sigma_max.
RANK_REL_TOL = 1e-8
# Strict positive definiteness requires min eigenvalue above PD_TOL.
PD_TOL = 1e-10
# Relative band around a threshold inside which `norms_exceed` decomposes.
SCREEN_MARGIN = 1e-10


class SymMatrix:
    """Immutable dense symmetric matrix with finite entries.

    Construction symmetrizes the input as (X + X^T) / 2 so the symmetry
    invariant holds exactly even when the input carries float round-off,
    and freezes the backing array.  A scalar or a 1x1 nested list is
    accepted and treated as a 1x1 matrix.
    """

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        a = np.array(values, dtype=float)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # Checked after symmetrizing: entries near the float limit overflow there.
        a = (a + a.T) / 2.0
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.flags.writeable = False
        self._a = a

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n)))

    @property
    def a(self) -> np.ndarray:
        """Read-only ndarray view of the entries."""
        return self._a

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    def item(self) -> float:
        """Entry of a 1x1 matrix as a float."""
        if self.dim != 1:
            raise ValueError(f"item() requires a 1x1 matrix, got dim {self.dim}")
        return float(self._a[0, 0])

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self._a + as_sym(other)._a)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self._a - as_sym(other)._a)

    def __mul__(self, scalar: float) -> "SymMatrix":
        return SymMatrix(self._a * float(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        if self.dim == 1:
            return f"SymMatrix({self._a[0, 0]!r})"
        return f"SymMatrix({self._a.tolist()!r})"


def as_sym(x) -> SymMatrix:
    """Coerce scalars, arrays, or SymMatrix values to SymMatrix."""
    if isinstance(x, SymMatrix):
        return x
    return SymMatrix(x)


def norms(p: np.ndarray) -> np.ndarray:
    """2-norms (largest absolute eigenvalues) of an exactly symmetric stack (k, N, N).

    A matrix with a non-finite entry gets NaN: `eigvalsh` would skip a NaN
    on the diagonal and return a finite, wrong norm, or give up on the stack.
    """
    finite = np.isfinite(p).all(axis=(1, 2))
    if p.shape[-1] == 1:
        return np.where(finite, np.abs(p[:, 0, 0]), np.nan)
    if finite.all():
        return np.max(np.abs(np.linalg.eigvalsh(p)), axis=-1)
    out = np.full(len(p), np.nan)
    out[finite] = np.max(np.abs(np.linalg.eigvalsh(p[finite])), axis=-1)
    return out


def norms_exceed(p: np.ndarray, thresholds, strict: bool = True) -> np.ndarray:
    """Verdicts ``norms(p) > t`` (``>= t`` unless strict), shape (len(thresholds), k).

    Equal to the direct comparison bit for bit, without decomposing most rows.
    For a symmetric X, max_ij |X_ij| <= ||X|| <= max_i sum_j |X_ij|, so a row
    whose lower bound clears t * (1 + SCREEN_MARGIN), or whose upper bound
    stays under t * (1 - SCREEN_MARGIN), is decided.  The margin dwarfs the
    round-off in the bounds and in `norms`.  Rows that straddle some
    threshold, and rows with a non-finite entry, are decided by `norms` on
    those rows alone; a NaN norm exceeds no threshold.
    """
    t = np.asarray(thresholds, dtype=float)[:, None]
    exceeds = np.greater if strict else np.greater_equal
    k, n, _ = p.shape
    if n == 1:
        return exceeds(norms(p), t)
    # Reduce over the chain axis: each row of the (N*N, k) copy is contiguous.
    mag = np.abs(p.reshape(k, n * n).T, order="C")
    lower = mag.max(axis=0)
    upper = mag.reshape(n, n, k).sum(axis=1).max(axis=0)
    verdict = (lower > t * (1.0 + SCREEN_MARGIN)) & np.isfinite(upper)
    unsure = ~(verdict | (upper < t * (1.0 - SCREEN_MARGIN))).all(axis=0)
    if unsure.any():
        verdict[:, unsure] = exceeds(norms(p[unsure]), t)
    return verdict


def spectral_norm(x: SymMatrix) -> float:
    """Spectral norm of one matrix: `norms` on a batch of one."""
    return float(norms(as_sym(x).a[None])[0])


def loewner_leq(x: SymMatrix, y: SymMatrix, tol: float = DEFAULT_ORDER_TOL) -> bool:
    """Whether X <= Y in the positive-semidefinite order, at relative tolerance.

    Accepts the comparison when lambda_min(Y - X) >= -tol * (1 + ||X|| + ||Y||),
    so near-ties from round-off do not flip the verdict.  tol = 0 demands an
    exact eigenvalue sign check.
    """
    xa, ya = as_sym(x).a, as_sym(y).a
    if xa.shape != ya.shape:
        raise ValueError(f"dimension mismatch: {xa.shape} vs {ya.shape}")
    lam_min = float(np.min(np.linalg.eigvalsh(ya - xa)))
    scale = 1.0 + spectral_norm(x) + spectral_norm(y)
    return lam_min >= -tol * scale


def psd_sqrt(x: SymMatrix, tol: float = DEFAULT_ORDER_TOL) -> SymMatrix:
    """Symmetric square root of a positive-semidefinite matrix.

    Eigenvalues in [-tol * (1 + ||X||), 0) are clamped to zero; anything more
    negative is an error because the input is then not PSD at tolerance.
    """
    x = as_sym(x)
    lam, v = np.linalg.eigh(x.a)
    floor = -tol * (1.0 + spectral_norm(x))
    if np.min(lam) < floor:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {np.min(lam):.6e}"
        )
    root = v @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ v.T
    return SymMatrix(root)


class SystemModel:
    """Linear filtering model (A, C, Q, R) with initial covariance P0.

    A is the N x N state transition, C the M x N observation map, Q and R the
    process and observation noise covariances, and P0 the starting covariance
    of the iteration.  Shape errors are raised immediately and name the
    offending field; spectral admissibility is a separate, reportable step
    (`validate_system`).
    """

    __slots__ = ("A", "C", "Q", "R", "P0")

    def __init__(self, A, C, Q, R, P0) -> None:
        A = _as_array_2d("A", A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        C = _as_array_2d("C", C)
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns to match A, got shape {C.shape}")
        Q = _as_sym_field("Q", Q, n)
        R = _as_sym_field("R", R, C.shape[0])
        P0 = _as_sym_field("P0", P0, n)
        A.flags.writeable = False
        C.flags.writeable = False
        for name, value in (("A", A), ("C", C), ("Q", Q), ("R", R), ("P0", P0)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SystemModel is immutable")

    @property
    def dim_state(self) -> int:
        return self.A.shape[0]

    @property
    def dim_obs(self) -> int:
        return self.C.shape[0]

    @classmethod
    def from_dict(cls, d: dict) -> "SystemModel":
        missing = [k for k in ("A", "C", "Q", "R", "P0") if k not in d]
        if missing:
            raise ValueError(f"model config missing fields: {', '.join(missing)}")
        return cls(A=d["A"], C=d["C"], Q=d["Q"], R=d["R"], P0=d["P0"])

    @classmethod
    def from_json(cls, text: str) -> "SystemModel":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "C": self.C.tolist(),
            "Q": self.Q.a.tolist(),
            "R": self.R.a.tolist(),
            "P0": self.P0.a.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def __repr__(self) -> str:
        return (
            f"SystemModel(A={self.A.tolist()}, C={self.C.tolist()}, "
            f"Q={self.Q.a.tolist()}, R={self.R.a.tolist()}, P0={self.P0.a.tolist()})"
        )


def _as_array_2d(name: str, value) -> np.ndarray:
    a = np.array(value, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got {a.ndim} dimensions")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} entries must be finite")
    return a

def _as_sym_field(name: str, value, expected_dim: int) -> SymMatrix:
    try:
        s = as_sym(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if s.dim != expected_dim:
        raise ValueError(f"{name} must be {expected_dim}x{expected_dim}, got {s.dim}x{s.dim}")
    return s


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str
    # Informational rows are reported but do not affect the overall verdict.
    informational: bool = False


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the admissibility checks, one row per condition.

    A failed check is a value here, not an exception; only malformed shapes
    raise (and they raise at SystemModel construction).
    """

    checks: tuple[ValidationCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed and not c.informational]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            tag = "info" if c.informational else ("pass" if c.passed else "FAIL")
            lines.append(f"[{tag}] {c.name}: {c.detail}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _staircase_rank(blocks: list[np.ndarray]) -> int:
    stacked = np.vstack(blocks)
    sigma = np.linalg.svd(stacked, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_REL_TOL * sigma[0]))


def observability_rank(m: SystemModel) -> int:
    """Rank of [C; CA; ...; CA^(N-1)] with a relative singular-value cutoff."""
    blocks, row = [], m.C.copy()
    for _ in range(m.dim_state):
        blocks.append(row)
        row = row @ m.A
    return _staircase_rank(blocks)


def controllability_rank(m: SystemModel) -> int:
    """Rank of [G, AG, ..., A^(N-1)G] for G = sqrt(Q), reported for information."""
    g = psd_sqrt(m.Q).a
    blocks, col = [], g.copy()
    for _ in range(m.dim_state):
        blocks.append(col.T)
        col = m.A @ col
    return _staircase_rank(blocks)


def validate_system(m: SystemModel) -> ValidationReport:
    """Check the standing admissibility conditions for the covariance iteration.

    Requires Q > 0, R > 0, observability of (C, A), and P0 >= 0.  The
    controllability rank of (A, sqrt(Q)) is reported for information only:
    Q > 0 already forces full rank, so it never drives the verdict.
    """
    checks = []

    for name, mat in (("Q positive definite", m.Q), ("R positive definite", m.R)):
        lam_min = float(np.min(np.linalg.eigvalsh(mat.a)))
        checks.append(
            ValidationCheck(name, lam_min > PD_TOL, f"min eigenvalue {lam_min:.6e}")
        )

    n = m.dim_state
    obs_rank = observability_rank(m)
    checks.append(
        ValidationCheck(
            "(C, A) observable",
            obs_rank == n,
            f"observability matrix rank {obs_rank} of {n}",
        )
    )

    lam_min_p0 = float(np.min(np.linalg.eigvalsh(m.P0.a)))
    p0_floor = -PD_TOL * (1.0 + spectral_norm(m.P0))
    checks.append(
        ValidationCheck(
            "P0 positive semidefinite",
            lam_min_p0 >= p0_floor,
            f"min eigenvalue {lam_min_p0:.6e}",
        )
    )

    ctrl_rank = controllability_rank(m)
    checks.append(
        ValidationCheck(
            "(A, sqrt(Q)) controllability rank",
            True,
            f"rank {ctrl_rank} of {n}",
            informational=True,
        )
    )

    return ValidationReport(checks=tuple(checks))
