"""The two covariance update maps and their fixed-point analysis.

A missed observation applies the open-loop update

    f0(X) = A X A^T + Q,

an arrived observation applies the measurement update

    f1(X) = A X A^T + Q - A X C^T (C X C^T + R)^(-1) C X A^T.

f1 is the arrival map even though sample paths select between the two at
random; randomness lives entirely in which map gets applied.  Both maps
preserve the PSD cone and are monotone in the Loewner order, and f1 admits a
unique PSD fixed point P* for validated models, found here by plain
fixed-point iteration (`solve_dare`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_ORDER_TOL, SymMatrix, as_sym, spectral_norm

# Iterates are symmetrized every step; this is the PSD slack allowed on inputs.
_PSD_INPUT_TOL = 1e-8


def _require_psd(x: SymMatrix, what: str) -> SymMatrix:
    x = as_sym(x)
    lam_min = float(np.min(np.linalg.eigvalsh(x.a)))
    if lam_min < -_PSD_INPUT_TOL * (1.0 + spectral_norm(x)):
        raise ValueError(f"{what} must be PSD, min eigenvalue {lam_min:.6e}")
    return x


def _single_step(m, x: SymMatrix, arrived: bool) -> SymMatrix:
    x = _require_psd(x, "X")
    if x.dim != m.dim_state:
        raise ValueError(f"X must be {m.dim_state}x{m.dim_state}, got {x.dim}x{x.dim}")
    return SymMatrix(step(m, x.a[None], np.array([arrived]))[0])


def lyapunov_step(m, x: SymMatrix) -> SymMatrix:
    """Open-loop update f0(X) = A X A^T + Q; `step` on a batch of one."""
    return _single_step(m, x, False)


def riccati_step(m, x: SymMatrix) -> SymMatrix:
    """Measurement update f1(X) = A X A^T + Q - A X C^T (C X C^T + R)^(-1) C X A^T.

    `step` on a batch of one, so single matrices and stacks share numerics.
    """
    return _single_step(m, x, True)


def step(m, p: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """One update of a stack p of shape (k, N, N): f1 where bits is set, else f0.

    The one f0/f1 kernel: chains, word-tree levels and the single-matrix
    `lyapunov_step` / `riccati_step` all step through it.  Inputs are trusted
    to be symmetric PSD and are not checked.

    * N = 1 with one output uses the closed forms a^2 x + q and
      a^2 x + q - (a c x)^2 / (c^2 x + r), elementwise.
    * Otherwise A P A^T is two matrix products over the (k*N, N) reshaped
      stack.  A single output makes the correction the rank-one term
      u u^T / s with u = A P c^T and s = c P c^T + r; more outputs solve
      against the innovation matrix, and a singular one raises RuntimeError.
      The result is re-symmetrized so round-off cannot drift across steps.
    """
    k, n, _ = p.shape
    arrived = np.asarray(bits, dtype=bool)[:, None, None]
    if n == 1 and m.dim_obs == 1:
        a, c = m.A[0, 0], m.C[0, 0]
        f0 = a * a * p + m.Q.a[0, 0]
        f1 = f0 - (a * c * p) ** 2 / (c * c * p + m.R.a[0, 0])
        return np.where(arrived, f1, f0)
    a, c = m.A, m.C
    flat = p.reshape(k * n, n)
    # Rows of A P, stacked: each P A^T transposed, since P = P^T.
    ap = (flat @ a.T).reshape(k, n, n).transpose(0, 2, 1).reshape(k * n, n)
    f0 = (ap @ a.T).reshape(k, n, n) + m.Q.a
    if m.dim_obs == 1:
        pc = (flat @ c[0]).reshape(k, n)
        u = pc @ a.T
        s = pc @ c[0] + m.R.a[0, 0]
        corr = u[:, :, None] * (u / s[:, None])[:, None, :]
    else:
        axct = (ap @ c.T).reshape(k, n, -1)
        innov = c @ (flat @ c.T).reshape(k, n, -1) + m.R.a
        innov = (innov + np.transpose(innov, (0, 2, 1))) / 2.0
        try:
            corr = axct @ np.linalg.solve(innov, np.transpose(axct, (0, 2, 1)))
        except np.linalg.LinAlgError as exc:
            # Admissible models keep the innovation positive definite, so
            # this only happens once a chain has gone non-finite.
            raise RuntimeError(f"innovation matrix is singular: {exc}") from exc
    out = np.where(arrived, f0 - corr, f0)
    return (out + np.transpose(out, (0, 2, 1))) / 2.0


def norms(p: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of symmetric matrices of shape (k, N, N)."""
    if p.shape[-1] == 1:
        return np.abs(p[:, 0, 0])
    sym = (p + np.transpose(p, (0, 2, 1))) / 2.0
    return np.max(np.abs(np.linalg.eigvalsh(sym)), axis=-1)


def riccati_power(m, x: SymMatrix, t: int) -> SymMatrix:
    """t-fold application of the measurement update, f1^t(X)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    out = as_sym(x)
    for _ in range(t):
        out = riccati_step(m, out)
    return out


@dataclass(frozen=True)
class DareSolution:
    """Fixed point of the measurement update, with solver diagnostics."""

    p_star: SymMatrix
    iterations: int
    residual: float

    def to_dict(self) -> dict:
        return {
            "p_star": self.p_star.a.tolist(),
            "iterations": self.iterations,
            "residual": self.residual,
        }


def solve_dare(m, tol: float = 1e-12, max_iterations: int = 100_000) -> DareSolution:
    """Fixed point of f1 by direct iteration from X = Q.

    Stops when the step size drops below tol * (1 + ||X||).  Validated models
    contract geometrically near the fixed point, so the plain iteration is
    reliable and keeps the solver free of model-reduction heuristics.
    """
    x = m.Q
    for k in range(1, max_iterations + 1):
        x_next = riccati_step(m, x)
        if spectral_norm(x_next - x) <= tol * (1.0 + spectral_norm(x)):
            residual = spectral_norm(riccati_step(m, x_next) - x_next)
            return DareSolution(p_star=x_next, iterations=k, residual=residual)
        x = x_next
    raise RuntimeError(
        f"fixed-point iteration did not converge in {max_iterations} iterations"
    )


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMatrix:
    """Random PSD matrix scale * G G^T / n with Gaussian G.

    The norm concentrates near `scale` but keeps sampling spread; exact
    normalization would collapse all 1x1 draws to the same value.
    """
    g = rng.standard_normal((n, n))
    return SymMatrix(g @ g.T * (scale / n))


def uniform_bound_kappa(m, trials: int = 50, seed: int = 0) -> float:
    """Constant kappa with f1^N(X) <= kappa * I across operating scales.

    Takes twice the largest ||f1^N(X)|| over scaled identities and random PSD
    draws at norms 1 through 1e4, then verifies the candidate against 200
    fresh random draws, doubling on any violation.  More than 10 doublings
    means the model does not admit a uniform N-step bound at these scales.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = m.dim_state
    scales = [1.0, 10.0, 100.0, 1e3, 1e4]

    probes = [SymMatrix(s * np.eye(n)) for s in scales]
    for s in scales:
        probes.extend(random_psd(rng, n, s) for _ in range(trials))
    kappa = 2.0 * max(spectral_norm(riccati_power(m, x, n)) for x in probes)

    for attempt in range(11):
        check_rng = np.random.default_rng(np.random.SeedSequence((seed, 10_000 + attempt)))
        ok = True
        for _ in range(200):
            scale = 10.0 ** check_rng.uniform(0.0, 4.0)
            x = random_psd(check_rng, n, scale)
            lam_max = float(np.max(np.linalg.eigvalsh(riccati_power(m, x, n).a)))
            if lam_max > kappa * (1.0 + DEFAULT_ORDER_TOL):
                ok = False
                break
        if ok:
            return kappa
        kappa *= 2.0
    raise RuntimeError(
        "no uniform N-step bound found after 10 doublings; "
        "the measurement update does not appear uniformly bounded for this model"
    )
