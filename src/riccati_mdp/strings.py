"""Update-map words: finite 0/1 sequences applied to a starting covariance.

A word r = (i_1, ..., i_n) acts by composition

    value(r) = f_{i_1}( f_{i_2}( ... f_{i_n}(initial) ... ) ),

so the LAST bit touches the initial matrix first and the first bit is the
outermost, most recent update.  Reading a sample path P_t produced by arrivals
(g_0, ..., g_{t-1}) therefore gives the word (g_{t-1}, ..., g_0): newest
arrival first.  The number of 0 bits (`StringValue.pi`) is the count of
open-loop updates in the word and is the quantity every decay exponent in
this package minimizes.

Words print in a run-length text form, e.g. "0,1^3,0^2" for
(0, 1, 1, 1, 0, 0); the empty word prints as "".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SymMatrix, as_sym, loewner_leq, norms, spectral_norm
from .operators import _entry, _steps, step

# Relative pitch of the rounding grid on which word values are merged.
DEDUP_TOL = 1e-9
# The doubling search for an invariant scale gives up past 2^_MAX_DOUBLINGS.
_MAX_DOUBLINGS = 60


def format_run_length(bits: tuple[int, ...]) -> str:
    """Run-length text of a bit tuple, e.g. "0,1^3,0^2"; single runs print without the caret."""
    out: list[str] = []
    i = 0
    while i < len(bits):
        j = i
        while j < len(bits) and bits[j] == bits[i]:
            j += 1
        run = j - i
        out.append(f"{bits[i]}^{run}" if run > 1 else f"{bits[i]}")
        i = j
    return ",".join(out)


@dataclass(frozen=True)
class GammaString:
    """A word of update-map choices together with its starting covariance."""

    bits: tuple[int, ...]
    initial: SymMatrix

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "initial", as_sym(self.initial))

    def to_text(self) -> str:
        return format_run_length(self.bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class StringValue:
    value: SymMatrix
    pi: int
    source: GammaString


def eval_string(m, r: GammaString) -> StringValue:
    """Apply the word to its starting covariance, innermost bit first."""
    bits = np.array(r.bits[::-1], dtype=bool).reshape(-1, 1)
    p = _steps(m, _entry(m, r.initial, "initial"), bits, f"word {r.to_text()!r}")
    return StringValue(value=SymMatrix(p[0]), pi=r.bits.count(0), source=r)


def _grid_keys(values: np.ndarray, sizes=None) -> np.ndarray:
    """Rounding keys of a stack (k, N, N), one int64 row of N*N entries each.

    Entries are snapped to a grid of pitch DEDUP_TOL * (1 + ||X||), so two
    values sharing a key agree entrywise to within one grid cell.  sizes,
    when given, holds the `norms` of the stack.
    """
    pitch = DEDUP_TOL * (1.0 + (norms(values) if sizes is None else sizes))
    return np.round(values / pitch[:, None, None]).astype(np.int64).reshape(len(values), -1)


def value_key(x: SymMatrix) -> tuple:
    """Rounding key of one value: `_grid_keys` on a batch of one, as a tuple."""
    return tuple(_grid_keys(as_sym(x).a[None])[0].tolist())


def _next_level(m, values: np.ndarray, prefix=None):
    """One level down the word tree, with children merged on the rounding grid.

    The children of a level (k, N, N) are its f0 images followed by its f1
    images, so child i < k extends node i by a 0 bit and child k + i by a 1
    bit.  Children are grouped by their `_grid_keys`, with optional extra key
    columns `prefix` (one row per child) in front.  Returns (children,
    keys, sizes, first, inverse): sizes holds the children's spectral
    norms, which set the grid pitch; children[first] holds one
    representative per group, in order of first occurrence, and inverse[i]
    is the group of child i, ready for `_fold_groups` of per-child payloads.
    Merging is sound because a word's future depends only on its value.
    Raises RuntimeError when a child goes non-finite.
    """
    k = len(values)
    children = step(m, np.concatenate([values, values]), np.arange(2 * k) >= k)
    if not np.isfinite(children).all():
        raise RuntimeError("a word-tree level went non-finite")
    sizes = norms(children)
    keys = _grid_keys(children, sizes)
    if prefix is not None:
        keys = np.concatenate([prefix, keys], axis=1)
    first, inverse = _group_rows(keys)
    return children, keys, sizes, first, inverse


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an int64 array (n, c), numbered by first occurrence.

    Returns (first, inverse): first[g] is the row where group g first
    occurs, increasing, and inverse[i] is the group of row i.  One stable
    lexsort brings equal rows together with the earliest one leading its
    run, and one compare of adjacent sorted rows marks where runs start.
    """
    n = len(keys)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    # A run's leader is its group's first occurrence; number the leaders in
    # row order, then hand each row its run leader's number.
    leaders = np.zeros(n, dtype=bool)
    leaders[order[starts]] = True
    number = np.cumsum(leaders) - 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = number[order[starts]][np.cumsum(starts) - 1]
    return np.flatnonzero(leaders), inverse


def _fold_groups(ufunc: np.ufunc, payload: np.ndarray, first: np.ndarray,
                 inverse: np.ndarray) -> np.ndarray:
    """Fold an integer payload's rows per group of `_group_rows` with ufunc.

    Starts from each group's first row and folds in only the rows that
    merged into an earlier one, so a level without merges costs one gather.
    Integer addition and minimum do not depend on the order of the fold.
    """
    out = payload[first]
    if len(first) < len(payload):
        merged = np.ones(len(payload), dtype=bool)
        merged[first] = False
        ufunc.at(out, inverse[merged], payload[merged])
    return out


def invariant_upper_scale(m) -> float:
    """Smallest tested b with f1(b * I) <= b * I, found by doubling from 1."""
    eye = np.eye(m.dim_state)
    arrived = np.ones(1, dtype=bool)
    b = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if loewner_leq(step(m, b * eye[None], arrived)[0], b * eye):
            return b
        b *= 2.0
    raise RuntimeError(
        f"no invariant scale below 2^{_MAX_DOUBLINGS}; model may not admit one"
    )


def string_upper_bound(m, r: GammaString) -> tuple[SymMatrix, float]:
    """Envelope bound: value(r) <= f0^pi(alpha * I) for a word-independent alpha.

    alpha = max(b, ||initial||), where b is the invariant scale of the
    measurement update, so initial <= alpha * I.  Only the count of
    open-loop steps enters the envelope, not their positions, which is what
    makes the bound useful for exponent arguments.  A violation of the final
    comparison is reported as an error, not returned.
    """
    alpha = max(invariant_upper_scale(m), spectral_norm(r.initial))
    open_loop = np.zeros((r.bits.count(0), 1), dtype=bool)
    start = alpha * np.eye(m.dim_state)[None]
    bound = SymMatrix(_steps(m, start, open_loop, "f0^pi(alpha * I)")[0])

    value = eval_string(m, r).value
    if not loewner_leq(value, bound, tol=1e-7):
        raise RuntimeError(
            "envelope bound violated; the invariant-scale surrogate is "
            f"inadequate for this model (alpha {alpha:.6e})"
        )
    return bound, alpha
