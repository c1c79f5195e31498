"""Preference matrices, Copeland statistics, and KL utilities.

Conventions
-----------
Arms are numbered 1..K in every public signature and in all serialized
output.  Internal numeric code (and the raw ``values`` array) is 0-based.

A preference matrix stores mu[i][j], the probability that arm i is
preferred to arm j in a duel.  Storage is canonical: the entries with
i > j (1-based) are authoritative and the mirror entries are derived as
1 - mu[i][j], so mu[i][j] + mu[j][i] == 1 holds exactly by construction.
The diagonal is exactly 1/2.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExhaustedRejectionsError,
    ParseError,
    TiedPreferenceError,
    TraceIOError,
    UnknownDatasetError,
    ValidationError,
)

SYMMETRY_TOL = 1e-9  # |mu_ij + mu_ji - 1| allowed in raw input
SUBMATRIX_ATTEMPT_CAP = 100_000
_LN2 = math.log(2.0)


def _check_integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int: an int or an integral float in [low, high], else ValidationError.

    Bools are rejected.  Plain ints skip the slow ``numbers.Integral`` test:
    a draw checks its pair every round.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
        ):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low or high is not None and value > high:
        if high is not None:
            want = f"between {low} and {high}"
        else:
            want = "a nonnegative integer" if low == 0 else f"at least {low}"
        raise ValidationError(f"{name} must be {want}, got {value}")
    return value


def _check_real(value, name: str, error=ValidationError) -> float:
    """``value`` as a float if it is a finite real number and not a bool, else ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _float_array(values, what):
    """``values`` as a float array; ValidationError if it is ragged or not numeric."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a numeric array") from None


def _items(values, what) -> list:
    """``values`` as a list; ValidationError if it is not iterable."""
    try:
        return list(values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {values!r}") from None


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in nats.

    Uses the convention 0*log(0) = 0, so p may sit on the boundary of
    [0, 1]; q must lie strictly inside (0, 1).
    """
    p, q = _check_real(p, "p", DomainError), _check_real(q, "q", DomainError)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p!r}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must be in (0, 1), got {q!r}")
    total = 0.0
    if p > 0.0:
        total += p * math.log(p / q)
    if p < 1.0:
        total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return total


def gap_divergences(values) -> list:
    """d_KL(p, 1/2) for each float p of ``values``, as a list of floats.

    An entry p strictly inside (0, 1) maps to
    p*ln(2p) + (1-p)*ln(2(1-p)), and a negative result of round-off near
    1/2 to 0, so 1/2 itself maps to 0.  Exact 0 and 1 (-0.0 included)
    map to ln 2.  Every other entry, out of range or NaN, maps to 0.

    The logs come from one numpy call over [2p...] + [2(1-p)...]: numpy's
    log can differ from math.log in the last bit, and every caller must
    see numpy's bits.  The products and the sum are IEEE operations, so
    Python floats give the bits numpy would.
    """
    inner = [p for p in values if 0.0 < p < 1.0]
    div = []
    if inner:
        twice = [2.0 * p for p in inner] + [2.0 * (1.0 - p) for p in inner]
        logs = np.log(np.array(twice, dtype=float)).tolist()
        div = [p * a + (1.0 - p) * b for p, a, b in zip(inner, logs, logs[len(inner) :])]
    if len(div) < len(values):
        rest = iter(div)
        div = [next(rest) if 0.0 < p < 1.0 else _LN2 if p == 0.0 or p == 1.0 else 0.0 for p in values]
    return [d if d > 0.0 else 0.0 for d in div]


def gap_divergence(values) -> np.ndarray:
    """Elementwise d_KL(mu, 1/2) for an array of probabilities.

    ``gap_divergences`` over the flattened entries, mapped as it maps
    them (0 and 1 to ln 2, 1/2, out-of-range and NaN entries to 0), in
    the shape of ``values``.  Symmetric in mu <-> 1-mu, so a preference
    matrix gives a symmetric matrix with a zero diagonal.
    """
    p = _float_array(values, "probabilities")
    return np.array(gap_divergences(p.ravel().tolist()), dtype=float).reshape(p.shape)


class PreferenceMatrix:
    """Immutable K x K matrix of pairwise preference probabilities."""

    def __init__(self, rows, allow_ties: bool = False):
        arr = _float_array(rows, "preference matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValidationError(f"preference matrix must be square, got shape {arr.shape}")
        k = arr.shape[0]
        if not np.isfinite(arr).all():
            raise ValidationError("preference matrix contains non-finite entries")
        if (arr < -SYMMETRY_TOL).any() or (arr > 1.0 + SYMMETRY_TOL).any():
            bad = np.argwhere((arr < -SYMMETRY_TOL) | (arr > 1.0 + SYMMETRY_TOL))[0]
            raise ValidationError(
                f"entry ({bad[0] + 1},{bad[1] + 1}) = {arr[bad[0], bad[1]]!r} outside [0, 1]"
            )
        diag_resid = np.abs(np.diag(arr) - 0.5)
        if (diag_resid > SYMMETRY_TOL).any():
            i = int(np.argmax(diag_resid))
            raise ValidationError(f"diagonal entry ({i + 1},{i + 1}) = {arr[i, i]!r} must be 1/2")
        resid = np.abs(arr + arr.T - 1.0)
        if (resid > SYMMETRY_TOL).any():
            i, j = np.unravel_index(int(np.argmax(resid)), resid.shape)
            raise ValidationError(
                f"asymmetric pair ({i + 1},{j + 1}): |mu_ij + mu_ji - 1| = {resid[i, j]:.3e}"
            )

        # canonical storage: entries with row > col are authoritative, clipped
        # into [0, 1], since gap_divergences maps an entry outside it to 0
        vals = np.full((k, k), 0.5)
        low = np.tril_indices(k, -1)
        vals[low] = np.clip(arr[low], 0.0, 1.0)
        vals[(low[1], low[0])] = 1.0 - vals[low]

        # both triangles: 1 - mu can round to exactly 1/2 when mu does not
        tied = (vals == 0.5) & ~np.eye(k, dtype=bool)
        ties = bool(tied.any())
        if ties and not allow_ties:
            i, j = next((a, b) for a, b in zip(*low) if tied[a, b] or tied[b, a])
            raise TiedPreferenceError(f"strict gaps required: mu({i + 1},{j + 1}) = 1/2")

        vals.setflags(write=False)
        self._values = vals
        self._sets = _copeland_sets(vals.tolist())
        self.k = k
        self.has_ties = ties

    @property
    def values(self) -> np.ndarray:
        """Read-only 0-based array of probabilities."""
        return self._values

    @property
    def strict_gaps(self) -> bool:
        return not self.has_ties

    def mu(self, i: int, j: int) -> float:
        """mu_ij with 1-based arm indices."""
        i, j = _check_integer(i, "arm i", 1, self.k), _check_integer(j, "arm j", 1, self.k)
        return float(self._values[i - 1, j - 1])

    def take(self, arms0) -> "PreferenceMatrix":
        """Submatrix on the given distinct 0-based arm indices (kept in given order)."""
        arms0 = [_check_integer(a, "arm index", 0, self.k - 1) for a in _items(arms0, "arms0")]
        if not arms0 or len(set(arms0)) < len(arms0):
            raise ValidationError(f"submatrix arms must be distinct and nonempty, got {arms0}")
        sub = self._values[np.ix_(arms0, arms0)]
        return PreferenceMatrix(sub, allow_ties=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PreferenceMatrix):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self._values, other._values))

    def __repr__(self) -> str:
        return f"PreferenceMatrix(K={self.k}, ties={self.has_ties})"


@dataclass(frozen=True)
class CopelandSummary:
    """Superior/inferior sets and loss statistics of a preference matrix.

    All arm indices are 1-based.  ``superiors[i-1]`` is the set of arms
    that beat arm i, ``inferiors[i-1]`` the set it beats, ``losses[i-1]``
    the count of superiors.  Winners minimize the loss count.
    """

    k: int
    superiors: tuple
    inferiors: tuple
    losses: tuple
    winners: frozenset
    winner_count: int
    ordered_losses: tuple

    @property
    def min_loss(self) -> int:
        return self.ordered_losses[0]

    @property
    def has_condorcet_winner(self) -> bool:
        return self.ordered_losses[0] == 0


def _copeland_sets(rows):
    """0-based (superiors, inferiors, losses, ascending winners) lists.

    ``rows`` holds the K x K estimates mu_ij, row i for arm i, as lists or
    an array.  Arm j beats arm i where mu_ij < 1/2.  An entry at exactly
    1/2 (the diagonal, a tied pair) counts in neither set; a matrix keeps
    its own as ``_sets``, and callers needing strict gaps read them through
    ``_strict_sets``.
    """
    sup = [[j for j, v in enumerate(row) if v < 0.5] for row in rows]
    inf_ = [[j for j, v in enumerate(row) if v > 0.5] for row in rows]
    losses = [len(s) for s in sup]
    low = min(losses)
    winners = [i for i, li in enumerate(losses) if li == low]
    return sup, inf_, losses, winners


def _strict_sets(matrix: PreferenceMatrix):
    """The matrix's 0-based Copeland sets; TiedPreferenceError if any pair is tied.

    The lists are the matrix's own: callers read them and never mutate them.
    """
    if matrix.has_ties:
        raise TiedPreferenceError("strict gaps required")
    return matrix._sets


def copeland_summary(matrix: PreferenceMatrix, tie_tolerant: bool = False) -> CopelandSummary:
    """Copeland statistics of a matrix; deterministic.

    In strict mode a tied off-diagonal entry raises TiedPreferenceError.
    In tie-tolerant mode tied pairs count in neither set.
    """
    sup, inf_, losses, winners = matrix._sets if tie_tolerant else _strict_sets(matrix)
    return CopelandSummary(
        k=matrix.k,
        superiors=tuple(frozenset(j + 1 for j in s) for s in sup),
        inferiors=tuple(frozenset(j + 1 for j in h) for h in inf_),
        losses=tuple(losses),
        winners=frozenset(i + 1 for i in winners),
        winner_count=len(winners),
        ordered_losses=tuple(sorted(losses)),
    )


def regret_per_pair(summary: CopelandSummary, i: int, j: int) -> float:
    """Per-round regret (L_i + L_j - 2 L_min) / (2(K-1)) for drawing pair (i, j)."""
    i, j = _check_integer(i, "arm i", 1, summary.k), _check_integer(j, "arm j", 1, summary.k)
    return float(regret_table(summary.losses)[i - 1, j - 1])


def _regret_nums(losses) -> list:
    """Integer regret numerators L_i + L_j - 2 L_min as a K x K list of lists."""
    low = min(losses)
    return [[li + lj - 2 * low for lj in losses] for li in losses]


def regret_table(losses) -> np.ndarray:
    """K x K array of per-round regrets from a loss vector (self pairs included)."""
    k = _check_integer(len(losses), "number of arms", 1)
    arr = np.asarray(_regret_nums(losses), dtype=float)
    return arr / (2.0 * max(k - 1, 1))  # one arm: its only pair, itself, has no regret


# ---------------------------------------------------------------------------
# loading / serialization


def _parse_csv(text: str):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split(",")]
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ParseError("no matrix rows found")
    k = len(rows)
    for idx, row in enumerate(rows, start=1):
        if len(row) != k:
            raise ParseError(
                f"non-square input: {k} rows but row {idx} has {len(row)} fields"
            )
    return rows


def load_matrix(source, allow_ties: bool = False) -> PreferenceMatrix:
    """Load a preference matrix from CSV text, bytes, or a readable stream.

    Format: K lines of K comma-separated decimals, row i column j = mu_ij;
    lines starting with ``#`` are comments.  Bytes must be UTF-8, and one
    leading byte-order mark is dropped from bytes and text alike.
    Asymmetric or non-square input is rejected.
    """
    try:
        if hasattr(source, "read"):
            source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8-sig")
        elif isinstance(source, str):
            source = source.removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"matrix input is not UTF-8 ({exc})") from None
    if not isinstance(source, str):
        raise ParseError(f"cannot read matrix from {type(source).__name__}")
    return PreferenceMatrix(_parse_csv(source), allow_ties=allow_ties)


def matrix_to_csv(matrix: PreferenceMatrix) -> str:
    """Serialize with full binary precision; load_matrix(matrix_to_csv(m)) == m."""
    lines = [",".join(repr(v) for v in row) for row in matrix.values.tolist()]
    return "\n".join(lines) + "\n"


def _write_atomic(text: str, path) -> None:
    """Write ``text`` to a new temporary file beside ``path``, then rename it over ``path``.

    Readers see the old file or the whole new one, never a partial write.
    The temporary name is unique, so no other file is touched and
    concurrent writers of one path do not share it; it is created with
    mode 0o666 less the umask, like any new file.  On failure the
    temporary file is removed and TraceIOError is raised.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise TraceIOError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise TraceIOError(f"cannot write {path}: {exc}") from exc


def save_matrix(matrix: PreferenceMatrix, path) -> None:
    """Write ``matrix_to_csv(matrix)`` to ``path`` atomically."""
    _write_atomic(matrix_to_csv(matrix), path)


# ---------------------------------------------------------------------------
# built-in datasets (published benchmark tables, decimals as printed)

_TABLES = {
    "cyclic": """
        0.5 0.6 0.6 0.6
        0.4 0.5 0.9 0.1
        0.4 0.1 0.5 0.9
        0.4 0.9 0.1 0.5
        """,
    "gap": """
        0.5  0.8 0.8 0.51 0.2
        0.2  0.5 0.8 0.2  0.8
        0.2  0.2 0.5 0.8  0.8
        0.49 0.8 0.2 0.5  0.2
        0.8  0.2 0.2 0.8  0.5
        """,
    "multisol": """
        0.5 0.2 0.8 0.8 0.8
        0.8 0.5 0.2 0.8 0.8
        0.2 0.8 0.5 0.8 0.8
        0.2 0.2 0.2 0.5 0.6
        0.2 0.2 0.2 0.4 0.5
        """,
    "arxiv": """
        0.50 0.55 0.55 0.54 0.61 0.61
        0.45 0.50 0.55 0.55 0.58 0.60
        0.45 0.45 0.50 0.54 0.51 0.56
        0.46 0.45 0.46 0.50 0.54 0.50
        0.39 0.42 0.49 0.46 0.50 0.51
        0.39 0.40 0.44 0.50 0.49 0.50
        """,
    "mslr5_condorcet": """
        0.5   0.535 0.613 0.757 0.765
        0.465 0.5   0.580 0.727 0.738
        0.387 0.420 0.5   0.659 0.669
        0.243 0.276 0.341 0.5   0.510
        0.235 0.262 0.331 0.490 0.5
        """,
    "mslr5_noncondorcet": """
        0.5   0.484 0.519 0.529 0.518
        0.516 0.5   0.481 0.530 0.539
        0.481 0.519 0.5   0.504 0.512
        0.471 0.470 0.496 0.5   0.503
        0.482 0.461 0.488 0.497 0.5
        """,
    "sushi": """
        0.5   0.512 0.622 0.655 0.698 0.726 0.711 0.708 0.749 0.8   0.741 0.783 0.847 0.817 0.854 0.868
        0.488 0.5   0.602 0.683 0.652 0.776 0.663 0.683 0.738 0.709 0.786 0.802 0.83  0.85  0.871 0.873
        0.378 0.398 0.5   0.528 0.554 0.533 0.534 0.591 0.573 0.593 0.661 0.705 0.734 0.672 0.787 0.822
        0.345 0.317 0.472 0.5   0.553 0.619 0.566 0.641 0.675 0.687 0.665 0.696 0.803 0.823 0.796 0.844
        0.302 0.348 0.446 0.447 0.5   0.513 0.524 0.518 0.608 0.538 0.643 0.61  0.695 0.672 0.681 0.775
        0.274 0.224 0.467 0.381 0.487 0.5   0.513 0.559 0.575 0.621 0.591 0.701 0.702 0.787 0.829 0.811
        0.289 0.337 0.466 0.434 0.476 0.487 0.5   0.559 0.553 0.613 0.564 0.607 0.703 0.735 0.736 0.801
        0.292 0.317 0.409 0.359 0.482 0.441 0.441 0.5   0.556 0.527 0.562 0.58  0.668 0.805 0.777 0.767
        0.251 0.262 0.427 0.325 0.392 0.425 0.447 0.444 0.5   0.512 0.548 0.542 0.612 0.786 0.71  0.685
        0.2   0.291 0.407 0.313 0.462 0.379 0.387 0.473 0.488 0.5   0.543 0.579 0.613 0.718 0.685 0.747
        0.259 0.214 0.339 0.335 0.357 0.409 0.436 0.438 0.452 0.457 0.5   0.564 0.625 0.618 0.702 0.684
        0.217 0.198 0.295 0.304 0.39  0.299 0.393 0.42  0.458 0.421 0.436 0.5   0.542 0.644 0.7   0.733
        0.153 0.17  0.266 0.197 0.305 0.298 0.297 0.332 0.388 0.387 0.375 0.458 0.5   0.577 0.607 0.596
        0.183 0.15  0.328 0.177 0.328 0.213 0.265 0.195 0.214 0.282 0.382 0.356 0.423 0.5   0.578 0.637
        0.146 0.129 0.213 0.204 0.319 0.171 0.264 0.223 0.29  0.315 0.298 0.3   0.393 0.422 0.5   0.586
        0.132 0.127 0.178 0.156 0.225 0.189 0.199 0.233 0.315 0.253 0.316 0.267 0.404 0.363 0.414 0.5
        """,
}

#: Names accepted by :func:`builtin_dataset`.
BUILTIN_DATASETS = tuple(sorted(_TABLES))


def builtin_dataset(name: str) -> PreferenceMatrix:
    """Return one of the bundled benchmark matrices by name."""
    try:
        table = _TABLES[name]
    except KeyError:
        raise UnknownDatasetError(
            f"unknown dataset {name!r}; available: {', '.join(BUILTIN_DATASETS)}"
        ) from None
    rows = [[float(f) for f in line.split()] for line in table.strip().splitlines()]
    # published tables carry rounding slack in the non-authoritative triangle
    for i, row in enumerate(rows):
        for j in range(i):
            rows[j][i] = 1.0 - row[j]
    # a table with an exact 1/2 entry (arxiv) loads tie-tolerant and records it in has_ties
    return PreferenceMatrix(rows, allow_ties=True)


# ---------------------------------------------------------------------------
# submatrix sampling


def sample_submatrix(
    matrix: PreferenceMatrix,
    k: int,
    min_gap: float,
    rng,
    max_attempts: int = SUBMATRIX_ATTEMPT_CAP,
) -> PreferenceMatrix:
    """Uniformly sample k distinct arms, rejecting draws with small gaps.

    ``rng`` is a numpy Generator or a nonnegative seed for one.  A draw is
    rejected while any selected off-diagonal pair has
    |mu_ij - 1/2| < min_gap.  Deterministic given the generator state;
    raises ExhaustedRejectionsError after ``max_attempts`` rejections.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(_check_integer(rng, "seed", 0))
    k = _check_integer(k, "submatrix size k", 1, matrix.k)
    min_gap = _check_real(min_gap, "min_gap")
    max_attempts = _check_integer(max_attempts, "max_attempts", 0)
    if min_gap < 0:
        raise ValidationError(f"min_gap must be nonnegative, got {min_gap!r}")
    values = matrix.values
    off = ~np.eye(k, dtype=bool)
    for _ in range(max_attempts):
        arms0 = np.sort(rng.choice(matrix.k, size=k, replace=False))
        sub = values[np.ix_(arms0, arms0)]
        if min_gap > 0 and (np.abs(sub[off] - 0.5) < min_gap).any():
            continue
        return matrix.take(arms0)
    raise ExhaustedRejectionsError(
        f"no {k}-arm submatrix with gaps >= {min_gap} found in {max_attempts} attempts"
    )
