"""Benchmark instance generation and payoff matrix file formats.

Random payoffs are drawn from a counter-based Philox generator (numpy's
Philox4x32-10 bit generator), so a (kind, n, m, seed) tuple yields the
same matrix bitwise on every platform, filled in row-major order.
Normal entries use numpy's ziggurat standard-normal sampler.

Two file formats are supported and detected by extension: dense CSV
(one row per line, entries printed with %.17g so float64 values
round-trip exactly) and MatrixMarket coordinate format (.mtx) with
1-based indices, where absent entries are zero and no entry may be
given twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .game import MatrixGame

KIND_UNIFORM = "uniform"
KIND_NORMAL = "normal"
KIND_FILE = "file"
# Seeds are Philox keys, which must be below this.
SEED_LIMIT = 2**128

_MTX_HEADER = ("%%matrixmarket", "matrix", "coordinate", "real", "general")


class MatrixFileError(ValueError):
    """A payoff matrix file failed to parse; the message carries the location."""


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one benchmark game.

    ``uniform`` draws entries from [-1, 1], ``normal`` from the standard
    normal; both need n, m, and a seed.  ``file`` loads ``path``.
    """

    kind: str
    n: int = 0
    m: int = 0
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in (KIND_UNIFORM, KIND_NORMAL, KIND_FILE):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.kind == KIND_FILE:
            if not self.path:
                raise ValueError("file instances require a path")
        else:
            if self.n < 1 or self.m < 1:
                raise ValueError(
                    f"random instances require positive dimensions, got "
                    f"({self.n}, {self.m})")
            if self.seed < 0:
                raise ValueError(f"seed must be nonnegative, got {self.seed}")
            if self.seed >= SEED_LIMIT:
                raise ValueError(f"seed must be below 2**128, got {self.seed}")

    def label(self) -> str:
        """Short identifier used in benchmark output files."""
        if self.kind == KIND_FILE:
            stem = os.path.splitext(os.path.basename(self.path))[0]
            return f"file-{stem}"
        return f"{self.kind}-{self.n}x{self.m}"


def generate(spec: InstanceSpec) -> MatrixGame:
    """Materialize the payoff matrix an InstanceSpec describes."""
    if spec.kind == KIND_FILE:
        return load_matrix(spec.path)
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    if spec.kind == KIND_UNIFORM:
        payoff = rng.uniform(-1.0, 1.0, size=(spec.n, spec.m))
    else:
        payoff = rng.standard_normal(size=(spec.n, spec.m))
    return MatrixGame.from_payoff(payoff)


def load_matrix(path: str) -> MatrixGame:
    """Load a payoff matrix from a .csv or .mtx file by extension."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return MatrixGame.from_payoff(_read_csv(path))
    if ext == ".mtx":
        return MatrixGame.from_payoff(_read_mtx(path))
    raise MatrixFileError(
        f"{path}: unsupported matrix file extension {ext!r} "
        f"(expected .csv or .mtx)")


def save_matrix(game: MatrixGame, path: str) -> None:
    """Write a payoff matrix in the format matching the path extension."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        with open(path, "w", encoding="ascii") as fh:
            for row in game.payoff:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return
    if ext == ".mtx":
        nz = np.argwhere(game.payoff != 0.0)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{game.n} {game.m} {len(nz)}\n")
            for i, j in nz:
                fh.write(f"{i + 1} {j + 1} {game.payoff[i, j]:.17g}\n")
        return
    raise MatrixFileError(
        f"{path}: unsupported matrix file extension {ext!r} "
        f"(expected .csv or .mtx)")


def _ascii_lines(path: str):
    """Yield ``(lineno, line)`` of an ASCII text file, 1-based.

    A byte above 0x7f raises MatrixFileError naming its line; the file
    is decoded with surrogateescape, so the read itself never fails.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00
                raise MatrixFileError(
                    f"{path}:{lineno}: byte 0x{byte:02x} is not ASCII")
            yield lineno, line


def _read_csv(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, line in _ascii_lines(path):
        stripped = line.strip()
        if not stripped:
            continue
        tokens = stripped.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise MatrixFileError(
                f"{path}:{lineno}: row has {len(tokens)} entries, "
                f"expected {width}")
        values = []
        for colno, tok in enumerate(tokens, start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise MatrixFileError(
                    f"{path}:{lineno}: column {colno}: "
                    f"not a number: {tok.strip()!r}") from None
        rows.append(values)
    if not rows:
        raise MatrixFileError(f"{path}: no matrix rows found")
    return np.array(rows)


def _read_mtx(path: str) -> np.ndarray:
    lines = [line for _, line in _ascii_lines(path)]
    if not lines:
        raise MatrixFileError(f"{path}: empty file")
    header = lines[0].split()
    if [tok.lower() for tok in header] != list(_MTX_HEADER):
        raise MatrixFileError(
            f"{path}:1: expected header "
            f"'%%MatrixMarket matrix coordinate real general', "
            f"got {lines[0].strip()!r}")
    body = [(no, ln) for no, ln in enumerate(lines[1:], start=2)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixFileError(f"{path}: missing size line")
    size_no, size_line = body[0]
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixFileError(
            f"{path}:{size_no}: size line must be 'rows cols nonzeros', "
            f"got {size_line.strip()!r}")
    try:
        n, m, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixFileError(
            f"{path}:{size_no}: size line must hold three integers, "
            f"got {size_line.strip()!r}") from None
    if n < 1 or m < 1 or nnz < 0:
        raise MatrixFileError(
            f"{path}:{size_no}: invalid sizes ({n}, {m}, {nnz})")
    entries = body[1:]
    if len(entries) != nnz:
        raise MatrixFileError(
            f"{path}: header declares {nnz} entries but file has "
            f"{len(entries)}")
    a = np.zeros((n, m))
    first_line: dict[tuple[int, int], int] = {}
    for lineno, line in entries:
        parts = line.split()
        if len(parts) != 3:
            raise MatrixFileError(
                f"{path}:{lineno}: entry must be 'row col value', "
                f"got {line.strip()!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixFileError(
                f"{path}:{lineno}: malformed entry {line.strip()!r}") from None
        if not (1 <= i <= n and 1 <= j <= m):
            raise MatrixFileError(
                f"{path}:{lineno}: index ({i}, {j}) outside declared "
                f"{n} x {m} shape")
        earlier = first_line.setdefault((i, j), lineno)
        if earlier != lineno:
            raise MatrixFileError(
                f"{path}:{lineno}: entry ({i}, {j}) repeats line {earlier}")
        a[i - 1, j - 1] = v
    return a
