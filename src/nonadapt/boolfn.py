"""Total boolean functions as truth tables.

table[x] is the value on input x, the int whose variable j is bit j - 1.  A truth-table
file holds n, then a line of the 2^n values in that order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParseError, ValidationError, read_input
from .qstate import check_input, decode_bits, encode_bits, parity

MAX_N = 20  # truth tables are dense; larger n is out of scope by design


def _check_n(n) -> int:  # before anything of size 2^n exists
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_N:
        raise ValidationError(f"n must be an int in [1, {MAX_N}], got {n!r}")
    return int(n)


@dataclass(frozen=True, eq=False)
class TotalFunction:
    """f as a read-only (2^n,) uint8 table, validated once from any 0/1 sequence."""
    n: int
    table: np.ndarray

    def __post_init__(self):
        n = _check_n(self.n)
        table = np.array(self.table)
        if table.shape != (1 << n,):
            raise ValidationError(f"table has {table.size} entries, expected {1 << n}")
        if table.dtype.kind not in "biuf" or not ((table == 0) | (table == 1)).all():
            raise ValidationError("table entries must be 0/1")
        table = table.astype(np.uint8, copy=False)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __eq__(self, other):
        if not isinstance(other, TotalFunction):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.table, other.table)

    def value(self, x: int) -> int:
        return int(self.table[check_input(x, self.n)])

    def relevant_variables(self) -> tuple[int, ...]:
        """Variables j the function actually depends on, each from one comparison of two halves."""
        return tuple(j for j in range(1, self.n + 1) if _flips(self.table, j).any())


def _flips(table: np.ndarray, j: int) -> np.ndarray:
    """[b, o]: whether input b * 2^j + o flips the value with bit j."""
    v = table.reshape(-1, 2, 1 << (j - 1))
    return v[:, 0] != v[:, 1]


def sensitive_witness(f: TotalFunction, j: int) -> int | None:
    """Smallest input whose value flips with bit j; None if f ignores j."""
    if not 1 <= j <= f.n:
        raise ContractViolation(f"variable index {j} out of range [1, {f.n}]")
    flips = _flips(f.table, j)
    first = int(flips.argmax())  # row-major order is the inputs' integer order
    if not flips.flat[first]:
        return None
    block, offset = divmod(first, flips.shape[1])
    return block << j | offset


def build_function(kind: str, n: int, table=None) -> TotalFunction:
    """Standard truth tables: parity, and, or, majority, or an explicit table."""
    n = _check_n(n)
    if kind == "from_table":
        if table is None:
            raise ValidationError("from_table requires a table")
        return TotalFunction(n, table)
    if kind == "majority" and n % 2 == 0:
        raise ValidationError("majority requires odd n")
    build = {"parity": parity, "and": lambda x: x == x[-1], "or": lambda x: x != 0,
             "majority": lambda x: 2 * np.bitwise_count(x) > n}
    if kind not in build:
        raise ValidationError(f"unknown function kind {kind!r}")
    return TotalFunction(n, build[kind](np.arange(1 << n)))


def save_function(f: TotalFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{f.n}\n{encode_bits(f.table[None])[0]}\n")


def load_function(path) -> TotalFunction:
    lines = read_input(path).splitlines()
    if len(lines) < 2:
        raise ParseError(f"{path}: expected two lines (n, then 2^n characters)")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: expected an integer, got {lines[0]!r}") from exc
    if not 1 <= n <= MAX_N:
        raise ValidationError(f"{path}: line 1: n must be in [1, {MAX_N}], got {n}")
    row = lines[1].strip()
    if len(row) != 1 << n:
        raise ParseError(f"{path}: line 2: expected {1 << n} characters, got {len(row)}")
    bits, bad = decode_bits(row)
    if bad.any():
        raise ParseError(f"{path}: line 2, position {np.argmax(bad) + 1}: expected 0 or 1")
    return TotalFunction(n, bits)
