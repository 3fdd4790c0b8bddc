"""Total boolean functions as truth tables.

Inputs are encoded as integers with bit 1 = least significant, so table[i]
is the function value on the string whose j'th bit is (i >> (j-1)) & 1.
The same encoding is used by the truth-table file format: first line n,
second line 2^n characters of {0,1} in integer order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, ParseError, ValidationError
from .qstate import OracleString, parity

MAX_N = 20  # truth tables are dense; larger n is out of scope by design


@dataclass(frozen=True)
class TotalFunction:
    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValidationError(f"n must be in [1, {MAX_N}], got {self.n}")
        if len(self.table) != 1 << self.n:
            raise ValidationError(
                f"table has {len(self.table)} entries, expected {1 << self.n}"
            )
        if any(v not in (0, 1) for v in self.table):
            raise ValidationError("table entries must be 0/1")

    def value_at(self, x_int: int) -> int:
        if not 0 <= x_int < (1 << self.n):
            raise ContractViolation(f"input {x_int} out of range for n={self.n}")
        return self.table[x_int]

    def value(self, x: OracleString) -> int:
        if x.n != self.n:
            raise ContractViolation(f"input has n={x.n}, function has n={self.n}")
        return self.table[x.to_int()]

    def is_constant(self) -> bool:
        return len(set(self.table)) == 1

    def relevant_variables(self) -> tuple[int, ...]:
        """Variables j the function actually depends on."""
        return tuple(
            j for j in range(1, self.n + 1) if sensitive_witness(self, j) is not None
        )


def sensitive_witness(f: TotalFunction, j: int) -> Optional[OracleString]:
    """Smallest input (by integer encoding) whose value flips when bit j flips.

    Returns None when f does not depend on variable j.
    """
    if not 1 <= j <= f.n:
        raise ContractViolation(f"variable index {j} out of range [1, {f.n}]")
    mask = 1 << (j - 1)
    for x_int in range(1 << f.n):
        if f.table[x_int] != f.table[x_int ^ mask]:
            return OracleString.from_int(f.n, x_int)
    return None


def build_function(kind: str, n: int, table=None) -> TotalFunction:
    """Standard truth tables: parity, and, or, majority, or an explicit table."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    size = 1 << n
    if kind == "parity":
        values = tuple(parity(np.arange(size)).tolist())
    elif kind == "and":
        values = tuple(1 if i == size - 1 else 0 for i in range(size))
    elif kind == "or":
        values = tuple(0 if i == 0 else 1 for i in range(size))
    elif kind == "majority":
        if n % 2 == 0:
            raise ValidationError("majority requires odd n")
        values = tuple(1 if 2 * i.bit_count() > n else 0 for i in range(size))
    elif kind == "from_table":
        if table is None:
            raise ValidationError("from_table requires a table")
        values = tuple(int(v) for v in table)
    else:
        raise ValidationError(f"unknown function kind {kind!r}")
    return TotalFunction(n, values)


def save_function(f: TotalFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{f.n}\n")
        fh.write("".join(str(v) for v in f.table) + "\n")


def load_function(path) -> TotalFunction:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
        raise ParseError(
            f"{path}: line 2: expected {1 << n} characters, got {len(row)}"
        )
    bad = next((i for i, c in enumerate(row) if c not in "01"), None)
    if bad is not None:
        raise ParseError(f"{path}: line 2, position {bad + 1}: expected 0 or 1")
    return TotalFunction(n, tuple(int(c) for c in row))
