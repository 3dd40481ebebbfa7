"""Arithmetic and dense linear algebra over GF(2^8).

Field elements are plain ints in 0..255 (or uint8 numpy arrays for bulk
work); matrices are 2-D uint8 numpy arrays.  Multiplication uses log/antilog
tables built once at import for the reduction polynomial x^8+x^4+x^3+x^2+1
(0x11D), plus a full 256x256 product table so that a matrix product is a table
gather: `mat_mul` is the one bulk product, used by the generator
construction and by the codec's encoder and decoder.

Everything here is pure and operates on immutable tables, so concurrent use
is safe.
"""

from __future__ import annotations

import numpy as np

REDUCING_POLY = 0x11D


class SingularMatrixError(ValueError):
    """Raised when asked to invert a rank-deficient matrix."""


def _build_tables():
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int64)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= REDUCING_POLY
    # doubled antilog table avoids a mod 255 in the scalar hot path
    exp[255:510] = exp[0:255]

    mul = np.zeros((256, 256), dtype=np.uint8)
    nz = np.arange(1, 256)
    mul[1:, 1:] = exp[(log[nz][:, None] + log[nz][None, :]) % 255]

    inv = np.zeros(256, dtype=np.uint8)
    inv[1:] = exp[255 - log[nz]]
    return exp, log, mul, inv


EXP_TABLE, LOG_TABLE, MUL_TABLE, INV_TABLE = _build_tables()
EXP_TABLE.setflags(write=False)
LOG_TABLE.setflags(write=False)
MUL_TABLE.setflags(write=False)
INV_TABLE.setflags(write=False)
_FLAT_MUL = MUL_TABLE.ravel()
# intp entries per mat_mul gather block: 64 KiB of indices
_GATHER_INDICES = 1 << 13


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; zero has none."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return int(INV_TABLE[a])


def gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(EXP_TABLE[(LOG_TABLE[a] - LOG_TABLE[b]) % 255])


def gf_pow(a: int, e: int) -> int:
    """a**e with the convention 0**0 = 1."""
    if e == 0:
        return 1
    if a == 0:
        return 0
    return int(EXP_TABLE[(LOG_TABLE[a] * e) % 255])


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix-matrix product over GF(256).

    Row i of the result XORs together the rows of `b`, each multiplied by
    its coefficient in row i of `a`: one gather from the flat product table
    per row of `a` and column block of `b`, so the work is one table lookup
    per multiply-accumulate.  Column blocks are sized so the gather's index
    block (inner dimension x block width) stays cache-resident.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    if b.shape[0] == 0:
        return out
    # a[i, j] << 8 | b[j, c] indexes MUL_TABLE[a[i, j], b[j, c]] in the flat table
    row_offsets = (a.astype(np.intp) << 8)[:, :, None]
    width = max(1, _GATHER_INDICES // b.shape[0])
    for lo in range(0, b.shape[1], width):
        cols = b[:, lo : lo + width]
        for offsets, dest in zip(row_offsets, out[:, lo : lo + width]):
            np.bitwise_xor.reduce(_FLAT_MUL.take(offsets + cols), axis=0, out=dest)
    return out


def mat_invert(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan elimination.

    Pivots on the diagonal element when it is nonzero and otherwise on the
    first nonzero element below it (exact arithmetic, so any nonzero pivot
    is as good as any other).  Each column is cleared from every row in one
    table gather: the matrices inverted here (the decoder's e x e block, a
    Vandermonde block) are dense, so selecting rows would save nothing.

    Raises SingularMatrixError if the matrix has no inverse.
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square: {m.shape}")
    n = m.shape[0]
    aug = np.concatenate([m, identity(n)], axis=1)
    for col in range(n):
        pivot = aug[col, col]
        if not pivot:
            below = np.flatnonzero(aug[col:, col])
            if below.size == 0:
                raise SingularMatrixError(f"matrix is singular at column {col}")
            piv = col + int(below[0])
            aug[[col, piv]] = aug[[piv, col]]
            pivot = aug[col, col]
        row = MUL_TABLE[INV_TABLE[pivot], aug[col]]
        # row has a 1 in this column, so this zeroes the column in every
        # row, the pivot row included, which then takes the scaled row
        aug ^= MUL_TABLE[aug[:, col, None], row]
        aug[col] = row
    return aug[:, n:].copy()
