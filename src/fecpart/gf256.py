"""Arithmetic and dense linear algebra over GF(2^8).

Field elements are plain ints in 0..255 (or uint8 numpy arrays for bulk
work); matrices are 2-D uint8 numpy arrays, and `mat_mul` and `mat_invert`
also take a batch of them as one 3-D array.  These are the package's only
field tables, built once at import for the reduction polynomial
x^8+x^4+x^3+x^2+1 (0x11D): int16 logs, antilogs over three periods (the
codec sums logs with no mod 255) and a 256x256 product table, so that a
matrix product is a table gather, run in one loop over blocks of 64 KiB of
indices.  `mat_mul` is the codec's one bulk product; `mat_invert` is the
reference inverse that the tests and the MDS check use, off every encode
and decode path.  Everything here is pure and operates on immutable tables,
so concurrent use is safe.
"""

from __future__ import annotations

import numpy as np

REDUCING_POLY = 0x11D


class SingularMatrixError(ValueError):
    """Raised when asked to invert a rank-deficient matrix."""


def _build_tables():
    exp = np.zeros(765, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int16)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= REDUCING_POLY
    # three periods: EXP[i] == EXP[i % 255] for every i < 765
    exp[255:] = np.tile(exp[:255], 2)

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
_GATHER_BYTES = 1 << 16  # the index block of one mat_mul gather


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
    """a**e with the convention 0**0 = 1; 0 has no negative powers."""
    if e == 0:
        return 1
    if a == 0:
        if e < 0:
            raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) * e) % 255])


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def _batched(x: np.ndarray) -> np.ndarray:
    # a 2-D matrix as a batch of one; a 3-D batch as it is
    return x[None] if x.ndim == 2 else x


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix-matrix product over GF(256), of two matrices or two batches.

    `a` and `b` are both 2-D, or both 3-D with the same leading batch
    length, in which case item i of the result is a[i] times b[i].  Row r of
    a product XORs together the rows of `b`, each multiplied by its
    coefficient in row r of `a`: one gather from the flat product table per
    row of `a` and block of `b`, so the work is one table lookup per
    multiply-accumulate.  A block spans some batch items and some columns,
    sized so the gather's index block (items x inner dimension x columns)
    fills one 64 KiB budget (`_GATHER_BYTES`) and stays cache-resident:
    temporary memory does not grow with the batch or the column count.

    numpy runs its inner loops along a block's last axis, so that axis is
    the longer one; the layout is chosen once, and one loop runs over (item
    block, column block, row of `a`).  Wide products (every 2-D one, every
    batch of one, the codec's packets) take blocks of columns laid out
    (inner, items, columns), with intp indices.  A batch of short products,
    whose column block would hold more items than columns (the Monte-Carlo
    validator's (B, e, k) x (B, k, 4)), takes blocks of whole items laid out
    (inner, columns, items), the batch innermost, with uint16 indices: laid
    out the other way, every OR, gather and XOR would run 4-element loops.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if (
        a.ndim not in (2, 3)
        or b.ndim != a.ndim
        or a.shape[:-2] != b.shape[:-2]
        or a.shape[-1] != b.shape[-2]
    ):
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.uint8)
    inner, columns = b.shape[-2:]
    if inner == 0 or columns == 0:
        return out
    a3, b3, out3 = _batched(a), _batched(b), _batched(out)
    # blocks of columns laid out (inner, items, columns): a row's offsets span the columns
    dtype, order, spread = np.intp, (1, 0, 2), np.s_[..., None]
    indices = _GATHER_BYTES // np.dtype(dtype).itemsize
    width = min(columns, max(1, indices // inner))
    items = max(1, indices // (inner * width))
    if min(items, len(a3)) > width:
        # then width == columns: blocks of whole items, batch innermost
        dtype, order, spread = np.uint16, (1, 2, 0), np.s_[:, :, None]
        items = max(1, _GATHER_BYTES // np.dtype(dtype).itemsize // (inner * width))
    for lo in range(0, len(a3), items):
        # a[i, r, j] << 8 | b[i, j, c] indexes MUL_TABLE[a[i, r, j], b[i, j, c]]
        # (it fits uint16); inner dimension first, so each gather is
        # XOR-reduced over axis 0
        offsets = (a3[lo : lo + items].astype(dtype) << 8).transpose(1, 2, 0)[spread]
        for c in range(0, columns, width):
            block = b3[lo : lo + items, :, c : c + width].transpose(order)
            dest = out3[lo : lo + items, :, c : c + width].transpose(order)
            for row_offsets, row_dest in zip(offsets, dest):
                np.bitwise_xor.reduce(_FLAT_MUL.take(row_offsets | block), axis=0, out=row_dest)
    return out


def mat_invert(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix, or each of a batch of them, by Gauss-Jordan.

    `m` is n x n or B x n x n.  Each column is cleared from every row of
    the whole batch, in place, by one gather from the flat product table.
    Each matrix pivots on its diagonal element, or, where that is zero, on
    the first nonzero element below it (exact arithmetic: any will do).

    Raises SingularMatrixError if a matrix has no inverse.
    """
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix is not square: {m.shape}")
    batch = _batched(m)
    count, n = batch.shape[:2]
    aug = np.zeros((count, n, 2 * n), dtype=np.uint8)
    aug[:, :, :n] = batch
    aug.reshape(count, -1)[:, n :: 2 * n + 1] = 1  # the identity: entries (i, n + i)
    for col in range(n):
        factors = aug[:, :, col]  # views: they follow the row swaps below
        pivots = factors[:, col]
        if np.count_nonzero(pivots) < count:
            below = aug[:, col:, col] != 0
            stuck = np.flatnonzero(~below.any(axis=1))
            if stuck.size:
                where = f" (batch item {stuck[0]})" if m.ndim == 3 else ""
                raise SingularMatrixError(f"matrix is singular at column {col}{where}")
            piv = col + below.argmax(axis=1)
            moved = np.flatnonzero(piv != col)
            rows = (moved, piv[moved])
            aug[rows], aug[moved, col] = aug[moved, col], aug[rows]
        # the scaled pivot rows have a 1 in this column, so clearing it from
        # every row zeroes the pivot row too, which then takes the scaled row
        row = MUL_TABLE[INV_TABLE[pivots][:, None], aug[:, col]]
        aug ^= _FLAT_MUL.take((factors.astype(np.intp) << 8)[..., None] | row[:, None])
        aug[:, col] = row
    inverse = aug[:, :, n:]
    return (inverse if m.ndim == 3 else inverse[0]).copy()
