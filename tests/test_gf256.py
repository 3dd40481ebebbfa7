"""GF(256) arithmetic against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from fecpart.gf256 import (
    _BATCH_INDICES,
    _GATHER_INDICES,
    EXP_TABLE,
    LOG_TABLE,
    MUL_TABLE,
    REDUCING_POLY,
    SingularMatrixError,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
    identity,
    mat_invert,
    mat_mul,
)


def mul_bitwise(a: int, b: int) -> int:
    """Carry-less polynomial multiply reduced mod 0x11D; independent of the tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCING_POLY
        b >>= 1
    return acc


def test_mul_absorbing_zero_and_identity():
    assert gf_mul(0, 77) == 0
    assert gf_mul(77, 0) == 0
    assert gf_mul(1, 77) == 77
    assert gf_mul(2, 128) == 29  # == mul_bitwise(2, 128)
    assert mul_bitwise(2, 128) == 29


def test_mul_matches_bitwise_oracle_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == mul_bitwise(a, b), (a, b)


def test_mul_table_matches_scalar_mul():
    # the bulk table is what the codecs actually use
    flat = np.array([[gf_mul(a, b) for b in range(256)] for a in range(256)],
                    dtype=np.uint8)
    assert np.array_equal(MUL_TABLE, flat)


def test_mul_commutative_exhaustively():
    assert np.array_equal(MUL_TABLE, MUL_TABLE.T)


def test_inverse_by_exhaustive_search():
    assert gf_inv(1) == 1
    for a in range(1, 256):
        candidates = [b for b in range(1, 256) if gf_mul(a, b) == 1]
        assert candidates == [gf_inv(a)]


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)
    with pytest.raises(ZeroDivisionError):
        gf_div(3, 0)


def test_div_inverts_mul():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = int(rng.integers(0, 256))
        b = int(rng.integers(1, 256))
        assert gf_div(gf_mul(a, b), b) == a


def test_pow_small_cases():
    assert gf_pow(0, 0) == 1
    assert gf_pow(0, 5) == 0
    assert gf_pow(7, 0) == 1
    assert gf_mul(gf_pow(7, -1), 7) == 1
    assert gf_pow(3, -2) == gf_inv(gf_mul(3, 3))
    with pytest.raises(ZeroDivisionError):
        gf_pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        gf_pow(0, -255)
    x = 1
    for e in range(1, 10):
        x = gf_mul(x, 3)
        assert gf_pow(3, e) == x


def test_multiplicative_group_order():
    # powers of the generator cover all 255 nonzero elements exactly once
    assert len(set(int(EXP_TABLE[i]) for i in range(255))) == 255
    assert int(EXP_TABLE[255]) == int(EXP_TABLE[0])


def test_associativity_and_distributivity_random_triples():
    rng = np.random.default_rng(7)
    n = 200_000
    a = rng.integers(0, 256, n)
    b = rng.integers(0, 256, n)
    c = rng.integers(0, 256, n)
    assert np.array_equal(MUL_TABLE[a, MUL_TABLE[b, c]], MUL_TABLE[MUL_TABLE[a, b], c])
    assert np.array_equal(MUL_TABLE[a, b ^ c], MUL_TABLE[a, b] ^ MUL_TABLE[a, c])


def reference_mat_mul(a, b):
    # naive triple-loop oracle over the scalar product
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for c in range(b.shape[1]):
            acc = 0
            for j in range(a.shape[1]):
                acc ^= gf_mul(int(a[i, j]), int(b[j, c]))
            out[i, c] = acc
    return out


def test_mat_mul_matches_scalar_loop():
    rng = np.random.default_rng(11)
    inner = 64
    wide = 2 * (_GATHER_INDICES // inner) + 3  # spans three column blocks
    shapes = [(3, 20, 1), (3, 20, 4), (3, 20, 1500), (2, inner, wide), (4, 1, 7)]
    for rows, inner_dim, cols in shapes:
        a = rng.integers(0, 256, (rows, inner_dim), dtype=np.uint8)
        b = rng.integers(0, 256, (inner_dim, cols), dtype=np.uint8)
        assert np.array_equal(mat_mul(a, b), reference_mat_mul(a, b))
    v = rng.integers(0, 256, (3, 5), dtype=np.uint8)
    assert np.array_equal(mat_mul(identity(3), v), v)
    assert np.array_equal(mat_mul(np.zeros((3, 0), np.uint8), np.zeros((0, 5), np.uint8)),
                          np.zeros((3, 5), np.uint8))


def test_mul_bytes_matches_scalar():
    # one coefficient times a row of bytes: a 1x1 by 1xL product
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, (1, 512), dtype=np.uint8)
    for coef in (0, 1, 2, 77, 255):
        expected = np.array([[gf_mul(coef, int(x)) for x in data[0]]], dtype=np.uint8)
        assert np.array_equal(mat_mul(np.array([[coef]], np.uint8), data), expected)


def test_mat_mul_vec_identity_and_zero():
    v = np.array([[9], [200], [31]], dtype=np.uint8)
    assert np.array_equal(mat_mul(identity(3), v), v)
    assert np.array_equal(mat_mul(np.zeros((3, 3), np.uint8), v), np.zeros((3, 1), np.uint8))


def test_mat_mul_vec_matches_scalar_loop():
    # matrix times a single column, the shape of a one-byte packet
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.integers(0, 256, (4, 3), dtype=np.uint8)
        v = rng.integers(0, 256, (3, 1), dtype=np.uint8)
        assert np.array_equal(mat_mul(m, v), reference_mat_mul(m, v))


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(np.zeros((3, 4), np.uint8), np.zeros((3, 2), np.uint8))
    with pytest.raises(ValueError):
        mat_mul(np.zeros((3, 4), np.uint8), np.zeros(4, np.uint8))


def test_mat_invert_identity():
    assert np.array_equal(mat_invert(identity(5)), identity(5))


def test_mat_invert_multiply_back():
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = rng.integers(0, 256, (3, 3), dtype=np.uint8)
        try:
            inv = mat_invert(m)
        except SingularMatrixError:
            continue
        assert np.array_equal(mat_mul(m, inv), identity(3))
        assert np.array_equal(mat_mul(inv, m), identity(3))


def test_mat_invert_duplicated_row_is_singular():
    m = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=np.uint8)
    with pytest.raises(SingularMatrixError):
        mat_invert(m)


def test_mat_invert_involution_up_to_16():
    rng = np.random.default_rng(17)
    for size in range(1, 17):
        made = 0
        while made < 5:
            m = rng.integers(0, 256, (size, size), dtype=np.uint8)
            try:
                inv = mat_invert(m)
            except SingularMatrixError:
                continue
            made += 1
            assert np.array_equal(mat_invert(inv), m)


def test_mat_invert_rejects_non_square():
    with pytest.raises(ValueError):
        mat_invert(np.zeros((2, 3), np.uint8))


def test_mat_mul_batch_matches_each_item():
    # a 3-D product is the 2-D product of each item, also where the index
    # blocks split the batch (small L) or the columns (large L), on either
    # side of the switch to batch-major blocks: a column block of c columns
    # holding more than c items (here 4 columns at inner 40; 8 columns at
    # inner 128, where a block holds exactly 8 items, and at inner 113, 9)
    rng = np.random.default_rng(19)
    batch_block = _BATCH_INDICES // (40 * 4)  # items per batch-major block
    shapes = [
        (1, 3, 97, 1500), (300, 4, 40, 4), (5, 2, 9, 3), (7, 8, 100, 90),
        (4, 3, 40, 4), (5, 3, 40, 4),  # items == width, one past it
        (20, 2, 128, 8), (20, 2, 113, 8),  # the same, set by the index budget
        (2 * batch_block + 7, 2, 40, 4),  # several batch-major blocks, ragged last
        (50, 2, 1, 3), (3, 4, 1, 1500),  # inner == 1, both orders
    ]
    for count, rows, inner, cols in shapes:
        a = rng.integers(0, 256, (count, rows, inner), dtype=np.uint8)
        b = rng.integers(0, 256, (count, inner, cols), dtype=np.uint8)
        out = mat_mul(a, b)
        assert out.shape == (count, rows, cols)
        for item in range(count):
            assert np.array_equal(out[item], mat_mul(a[item], b[item]))
        # the same product from non-contiguous views of the same values
        a_view = np.zeros((count, rows, 2 * inner), np.uint8)[:, :, ::2]
        b_view = np.zeros((count, 2 * inner, cols), np.uint8)[:, ::-2]
        a_view[:], b_view[:] = a, b
        assert np.array_equal(mat_mul(a_view, b_view), out)
    a = rng.integers(0, 256, (3, 2, 5), dtype=np.uint8)
    b = rng.integers(0, 256, (3, 5, 4), dtype=np.uint8)
    assert np.array_equal(mat_mul(a, b)[1], reference_mat_mul(a[1], b[1]))
    # one item of a batch-major product against the scalar loop
    a = rng.integers(0, 256, (batch_block + 3, 3, 40), dtype=np.uint8)
    b = rng.integers(0, 256, (batch_block + 3, 40, 4), dtype=np.uint8)
    assert np.array_equal(mat_mul(a, b)[-2], reference_mat_mul(a[-2], b[-2]))
    assert mat_mul(np.zeros((0, 2, 3), np.uint8), np.zeros((0, 3, 4), np.uint8)).shape == (0, 2, 4)


def product_peak(a, b):
    # peak traced memory of one product, net of the output it returns
    tracemalloc.start()
    try:
        out = mat_mul(a, b)
        return tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()


def test_mat_mul_temporaries_flat_in_batch_and_columns():
    # a gather block is sized by the index budget alone: four times the
    # batch (batch-major blocks) or the columns (column blocks) must not
    # raise the peak beyond the output itself
    rng = np.random.default_rng(29)
    a = rng.integers(0, 256, (16384, 3, 40), dtype=np.uint8)
    b = rng.integers(0, 256, (16384, 40, 4), dtype=np.uint8)
    small, large = product_peak(a[:4096], b[:4096]), product_peak(a, b)
    assert large <= small + 1024, (small, large)
    a = rng.integers(0, 256, (8, 100), dtype=np.uint8)
    b = rng.integers(0, 256, (100, 6000), dtype=np.uint8)
    small, large = product_peak(a, b[:, :1500]), product_peak(a, b)
    assert large <= small + 1024, (small, large)


def test_mat_mul_batch_shape_mismatch():
    for a, b in [((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 3, 5))]:
        with pytest.raises(ValueError):
            mat_mul(np.zeros(a, np.uint8), np.zeros(b, np.uint8))


def test_mat_invert_batch_matches_each_item():
    # items that need row swaps (sparse) next to dense ones, in one batch
    rng = np.random.default_rng(23)
    dense = rng.integers(0, 256, (40, 6, 6), dtype=np.uint8)
    sparse = rng.integers(0, 4, (40, 6, 6), dtype=np.uint8) * (rng.random((40, 6, 6)) < 0.4)
    batch = []
    for m in np.concatenate([dense, sparse]):
        try:
            mat_invert(m)
        except SingularMatrixError:
            continue
        batch.append(m)
    batch = np.stack(batch)
    assert len(batch) > 40
    inverses = mat_invert(batch)
    for m, inv in zip(batch, inverses):
        assert np.array_equal(inv, mat_invert(m))
        assert np.array_equal(mat_mul(m, inv), identity(6))


def test_mat_invert_batch_names_a_singular_item():
    batch = np.stack([identity(3), np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], np.uint8)])
    with pytest.raises(SingularMatrixError, match="batch item 1"):
        mat_invert(batch)
    with pytest.raises(ValueError):
        mat_invert(np.zeros((2, 2, 3), np.uint8))


def test_mat_invert_identity_heavy_submatrix():
    # a k-row submatrix of a systematic generator, mostly identity rows with
    # zeros on the diagonal where a source row is missing: the pivot search
    # runs, and the inverse still multiplies back to the identity
    from fecpart.codec import CodeSpec, build_generator

    gen = build_generator(CodeSpec(60, 40))
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = gen.matrix[np.sort(rng.choice(60, 40, replace=False))]
        inv = mat_invert(m)
        assert np.array_equal(mat_mul(m, inv), identity(40))
        assert np.array_equal(mat_mul(inv, m), identity(40))
