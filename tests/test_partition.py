"""Code partitioning: the split rule and partitioned encode/decode."""

import dataclasses
import itertools

import numpy as np
import pytest

from fecpart.codec import (
    CodeSpec,
    PacketBlock,
    UnrecoverableBlockError,
    build_generator,
    encode,
    mac_counter,
)
from fecpart.partition import (
    PartitionSpec,
    decode_partitioned,
    encode_partitioned,
    half_generators,
    split,
    split_shape,
)


def source_block(ps, rng, size=32):
    payloads = [rng.integers(0, 256, size, dtype=np.uint8).tobytes()
                for _ in range(ps.parent.k)]
    return PacketBlock.source(ps.parent, payloads), payloads


def test_split_even():
    ps = split(CodeSpec(48, 40))
    assert (ps.first.n, ps.first.k) == (24, 20)
    assert (ps.second.n, ps.second.k) == (24, 20)
    assert ps.excess == 0


def test_split_odd_k_and_p():
    # k=41 -> (21, 20); p=15 -> (8, 7)
    ps = split(CodeSpec(56, 41))
    assert (ps.first.n, ps.first.k) == (29, 21)
    assert (ps.second.n, ps.second.k) == (27, 20)


def test_split_excess_alternates_starting_first():
    ps = split(CodeSpec(48, 40), excess=1)
    assert (ps.first.k, ps.first.p) == (20, 5)
    assert (ps.second.k, ps.second.p) == (20, 4)
    ps = split(CodeSpec(48, 40), excess=2)
    assert (ps.first.p, ps.second.p) == (5, 5)
    ps = split(CodeSpec(48, 40), excess=3)
    assert (ps.first.p, ps.second.p) == (6, 5)


def test_split_conserves_k_and_parity():
    for n, k in ((12, 5), (13, 9), (20, 11), (48, 40), (100, 83)):
        for excess in range(4):
            ps = split(CodeSpec(n, k), excess)
            assert ps.first.k + ps.second.k == k
            assert ps.first.k == (k + 1) // 2
            assert ps.first.p + ps.second.p == (n - k) + excess
            assert ps.excess == excess


def test_split_shape_matches_split():
    parent = CodeSpec(21, 14)
    k1, p1, k2, p2 = split_shape(parent, 3)
    ps = split(parent, 3)
    assert (ps.first.k, ps.first.p, ps.second.k, ps.second.p) == (k1, p1, k2, p2)


def test_split_rejects_zero_parity_half():
    with pytest.raises(ValueError):
        split(CodeSpec(5, 4))  # p=1: second half would get no parity
    with pytest.raises(ValueError):
        split(CodeSpec(5, 4), excess=1)  # excess goes to the first half
    ps = split(CodeSpec(5, 4), excess=2)
    assert (ps.first.p, ps.second.p) == (2, 1)
    with pytest.raises(ValueError):
        split(CodeSpec(3, 1))  # k=1 cannot split


def test_split_rejects_negative_excess():
    with pytest.raises(ValueError):
        split(CodeSpec(48, 40), excess=-1)


def test_partition_spec_validates_shape():
    parent = CodeSpec(48, 40)
    with pytest.raises(ValueError):
        PartitionSpec(parent, CodeSpec(25, 21), CodeSpec(23, 19))
    with pytest.raises(ValueError, match="halves carry less parity"):
        PartitionSpec(parent, CodeSpec(23, 20), CodeSpec(24, 20))


def test_partition_spec_derives_excess_from_its_halves():
    fields = tuple(f.name for f in dataclasses.fields(PartitionSpec))
    assert fields == ("parent", "first", "second")
    assert isinstance(vars(PartitionSpec)["excess"], property)
    parent = CodeSpec(48, 40)
    assert PartitionSpec(parent, CodeSpec(24, 20), CodeSpec(24, 20)).excess == 0
    assert PartitionSpec(parent, CodeSpec(26, 20), CodeSpec(25, 20)).excess == 3


def test_encode_partitioned_mac_count():
    ps = split(CodeSpec(48, 40))
    block, _ = source_block(ps, np.random.default_rng(0), size=8)
    gens = half_generators(ps)
    mac_counter.reset()
    encode_partitioned(ps, block, gens)
    k, p = 40, 8
    assert mac_counter.per_byte == ps.first.k * ps.first.p + ps.second.k * ps.second.p
    assert mac_counter.per_byte == k * p // 2


def test_encode_partitioned_mac_bound_with_excess():
    # ceil(k*p/2): the ceiling/floor split costs half an extra MAC when
    # both k and p are odd (e.g. k=9, p=5 gives 5*3 + 4*2 = 23 = ceil(45/2))
    for n, k in ((14, 9), (48, 40), (27, 21)):
        parent = CodeSpec(n, k)
        k_max = (k + 1) // 2
        for excess in range(4):
            ps = split(parent, excess)
            block, _ = source_block(ps, np.random.default_rng(1), size=4)
            mac_counter.reset()
            encode_partitioned(ps, block, half_generators(ps))
            bound = (k * parent.p + 1) // 2 + excess * k_max
            assert mac_counter.per_byte <= bound


def test_partitioned_roundtrip_no_erasures():
    ps = split(CodeSpec(14, 9), excess=1)
    block, payloads = source_block(ps, np.random.default_rng(2))
    gens = half_generators(ps)
    coded = encode_partitioned(ps, block, gens)
    assert decode_partitioned(ps, coded, gens) == payloads


def test_partitioned_roundtrip_all_recoverable_patterns():
    ps = split(CodeSpec(10, 6))  # halves (5, 3) and (5, 3)
    block, payloads = source_block(ps, np.random.default_rng(3), size=8)
    gens = half_generators(ps)
    coded = encode_partitioned(ps, block, gens)
    n1, n2 = ps.first.n, ps.second.n
    for c1 in range(ps.first.p + 1):
        for c2 in range(ps.second.p + 1):
            for e1 in itertools.combinations(range(n1), c1):
                for e2 in itertools.combinations(range(n2), c2):
                    rx = (coded[0].erase(e1), coded[1].erase(e2))
                    assert decode_partitioned(ps, rx, gens) == payloads


def test_half_failure_despite_parent_level_redundancy():
    # the structural price of partitioning: halves cannot pool parity
    ps = split(CodeSpec(48, 40))  # halves carry 4 parity each, parent had 8
    block, _ = source_block(ps, np.random.default_rng(4), size=8)
    gens = half_generators(ps)
    coded = encode_partitioned(ps, block, gens)
    rx = (coded[0].erase(range(5)), coded[1])  # 5 losses <= parent p, > first.p
    with pytest.raises(UnrecoverableBlockError) as exc_info:
        decode_partitioned(ps, rx, gens)
    assert exc_info.value.lost_source_indices == (0, 1, 2, 3, 4)


def test_second_half_losses_reported_in_parent_positions():
    ps = split(CodeSpec(12, 8))  # halves (6, 4): 2 parity each
    block, _ = source_block(ps, np.random.default_rng(5), size=8)
    gens = half_generators(ps)
    coded = encode_partitioned(ps, block, gens)
    rx = (coded[0], coded[1].erase([0, 1, 2]))
    with pytest.raises(UnrecoverableBlockError) as exc_info:
        decode_partitioned(ps, rx, gens)
    assert exc_info.value.lost_source_indices == (4, 5, 6)


def test_both_halves_failing_aggregate_losses():
    ps = split(CodeSpec(12, 8))
    block, _ = source_block(ps, np.random.default_rng(6), size=8)
    gens = half_generators(ps)
    coded = encode_partitioned(ps, block, gens)
    rx = (coded[0].erase([1, 2, 3]), coded[1].erase([0, 2, 3]))
    with pytest.raises(UnrecoverableBlockError) as exc_info:
        decode_partitioned(ps, rx, gens)
    assert exc_info.value.lost_source_indices == (1, 2, 3, 4, 6, 7)


def test_partitioned_decode_matches_unpartitioned_source():
    parent = CodeSpec(16, 10)
    ps = split(parent, excess=1)
    rng = np.random.default_rng(7)
    block, payloads = source_block(ps, rng, size=16)
    gens = half_generators(ps)
    coded = encode_partitioned(ps, block, gens)
    for _ in range(100):
        c1 = int(rng.integers(0, ps.first.p + 1))
        c2 = int(rng.integers(0, ps.second.p + 1))
        e1 = rng.choice(ps.first.n, size=c1, replace=False).tolist()
        e2 = rng.choice(ps.second.n, size=c2, replace=False).tolist()
        rx = (coded[0].erase(e1), coded[1].erase(e2))
        assert decode_partitioned(ps, rx, gens) == payloads


def test_encode_partitioned_first_half_gets_leading_packets():
    ps = split(CodeSpec(14, 9))
    block, payloads = source_block(ps, np.random.default_rng(8), size=8)
    coded = encode_partitioned(ps, block, half_generators(ps))
    assert list(coded[0].packets[: ps.first.k]) == payloads[: ps.first.k]
    assert list(coded[1].packets[: ps.second.k]) == payloads[ps.first.k:]


def test_encode_partitioned_needs_a_full_source_block():
    # the parent's coded block, or a source block with an erased slot, is
    # refused before either half is encoded
    ps = split(CodeSpec(12, 8))
    block, _ = source_block(ps, np.random.default_rng(10), size=8)
    coded = encode(build_generator(ps.parent), block)
    for bad in (coded, block.erase([5])):
        with pytest.raises(ValueError, match="need exactly 8 present source packets"):
            encode_partitioned(ps, bad, half_generators(ps))


def test_partitioned_calls_need_one_entry_per_half():
    # a short `received` or `gens` must raise, never decode one half alone
    ps = split(CodeSpec(12, 8))
    block, _ = source_block(ps, np.random.default_rng(9), size=8)
    gens = half_generators(ps)
    coded = encode_partitioned(ps, block, gens)
    with pytest.raises(ValueError):
        decode_partitioned(ps, coded[:1], gens)
    with pytest.raises(ValueError):
        decode_partitioned(ps, coded + coded[:1], gens)
    with pytest.raises(ValueError):
        decode_partitioned(ps, coded, gens[:1])
    with pytest.raises(ValueError):
        encode_partitioned(ps, block, gens[:1])
    # a source block of another code with the same k is not the parent's
    other = PacketBlock.source(CodeSpec(9, 8), [bytes(8)] * 8)
    with pytest.raises(ValueError):
        encode_partitioned(ps, other, gens)


def test_partitioned_coder_requires_the_generators():
    # as encode takes its generator, the split coder takes one per half:
    # it never builds them behind the caller's back
    ps = split(CodeSpec(12, 8))
    block, _ = source_block(ps, np.random.default_rng(11), size=8)
    coded = encode_partitioned(ps, block, half_generators(ps))
    with pytest.raises(TypeError):
        encode_partitioned(ps, block)
    with pytest.raises(TypeError):
        decode_partitioned(ps, coded)
    # the generators of any code's parts: a plain code is its own one part
    assert [gen.spec for gen in half_generators(ps.parent)] == [ps.parent]
