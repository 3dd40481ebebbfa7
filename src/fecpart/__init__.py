"""Packet-level MDS erasure coding with code partitioning.

Systematic C(n, k) erasure codes over GF(256) at packet granularity, a
partitioning scheme that halves encode/decode cost by splitting one code
into two independent halves, an analytic residual-loss model for the
binary erasure channel with brute-force and Monte-Carlo validators, a
configuration planner, and a timing harness.
"""

from .gf256 import SingularMatrixError, gf_div, gf_inv, gf_mul, gf_pow, mat_invert, mat_mul
from .codec import (
    CodeSpec,
    GeneratorMatrix,
    PacketBlock,
    UnrecoverableBlockError,
    build_generator,
    decode,
    decoding_matrix,
    encode,
    mac_counter,
)
from .partition import (
    PartitionSpec,
    decode_partitioned,
    encode_partitioned,
    half_generators,
    split,
    split_shape,
)
from .lossmodel import (
    BecChannel,
    LossPmf,
    PlrReport,
    analytic_plr,
    binomial_pmf,
    brute_force_plr,
    loss_pmf,
    monte_carlo_plr,
    partitioned_loss_pmf,
    partitioned_plr,
)
from .planner import (
    CapacityError,
    PlanRequest,
    PlanResult,
    PartitionPlan,
    distribute_excess,
    min_n_for_target,
    plan,
)
from .bench import BenchConfig, BenchPoint, bench_decode, bench_encode, bench_invert, run_bench, to_csv

__version__ = "0.1.0"

__all__ = [
    "BecChannel",
    "BenchConfig",
    "BenchPoint",
    "CapacityError",
    "CodeSpec",
    "GeneratorMatrix",
    "LossPmf",
    "PacketBlock",
    "PartitionPlan",
    "PartitionSpec",
    "PlanRequest",
    "PlanResult",
    "PlrReport",
    "SingularMatrixError",
    "UnrecoverableBlockError",
    "analytic_plr",
    "bench_decode",
    "bench_encode",
    "bench_invert",
    "binomial_pmf",
    "brute_force_plr",
    "build_generator",
    "decode",
    "decode_partitioned",
    "decoding_matrix",
    "distribute_excess",
    "encode",
    "encode_partitioned",
    "gf_div",
    "gf_inv",
    "gf_mul",
    "gf_pow",
    "half_generators",
    "loss_pmf",
    "mac_counter",
    "mat_invert",
    "mat_mul",
    "min_n_for_target",
    "monte_carlo_plr",
    "partitioned_loss_pmf",
    "partitioned_plr",
    "plan",
    "run_bench",
    "split",
    "split_shape",
    "to_csv",
    "__version__",
]
