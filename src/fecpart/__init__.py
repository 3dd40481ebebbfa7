"""Packet-level MDS erasure coding with code partitioning.

Systematic C(n, k) erasure codes over GF(256) at packet granularity, a
partitioning scheme that halves encode/decode cost by splitting one code
into two independent halves, an analytic residual-loss model for the
binary erasure channel with brute-force and Monte-Carlo validators, a
configuration planner, and a timing harness (`fecpart.bench`).
"""

from .codec import (
    CodeSpec,
    GeneratorMatrix,
    PacketBlock,
    UnrecoverableBlockError,
    build_generator,
    decode,
    encode,
    mac_counter,
)
from .partition import PartitionSpec, decode_partitioned, encode_partitioned, half_generators, split
from .lossmodel import (
    BecChannel,
    LossPmf,
    PlrReport,
    analytic_plr,
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

__version__ = "0.1.0"

# what the demos, README, CLI and benchmark read from the package root, and
# the types those names return; everything else lives in its own module
__all__ = [
    "BecChannel",
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
    "UnrecoverableBlockError",
    "analytic_plr",
    "brute_force_plr",
    "build_generator",
    "decode",
    "decode_partitioned",
    "distribute_excess",
    "encode",
    "encode_partitioned",
    "half_generators",
    "loss_pmf",
    "mac_counter",
    "min_n_for_target",
    "monte_carlo_plr",
    "partitioned_loss_pmf",
    "partitioned_plr",
    "plan",
    "split",
    "__version__",
]
