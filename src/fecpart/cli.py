"""Command-line front end: planning, analysis, simulation, benchmarks.

Machine-readable output goes to stdout (JSON for plan/analyze/simulate,
CSV for reproduce/bench); anything meant for humans goes to stderr.  Exit
codes: 0 success, 1 domain error (e.g. unreachable target, inconsistent
dimensions), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import MODES, PHASES, BenchConfig, _check_codes, run_bench, to_csv
from .codec import CodeSpec, UnrecoverableBlockError
from .lossmodel import BecChannel, analytic_plr, monte_carlo_plr
from .partition import PartitionSpec
from .planner import PlanRequest, min_n_for_target, distribute_excess, plan

TABLE1_K_VALUES = (40, 80)
TABLE1_PE_VALUES = (0.01, 0.03, 0.05, 0.07, 0.09, 0.1)
TABLE1_PLR_TARGET = 1e-5

FIG2_PE_VALUES = (0.01, 0.05, 0.1)
FIG2_K_RANGE = range(10, 111)


def _sig6(x: float) -> float:
    # loss rates are printed with 6 significant digits
    return float(f"{x:.6g}")


def _emit_json(payload: dict) -> int:
    print(json.dumps(payload))
    return 0


def cmd_plan(args) -> int:
    req = PlanRequest(
        k=args.k,
        ch=BecChannel(args.pe),
        plr_target=args.plr_target,
        delta=args.delta,
        partition=args.partition,
    )
    result = plan(req)
    payload = {
        "n": result.spec.n,
        "k": result.spec.k,
        "p": result.spec.p,
        "plr": _sig6(result.plr),
        "ri": _sig6(result.ri),
        "witness_plr": None if result.witness_plr is None else _sig6(result.witness_plr),
        "n_scanned": result.n_scanned,
    }
    if result.partition is not None:
        ps = result.partition.ps
        parts = {}
        for j, part in enumerate(ps.parts, start=1):
            parts.update({f"n{j}": part.n, f"k{j}": part.k, f"p{j}": part.p})
        plr_part = _sig6(result.partition.plr)
        payload["partition"] = {**parts, "excess": ps.excess, "plr_part": plr_part}
    return _emit_json(payload)


def _code_from_args(args):
    """The code the flags describe: C(n, k), or its split with --partition."""
    if not args.partition:
        return CodeSpec(args.n, args.k)
    dims = (args.n1, args.k1, args.n2, args.k2)
    if any(d is None for d in dims):
        raise UsageError("--partition requires --n1 --k1 --n2 --k2")
    return PartitionSpec(
        parent=CodeSpec(args.n, args.k),
        first=CodeSpec(args.n1, args.k1),
        second=CodeSpec(args.n2, args.k2),
    )


def cmd_analyze(args) -> int:
    ch = BecChannel(args.pe)
    code = _code_from_args(args)
    payload = {"plr": _sig6(analytic_plr(code, ch).plr), "method": "analytic"}
    if args.partition:
        for j, part in enumerate(code.parts, start=1):
            payload[f"plr{j}"] = _sig6(analytic_plr(part, ch).plr)
    return _emit_json(payload)


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    ch = BecChannel(args.pe)
    report = monte_carlo_plr(_code_from_args(args), ch, trials=args.trials, seed=args.seed)
    return _emit_json(
        {
            "plr": _sig6(report.plr),
            "method": "monte_carlo",
            "trials": report.trials,
            "ci95": _sig6(report.half_width),
            "patterns_verified": report.patterns_verified,
            "patterns_total": report.patterns_total,
        }
    )


def cmd_reproduce(args) -> int:
    # every row is computed before any is printed: a cell that fails leaves
    # stdout empty, not a truncated CSV
    if args.what == "table1":
        lines = ["k," + ",".join(f"{pe:g}" for pe in TABLE1_PE_VALUES)]
        for k in TABLE1_K_VALUES:
            ns = [min_n_for_target(k, BecChannel(pe), TABLE1_PLR_TARGET).n
                  for pe in TABLE1_PE_VALUES]
            lines.append(f"{k}," + ",".join(str(n) for n in ns))
    else:
        lines = ["pe,k,excess"]
        for pe in FIG2_PE_VALUES:
            ch = BecChannel(pe)
            for k in FIG2_K_RANGE:
                ps = distribute_excess(CodeSpec(k + args.parity, k), ch, args.delta)
                lines.append(f"{pe:g},{k},{ps.excess}")
    print("\n".join(lines))
    return 0


def _parse_k_range(text: str):
    try:
        lo, hi, step = (int(part) for part in text.split(":"))
    except ValueError:
        raise UsageError(f"--k-range must be lo:hi:step, got {text!r}")
    if lo < 1 or hi < lo or step < 1:
        raise UsageError(f"--k-range needs 1 <= lo <= hi and step >= 1, got {text!r}")
    return tuple(range(lo, hi + 1, step))


def cmd_bench(args) -> int:
    k_values = _parse_k_range(args.k_range)
    cfg = BenchConfig(
        k_values=k_values,
        parity=args.parity,
        packet_size=args.packet_size,
        iterations=args.iterations,
    )
    modes = MODES if args.mode == "both" else (args.mode,)
    phases = PHASES if args.phase == "all" else (args.phase,)
    _check_codes(cfg, modes)  # before the banner: a sweep that cannot run prints none
    print(f"benchmarking k={list(k_values)} modes={modes} phases={phases}",
          file=sys.stderr)
    points = run_bench(cfg, modes=modes, phases=phases)
    sys.stdout.write(to_csv(points))
    return 0


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot catch."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fecpart",
        description="MDS erasure-code planning, loss analysis and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="find the minimal code for a loss target")
    p_plan.add_argument("--k", type=int, required=True)
    p_plan.add_argument("--pe", type=float, required=True)
    p_plan.add_argument("--plr-target", type=float, default=1e-5)
    p_plan.add_argument("--partition", action="store_true")
    p_plan.add_argument("--delta", type=float, default=0.001)
    p_plan.set_defaults(func=cmd_plan)

    # the flags that describe one code, plain or split
    code_flags = argparse.ArgumentParser(add_help=False)
    code_flags.add_argument("--n", type=int, required=True)
    code_flags.add_argument("--k", type=int, required=True)
    code_flags.add_argument("--pe", type=float, required=True)
    code_flags.add_argument("--partition", action="store_true")
    for flag in ("--n1", "--k1", "--n2", "--k2"):
        code_flags.add_argument(flag, type=int)

    p_an = sub.add_parser("analyze", parents=[code_flags],
                          help="analytic residual loss rate of a code")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", parents=[code_flags],
                           help="Monte-Carlo loss rate via the codec")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="regenerate the reference datasets")
    p_rep.add_argument("what", choices=("table1", "fig2"))
    p_rep.add_argument("--delta", type=float, default=0.001)
    p_rep.add_argument("--parity", type=int, default=5)
    p_rep.set_defaults(func=cmd_reproduce)

    p_bench = sub.add_parser("bench", help="encode/decode timing sweep (CSV)")
    p_bench.add_argument("--k-range", default="10:120:10", metavar="LO:HI:STEP")
    p_bench.add_argument("--parity", type=int, default=8)
    p_bench.add_argument("--packet-size", type=int, default=1500)
    p_bench.add_argument("--iterations", type=int, default=100)
    p_bench.add_argument("--mode", choices=(*MODES, "both"),
                         default="both")
    p_bench.add_argument("--phase", choices=(*PHASES, "all"),
                         default="all")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, UnrecoverableBlockError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
