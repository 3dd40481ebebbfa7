"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for a moment with few Monte-Carlo trials, untraced and
traced, and checks that each metric BENCHMARK.json names is produced with a
finite value and that no operation failed.  Then injects three faults into the
benchmark's own call table (never into the package): a wrong recovered
payload, a wrong PLR and a non-minimal n.  Each must be counted as failed.
Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, Sizes  # noqa: E402

TOY = Sizes(mc_trials=500, setups=2)
SECONDS = 1.0
SEED = 7


def corrupt_payload(api):
    decode = api.decode

    def wrong(gen, received):
        out = decode(gen, received)
        return [bytes([out[0][0] ^ 1]) + out[0][1:]] + out[1:]

    api.decode = wrong


def wrong_plr(api):
    simulate = api.monte_carlo_plr

    def wrong(code, ch, trials, seed):
        report = simulate(code, ch, trials, seed)
        return dataclasses.replace(report, plr=report.plr + 0.01)

    api.monte_carlo_plr = wrong


def non_minimal_n(api):
    plan = api.plan

    def wrong(req):
        result = plan(req)
        spec = type(result.spec)(result.spec.n + 1, result.spec.k)
        return dataclasses.replace(result, spec=spec)

    api.plan = wrong


def main():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            metrics, outcomes, _ = run.run_benchmark(workload, SEED, SECONDS, trace, TOY)
            names = {m["name"] for m in declared[kind]}
            where = f"{workload} --trace {trace}"
            if names != set(metrics):
                problems.append(f"{where}: missing {sorted(names - set(metrics))}, "
                                f"undeclared {sorted(set(metrics) - names)}")
            bad = [n for n, (value, _) in metrics.items() if not math.isfinite(value)]
            if bad:
                problems.append(f"{where}: non-finite {bad}")
            if outcomes.failed or not outcomes.attempted:
                problems.append(f"{where}: {outcomes.failed} of {outcomes.attempted} failed: "
                                f"{outcomes.failures}")
            print(f"{where}: {len(metrics)} metrics, {outcomes.attempted} operations")

    for fault in (corrupt_payload, wrong_plr, non_minimal_n):
        _, outcomes, _ = run.run_benchmark("stream-k100", SEED, SECONDS, 0, TOY, patch=fault)
        share = outcomes.failed / outcomes.attempted
        print(f"{fault.__name__}: failed_share {share:.3f} ({outcomes.failed}/{outcomes.attempted})")
        if not 0 < outcomes.failed < outcomes.attempted:
            problems.append(f"{fault.__name__}: expected some but not all operations "
                            f"to fail, got {outcomes.failed}/{outcomes.attempted}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
