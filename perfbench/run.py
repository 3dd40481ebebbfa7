"""End-to-end benchmark of fecpart: one workload, one process, one thread.

    python3 perfbench/run.py --workload stream-k100 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced run, and the spans are written under `perfbench/out/`.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one thread: keep numpy's BLAS pool from starting workers (set before numpy loads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    "plain.encode_MBps", "part.encode_MBps", "plain.decode_MBps", "part.decode_MBps",
    "plain.block_ms_p50", "plain.block_ms_p95", "part.block_ms_p50", "part.block_ms_p95",
    "mc.trials_per_s", "plan.answers_per_s", "plan.ms_p50", "plan.ms_p95",
)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources: names the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fecpart").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_benchmark(workload, seed, seconds, trace, sizes=None, patch=None):
    """Measure one workload; returns (metrics, outcomes, notes).

    `metrics` maps a name to (value, unit).  `patch(api)` may replace calls in
    the benchmark's call table after set-up (the self-test injects faults).
    """
    from layers import per_layer
    from tracing import NullTracer, Tracer, install
    from workloads import Outcomes, Sizes, end_to_end, measure, shares, timed_setups, warm_up

    sizes = sizes or Sizes()
    (F, api, phases), setup_s = timed_setups(seed, sizes)
    if patch is not None:
        patch(api)
    warm_up(phases)
    share = shares(workload)
    notes = {"samples": {}}
    if not trace:
        measure(phases, share, seconds, NullTracer())
        e2e = end_to_end(phases)
        metrics = {name: e2e[name][:2] for name in END_TO_END}
        notes["samples"] = {name: e2e[name][2] for name in END_TO_END}
        # the p99s: printed, but too few samples lie beyond them to gate on
        notes["ungated"] = {name: value for name, value in e2e.items() if name not in END_TO_END}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_MB"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        # untraced then traced halves: their ratio is the tracing overhead
        measure(phases, share, seconds / 2, NullTracer())
        untraced = end_to_end(phases)
        for phase in phases.values():
            phase.reset()
        tracer = Tracer()
        install(tracer, F, api, phases["simulate"].observers(tracer))
        try:
            measure(phases, share, seconds / 2, tracer)
        finally:
            tracer.restore()
        traced = end_to_end(phases)
        metrics = per_layer(tracer, phases)
        for name in END_TO_END:
            metrics[f"trace.overhead.{name}"] = (traced[name][0] / untraced[name][0], "ratio")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"trace-{workload}-seed{seed}.tsv"
        tracer.write(spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))
    phases["simulate"].check_pooled()
    outcomes = Outcomes()
    for phase in phases.values():
        outcomes.add(phase.outcomes)
    return metrics, outcomes, notes


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fecpart" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'fecpart'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    metrics, outcomes, notes = run_benchmark(args.workload, args.seed, args.seconds, args.trace)

    print("env " + json.dumps(environment(args.seed)))
    for name, (value, unit) in metrics.items():
        samples = notes["samples"].get(name)
        print(f"{name} = {value:.6g} {unit}" + (f" (n={samples})" if samples else ""))
    for name, (value, unit, samples) in notes.get("ungated", {}).items():
        print(f"{name} = {value:.6g} {unit} (n={samples}; not gated, not in the JSON)")
    print(
        f"attempted={outcomes.attempted} failed={outcomes.failed} "
        f"failed_share={outcomes.failed / max(outcomes.attempted, 1):.6g} "
        f"unrecoverable_blocks={outcomes.unrecoverable} capacity_answers={outcomes.capacity}"
    )
    if "spans" in notes:
        print(f"spans written to {notes['spans']}")
    for failure in outcomes.failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
