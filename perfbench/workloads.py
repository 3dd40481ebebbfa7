"""The benchmark's three request loops, their inputs and their checks.

Every run drives all three loops through fecpart's public API from one
thread, each closed-loop with one client:

- stream: blocks of k=100 random 1500 B packets, coded as plain C(108,100)
  and as its zero-excess split 2 x C(54,50), sent through a seeded BEC with
  p_e = 0.02, decoded and compared byte for byte;
- simulate: `monte_carlo_plr` over a fixed code set and trial count;
- plan: `plan(PlanRequest(...))` over seeded requests.

The loop the workload named on the command line leads (stream or plan) gets
half of the measured time and the other two loops a quarter each, so that
every end-to-end metric is measured in every run.  Each loop draws its
inputs from its own child of the seed, so the i-th block or request of a
seed is the same whatever the mix.
Correctness checks run outside the timed regions.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter as clock
from types import SimpleNamespace

import numpy as np

from tracing import NullTracer

K, PARITY, PACKET_SIZE, STREAM_P_E = 100, 8, 1500, 0.02
# (label, n, k, split it?, p_e): C(44,40) is the CLI point, the split
# C(48,40) a partitioned code, and C(108,100) the n > 64 path.
MC_CODES = (
    ("C44-40", 44, 40, False, 0.1),
    ("split-C48-40", 48, 40, True, 0.05),
    ("C108-100", 108, 100, False, 0.02),
)
PLAN_TARGETS = (1e-3, 1e-4, 1e-5, 1e-6)
PLAN_K = (10, 120)
PLAN_P_E = (0.005, 0.1)
PLAN_DELTA = 1e-3
# the (k, p_e) of a cell's i-th request is point i of the additive R2
# sequence (steps of 1/g and 1/g^2, g the plastic number) from a seeded
# uniform start: each point is uniform over the square, and every prefix
# covers it evenly, so the mix of cheap and costly requests in a run, and the
# latency percentiles with it, move little from seed to seed
PLAN_R2_STEP = 1 / 1.324717957244746 ** np.arange(1, 3)
# requests per plan unit: small units interleave with the other loops, so a
# slow spell of the machine touches every loop alike
PLAN_CHUNK = 16
STREAM_WINDOW = 25  # blocks per throughput window
# each block runs twice and keeps the faster time of each step, which drops
# most one-off stalls of a shared machine from the tail
STREAM_REPEATS = 2
# workload -> the loop that gets half the time; the simulate loop has no
# workload of its own and runs a quarter of every run
WORKLOADS = {"stream-k100": "stream", "plan": "plan"}


@dataclass(frozen=True)
class Sizes:
    mc_trials: int = 1000  # trials per monte_carlo_plr call
    setups: int = 15  # set-ups per run; setup_s is their median


@dataclass
class Outcomes:
    attempted: int = 0
    failed: int = 0
    unrecoverable: int = 0  # correctly reported lost blocks (not failures)
    capacity: int = 0  # CapacityError answers (not failures)
    failures: list = field(default_factory=list)

    def fail(self, what, count=1):
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(what)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unrecoverable += other.unrecoverable
        self.capacity += other.capacity
        self.failures += other.failures


def load_fecpart():
    """Import fecpart afresh, so that each set-up pays the package's import."""
    for name in [m for m in sys.modules if m == "fecpart" or m.startswith("fecpart.")]:
        del sys.modules[name]
    return importlib.import_module("fecpart")


def make_api(F):
    """The calls the loops make into the package, replaceable one by one."""
    return SimpleNamespace(
        source=F.PacketBlock.source,
        erase=F.PacketBlock.erase,
        encode=F.encode,
        decode=F.decode,
        encode_partitioned=F.encode_partitioned,
        decode_partitioned=F.decode_partitioned,
        monte_carlo_plr=F.monte_carlo_plr,
        plan=F.plan,
    )


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean of
    all order statistics.  A tail percentile then rests on several of the
    slowest samples rather than one, and moves less between runs."""
    if not values:
        return math.nan
    x, n, sub = np.sort(values), len(values), 16
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    # Beta(a, b) mass of each ((i-1)/n, i/n], by the midpoint rule
    u = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(weights @ x / weights.sum())


def windowed_rate(amounts, seconds, window):
    """Median over consecutive windows of `window` operations of amount/time.

    A slow spell of the machine then moves only the windows it overlaps.
    """
    n = max(len(amounts) // window, 1)
    edges = [round(i * len(amounts) / n) for i in range(n + 1)]
    return statistics.median(
        ratio(sum(amounts[a:b]), sum(seconds[a:b])) for a, b in zip(edges, edges[1:])
    ) if amounts else math.nan


@dataclass
class CodingStats:
    encode_s: list = field(default_factory=list)  # per block
    decode_s: list = field(default_factory=list)
    delivered: list = field(default_factory=list)  # source bytes recovered
    block_ms: list = field(default_factory=list)
    encode_macs: int = 0
    decode_macs: int = 0
    decodes: int = 0  # codec decode calls (two per partitioned block)
    fastpath: int = 0  # of which had no source erasure

    @property
    def blocks(self):
        return len(self.block_ms)


class Stream:
    min_units = 1

    def __init__(self, F, api, seed):
        self.F, self.api = F, api
        self.spec = F.CodeSpec(K + PARITY, K)
        self.ps = F.split(self.spec)
        t0 = clock()
        self.gen = F.build_generator(self.spec)
        self.gens = F.half_generators(self.ps)
        self.build_generator_s = clock() - t0
        self.rng = np.random.default_rng(seed)
        self.outcomes = Outcomes()
        self.reset()

    def reset(self):
        self.stats = {"plain": CodingStats(), "part": CodingStats()}

    def unit(self, tracer):
        api, ps, n1 = self.api, self.ps, self.ps.first.n
        rows = self.rng.integers(0, 256, (K, PACKET_SIZE), dtype=np.uint8)
        payloads = [row.tobytes() for row in rows]
        erased = np.flatnonzero(self.rng.random(K + PARITY) < STREAM_P_E).tolist()
        halves = ([i for i in erased if i < n1], [i - n1 for i in erased if i >= n1])
        self._block(
            "plain", payloads, tracer, [(self.spec, erased, 0)],
            encode=lambda source: api.encode(self.gen, source),
            erase=lambda coded: api.erase(coded, erased),
            decode=lambda received: api.decode(self.gen, received),
        )
        self._block(
            "part", payloads, tracer, [(ps.first, halves[0], 0), (ps.second, halves[1], ps.first.k)],
            encode=lambda source: api.encode_partitioned(ps, source, self.gens),
            erase=lambda coded: (api.erase(coded[0], halves[0]), api.erase(coded[1], halves[1])),
            decode=lambda received: api.decode_partitioned(ps, received, self.gens),
        )

    def _block(self, coding, payloads, tracer, codes, encode, erase, decode):
        """Code, erase and decode one block STREAM_REPEATS times, keeping each
        step's fastest time.  `codes` lists (code, erased slots, offset of its
        first source in the block) for each code the block is sent as."""
        expect_lost, fastpaths = [], []
        for spec, slots, offset in codes:
            sources = [offset + i for i in slots if i < spec.k]
            fastpaths.append(not sources)
            if len(slots) > spec.p:  # more erasures than parity: the code fails
                expect_lost += sources
        expect = expect_lost or None
        self.outcomes.attempted += 1
        best = None
        for _ in range(STREAM_REPEATS):
            tracer.begin(coding)
            try:
                times, out, lost, macs = self._once(payloads, encode, erase, decode)
            except Exception as exc:
                with tracer.paused():
                    self.outcomes.fail(f"{coding} block: {exc!r}")
                return
            with tracer.paused():
                if lost != expect or (lost is None and out != payloads):
                    what = ("recovered payload differs" if lost == expect
                            else f"expected lost {expect}, got {lost}")
                    self.outcomes.fail(f"{coding} block: {what}")
                    return
            best = times if best is None else [min(a, b) for a, b in zip(best, times)]
        st = self.stats[coding]
        encode_s, decode_s, block_s = best
        st.encode_s.append(encode_s)
        st.decode_s.append(decode_s)
        st.block_ms.append(block_s * 1e3)
        st.delivered.append(0 if lost else K * PACKET_SIZE)
        st.encode_macs += macs[0]
        st.decode_macs += macs[1]
        st.decodes += len(fastpaths)
        st.fastpath += sum(fastpaths)
        if lost:
            self.outcomes.unrecoverable += 1

    def _once(self, payloads, encode, erase, decode):
        """(encode s, decode s, block s), output, lost sources, (encode, decode) MACs."""
        F, mac = self.F, self.F.codec.mac_counter
        mac.reset()
        t0 = clock()
        source = self.api.source(self.spec, payloads)
        t1 = clock()
        coded = encode(source)
        t2 = clock()
        encode_macs = mac.per_byte
        received = erase(coded)
        t3 = clock()
        try:
            out, lost = decode(received), None
        except F.UnrecoverableBlockError as err:
            out, lost = None, list(err.lost_source_indices)
        t4 = clock()
        return (t2 - t1, t4 - t3, t4 - t0), out, lost, (encode_macs, mac.per_byte - encode_macs)

    def metrics(self):
        out = {}
        for coding in ("plain", "part"):
            st = self.stats[coding]
            blocks = st.blocks
            source = [K * PACKET_SIZE / 1e6] * blocks
            out[f"{coding}.encode_MBps"] = (
                windowed_rate(source, st.encode_s, STREAM_WINDOW), "MB/s", blocks)
            out[f"{coding}.decode_MBps"] = (
                windowed_rate([b / 1e6 for b in st.delivered], st.decode_s, STREAM_WINDOW),
                "MB/s", blocks)
            out[f"{coding}.block_ms_p50"] = (percentile(st.block_ms, 50), "ms", blocks)
            out[f"{coding}.block_ms_p95"] = (percentile(st.block_ms, 95), "ms", blocks)
            out[f"{coding}.block_ms_p99"] = (percentile(st.block_ms, 99), "ms", blocks)
        return out


class NullStats:
    """Loss-rate mean and spread the analytic model predicts for one code."""

    def __init__(self, probabilities, k):
        fractions = np.arange(len(probabilities)) / k
        self.mean = float(probabilities @ fractions)
        self.std = math.sqrt(max(float(probabilities @ fractions**2) - self.mean**2, 0.0))

    def half_width(self, trials):
        return 1.96 * self.std / math.sqrt(trials)


class Simulate:
    min_units = len(MC_CODES)  # every code called at least once

    def __init__(self, F, api, seed, trials):
        self.F, self.api, self.trials = F, api, trials
        self.codes = []
        for label, n, k, partitioned, p_e in MC_CODES:
            ch = F.BecChannel(p_e)
            if partitioned:
                code = F.split(F.CodeSpec(n, k))
                null = NullStats(F.partitioned_loss_pmf(code, ch).probabilities, k)
            else:
                code = F.CodeSpec(n, k)
                null = NullStats(F.loss_pmf(code, ch).probabilities, k)
            self.codes.append((label, code, ch, null))
        self.rng = np.random.default_rng(seed)
        self.outcomes = Outcomes()
        # per code: calls and the sum of their PLRs, over the whole run
        self.pooled = {label: [0, 0.0] for label, *_ in self.codes}
        self.reset()

    def reset(self):
        self.call_s = {label: [] for label, *_ in self.codes}
        # per code: patterns the wrapped decoder verified, highest erased slot
        self.verified = {label: [0, -1] for label, *_ in self.codes}
        self.next_code = 0

    def observers(self, tracer):
        """Callbacks for the traced decoder calls inside `monte_carlo_plr`:
        each call verifies one erasure pattern; note its highest erased slot."""

        def note(request, highest):
            entry = self.verified[tracer.tags[request][3:]]  # tag is "mc:<label>"
            entry[0] += 1
            entry[1] = max(entry[1], highest)

        def plain(request, gen, received):
            note(request, _last_erased(received.packets))

        def partitioned(request, ps, received, gens):
            second = _last_erased(received[1].packets)
            note(request, ps.first.n + second if second >= 0 else _last_erased(received[0].packets))

        return {"lossmodel.decode": plain, "lossmodel.decode_partitioned": partitioned}

    def unit(self, tracer):
        """One call, on the codes in turn."""
        label, code, ch, null = self.codes[self.next_code]
        self.next_code = (self.next_code + 1) % len(self.codes)
        seed = int(self.rng.integers(2**63))
        self.outcomes.attempted += 1
        tracer.begin("mc:" + label)
        try:
            t0 = clock()
            report = self.api.monte_carlo_plr(code, ch, self.trials, seed)
            elapsed = clock() - t0
        except Exception as exc:
            with tracer.paused():
                self.outcomes.fail(f"monte_carlo_plr {label}: {exc!r}")
            return
        if report.trials != self.trials or not 0 <= report.plr <= 1:
            self.outcomes.fail(f"monte_carlo_plr {label}: {report.trials} trials, plr {report.plr}")
            return
        self.call_s[label].append(elapsed)
        self.pooled[label][0] += 1
        self.pooled[label][1] += report.plr

    def check_pooled(self):
        """Check each code's PLR, pooled over all its calls of the run.

        The bound is 3 of the 95 % half-widths the analytic model predicts for
        the pooled trial count.  One call's PLR is too coarse to check alone:
        C(108,100) loses a block in about 1 trial of 3000, so most calls see
        no loss and a few see several.  A failed check fails every call that
        went into it.
        """
        for label, code, ch, null in self.codes:
            calls, plr_sum = self.pooled[label]
            if not calls:
                continue
            plr, bound = plr_sum / calls, 3 * null.half_width(calls * self.trials)
            if abs(plr - null.mean) > bound:
                self.outcomes.fail(
                    f"monte_carlo_plr {label}: pooled plr {plr} over {calls} calls "
                    f"vs analytic {null.mean} +- {bound}", count=calls)

    def metrics(self):
        """Trials per second over the code set, from each code's median call."""
        per_pass = sum(statistics.median(t) for t in self.call_s.values() if t)
        calls = sum(map(len, self.call_s.values()))
        rate = ratio(len(self.codes) * self.trials, per_pass) if all(self.call_s.values()) else math.nan
        return {"mc.trials_per_s": (rate, "1/s", calls)}


class Plan:
    min_units = 1

    def __init__(self, F, api, seed):
        self.F, self.api = F, api
        self.rng = np.random.default_rng(seed)
        self.cells = [(target, part) for target in PLAN_TARGETS for part in (False, True)]
        self.starts = self.rng.random((len(self.cells), 2))  # per cell, in (k, p_e)
        self.rounds = 0
        self.pending = self._round()
        self.outcomes = Outcomes()
        self.reset()

    def reset(self):
        self.latency_ms = []

    def _round(self):
        """One request per (target, partition) cell, in a seeded order."""
        F = self.F
        (k_lo, k_hi), (pe_lo, pe_hi) = PLAN_K, PLAN_P_E
        u = (self.starts + self.rounds * PLAN_R2_STEP) % 1.0
        self.rounds += 1
        requests = []
        for (target, part), (uk, up) in zip(self.cells, u):
            k = k_lo + int(uk * (k_hi - k_lo + 1))
            p_e = pe_lo * (pe_hi / pe_lo) ** up
            requests.append(F.PlanRequest(k=k, ch=F.BecChannel(p_e), plr_target=target,
                                          delta=PLAN_DELTA, partition=part))
        return [requests[i] for i in self.rng.permutation(len(requests))]

    def unit(self, tracer):
        """The next PLAN_CHUNK requests."""
        requests = []
        with tracer.paused():
            while len(requests) < PLAN_CHUNK:
                if not self.pending:
                    self.pending = self._round()
                requests.append(self.pending.pop())
        for req in requests:
            elapsed = self.answer(req, tracer)
            if elapsed is not None:
                self.latency_ms.append(elapsed * 1e3)

    def answer(self, req, tracer):
        """Time one checked `plan` call; None if it failed."""
        F = self.F
        self.outcomes.attempted += 1
        tracer.begin("plan-part" if req.partition else "plan")
        result = None
        try:
            t0 = clock()
            try:
                result = self.api.plan(req)
            except F.CapacityError:
                pass
            elapsed = clock() - t0
        except Exception as exc:
            with tracer.paused():
                self.outcomes.fail(f"plan {req}: {exc!r}")
            return None
        with tracer.paused():
            problem = self._check(req, result)
        if problem:
            self.outcomes.fail(f"plan {req}: {problem}")
            return None
        if result is None:
            self.outcomes.capacity += 1
        return elapsed

    def _check(self, req, result):
        F, ch, target = self.F, req.ch, req.plr_target
        if result is None:
            top = F.CodeSpec(F.codec.MAX_CODE_LENGTH, req.k)
            if F.analytic_plr(top, ch).plr <= target:
                return "CapacityError although the longest code meets the target"
            return None
        spec = result.spec
        if spec.k != req.k:
            return f"planned k={spec.k}"
        plr = F.analytic_plr(spec, ch).plr
        if plr > target:
            return f"n={spec.n} misses the target (plr {plr})"
        if spec.n - 1 > spec.k and F.analytic_plr(F.CodeSpec(spec.n - 1, spec.k), ch).plr <= target:
            return f"n={spec.n} is not minimal: n-1 meets the target"
        if req.partition:
            part = result.partition
            if part is None or part.ps.parent != spec:
                return "no partition of the planned code"
            gap = F.partitioned_plr(part.ps, ch).plr - plr
            if gap > req.delta:
                return f"partitioned PLR exceeds plain by {gap} > delta"
        return None

    def metrics(self):
        lat, n = self.latency_ms, len(self.latency_ms)
        return {
            "plan.answers_per_s": (ratio(n, sum(lat) / 1e3), "1/s", n),
            "plan.ms_p50": (percentile(lat, 50), "ms", n),
            "plan.ms_p95": (percentile(lat, 95), "ms", n),
            "plan.ms_p99": (percentile(lat, 99), "ms", n),
        }


def _last_erased(packets):
    return len(packets) - 1 - packets[::-1].index(None) if None in packets else -1


def ratio(a, b):
    return a / b if b > 0 else math.nan


def setup(seed, sizes):
    """Import the package and build every loop's generators and inputs."""
    F = load_fecpart()
    api = make_api(F)
    stream_seed, mc_seed, plan_seed = np.random.SeedSequence(seed).spawn(3)
    phases = {
        "stream": Stream(F, api, stream_seed),
        "simulate": Simulate(F, api, mc_seed, sizes.mc_trials),
        "plan": Plan(F, api, plan_seed),
    }
    return F, api, phases


def timed_setups(seed, sizes):
    """Set up `sizes.setups` times; keep the last and the median time."""
    times = []
    for _ in range(sizes.setups):
        t0 = clock()
        built = setup(seed, sizes)
        times.append(clock() - t0)
    return built, statistics.median(times)


def shares(workload):
    primary = WORKLOADS[workload]
    order = [primary] + [n for n in ("stream", "simulate", "plan") if n != primary]
    return {name: 0.5 if name == primary else 0.25 for name in order}  # primary wins ties


def measure(phases, share, seconds, tracer):
    """Run units, always of the loop furthest behind its share, for `seconds`.

    Every loop runs at least its `min_units`, so each metric has a sample.
    """
    busy = dict.fromkeys(share, 0.0)
    units = dict.fromkeys(share, 0)
    while sum(busy.values()) < seconds or any(units[n] < phases[n].min_units for n in units):
        name = min(busy, key=lambda n: busy[n] / share[n])
        t0 = clock()
        phases[name].unit(tracer)
        busy[name] += clock() - t0
        units[name] += 1


def end_to_end(phases):
    out = {}
    for phase in phases.values():
        out.update(phase.metrics())
    return out


def warm_up(phases):
    """One untimed block and request, so tables and caches are warm."""
    null = NullTracer()
    phases["stream"].unit(null)
    phases["stream"].reset()
    plan = phases["plan"]
    plan.answer(plan.F.PlanRequest(k=50, ch=plan.F.BecChannel(0.01)), null)
