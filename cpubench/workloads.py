"""The benchmark's three seeded workloads.

Each workload turns ``--seed`` into a :class:`~repro.sim.scenario.Scenario`
and hands the simulator nothing else.  A *round* runs one fixed simulated
horizon and times it in process CPU seconds, rescaled to a reference
host speed by a :class:`~hostclock.HostClock`; the digest of a round is a
pure function of the scenario, so every round of one run must produce the
same digest, and a round at :data:`DEFAULT_SEED` must reproduce the digest
pinned in ``digests.json``.

* ``dense-mesh16`` — router pipeline + ECC under steady uniform load on
  the 16x16 mesh (sweep engine, no defence).  The mesh is warmed up once,
  untimed, and frozen with :meth:`Simulation.snapshot`; every round
  restores that snapshot and times the same cycles.
* ``contain-torus8`` — the ``largescale`` experiment's attacked 8x8
  torus driven by :func:`repro.serve.pipeline.run_streaming`: trojans,
  flood and gray-hole against detector -> localizer -> containment, the
  watchdog and the sentinel.  A round is one whole streamed run.
* ``sparse-mitigated4`` — the paper's 4x4 network with L-Ob mitigation
  and the watchdog on the event engine: a flood burst through the
  infected link, then sparse probes across it.  Rounds restore a
  snapshot taken right after the build, so L-Ob set-up is paid once per
  build (``setup_s``), not per round.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from hostclock import HostClock

from repro.core.targets import TargetSpec
from repro.experiments import largescale
from repro.noc.config import PAPER_CONFIG
from repro.noc.topology import Direction, LinkKey
from repro.obs import profiler as obs_profiler
from repro.obs.collectors import link_label, parse_link_label
from repro.obs.profiler import PhaseProfiler
from repro.resilience.watchdog import WatchdogConfig
from repro.serve.pipeline import StreamingRun, run_streaming
from repro.sim import (
    DefenseSpec,
    ExplicitTraffic,
    FloodTraffic,
    PacketSpec,
    Scenario,
    Simulation,
    SyntheticTraffic,
    TrojanSpec,
)

#: the seed whose round digests are pinned in ``digests.json``
DEFAULT_SEED = 1


@dataclass
class Round:
    """One timed horizon of a workload."""

    #: process CPU seconds of the timed part, at reference host speed
    cpu_s: float
    #: simulated cycles the timed part advanced
    cycles: int
    digest: str
    #: semantic check name -> passed
    checks: dict[str, bool]
    #: CPU seconds (reference speed) until the first verdict naming an
    #: attacked link
    #: (``None``: the workload streams no verdicts)
    first_verdict_s: Optional[float] = None
    #: simulated cycles from a trojan's arming to the first verdict
    #: naming its link, worst over the trojans
    verdict_latency_cycles: Optional[int] = None
    #: the simulation the round ran (for per-layer counters)
    sim: Optional[Simulation] = field(default=None, repr=False)
    #: the streamed run, for the streaming workload
    stream: Optional[StreamingRun] = field(default=None, repr=False)
    #: phase laps of the round, when it was profiled
    profiler: Optional[PhaseProfiler] = field(default=None, repr=False)
    #: :func:`counters` when the timed part began (a restored snapshot
    #: carries the warm-up's counts)
    start_counters: dict[str, int] = field(default_factory=dict)


def counters(sim: Simulation) -> dict[str, int]:
    """Cumulative flit-hop and receiver counters of ``sim``'s network."""
    net = sim.network
    receivers = [
        port.receiver
        for router in net.routers
        for port in router.inputs.values()
        if port.receiver is not None
    ]
    return {
        "flit_hops": sum(link.traversals for link in net.links.values()),
        "nacks": sum(receiver.nacks_sent for receiver in receivers),
        "accepted": sum(receiver.flits_accepted for receiver in receivers),
    }


def _stream_seed(seed: int, label: str) -> int:
    """A per-purpose 31-bit seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def digest_of(sim: Simulation, completed: bool, verdicts=()) -> str:
    """sha256 over the RunResult, the per-link traversal counts and the
    verdict stream: every simulated statistic a speed-up must keep."""
    doc = {
        "result": dataclasses.asdict(sim.result(completed)),
        "link_load": {
            link_label(key): count
            for key, count in sorted(
                sim.network.link_load().items(),
                key=lambda kv: (kv[0][0], kv[0][1].value),
            )
        },
        "verdicts": [verdict.to_dict() for verdict in verdicts],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """A seeded scenario plus how to time one round of it."""

    name = ""
    #: rounds a run makes at least, whatever ``--seconds`` says
    min_rounds = 1

    def scenario(self, seed: int) -> Scenario:
        raise NotImplementedError

    def prepare(self, scenario: Scenario) -> object:
        """Untimed state shared by the rounds of one run."""
        return scenario

    def round(
        self, state: object, clock: HostClock, profile: bool = False
    ) -> Round:
        """One horizon timed on ``clock``; ``profile`` attaches a
        :class:`~repro.obs.profiler.PhaseProfiler` to its network."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# dense-mesh16
# ---------------------------------------------------------------------------
def uniform_schedule(
    cfg, rate: float, payload_words: int, duration: int, seed: int
) -> ExplicitTraffic:
    """Uniform random traffic at ``rate`` packets per core per cycle, with
    evenly spaced injections instead of Bernoulli ones: the seed picks
    every packet's cores, VC class, address and payload, but not how many
    packets enter the network in a given cycle, so the work of a fixed
    horizon barely depends on it."""
    rng = random.Random(seed)
    cores = cfg.num_cores
    per_cycle = rate * cores
    packets = []
    for pkt_id in range(round(per_cycle * duration)):
        src = rng.randrange(cores)
        dst = rng.randrange(cores - 1)
        packets.append(
            PacketSpec(
                pkt_id=pkt_id,
                src_core=src,
                dst_core=dst if dst < src else dst + 1,
                inject_at=int(pkt_id / per_cycle),
                vc_class=rng.randrange(cfg.num_vcs),
                mem_addr=rng.getrandbits(32),
                payload=tuple(
                    rng.getrandbits(cfg.flit_bits)
                    for _ in range(payload_words)
                ),
            )
        )
    return ExplicitTraffic(packets=tuple(packets))


class DenseMesh16(Workload):
    """Uniform traffic at ``largescale``'s 16x16 benign rate, just below
    the saturation knee, so the router pipeline and ECC do the work."""

    name = "dense-mesh16"
    min_rounds = 3
    #: cycles per clock slice (~0.1 s)
    slice_cycles = 4

    def __init__(self, warmup: int = 160, horizon: int = 40):
        #: untimed cycles that fill the mesh to its steady in-flight load
        self.warmup = warmup
        #: timed cycles per round
        self.horizon = horizon

    def scenario(self, seed: int) -> Scenario:
        campaign = largescale.CAMPAIGNS[0]
        end = self.warmup + self.horizon
        return Scenario(
            name="cpubench-dense-mesh16",
            cfg=campaign.cfg,
            traffic=(
                uniform_schedule(
                    campaign.cfg,
                    campaign.inject_rate,
                    payload_words=2,
                    duration=end,
                    seed=_stream_seed(seed, "uniform"),
                ),
            ),
            duration=end,
            seed=seed,
        )

    def prepare(self, scenario: Scenario):
        sim = Simulation(scenario, engine="sweep")
        sim.advance_to(self.warmup)
        return sim.snapshot(), sim.network.stats.packets_completed

    def round(
        self, state, clock: HostClock, profile: bool = False
    ) -> Round:
        snapshot, warm_completed = state
        sim = snapshot.restore(check_code_version=False)
        if profile:
            sim.network.profiler = PhaseProfiler()
        start = counters(sim)
        end = sim.scenario.duration
        cpu_s = clock.advance(sim, end, self.slice_cycles)
        stats = sim.network.stats
        return Round(
            cpu_s=cpu_s,
            cycles=self.horizon,
            start_counters=start,
            digest=digest_of(sim, True),
            checks={
                "no_misdeliveries": stats.misdeliveries == 0,
                "full_horizon": sim.network.cycle == end,
                "delivers_while_timed": (
                    stats.packets_completed > warm_completed
                ),
            },
            sim=sim,
            profiler=sim.network.profiler,
        )


# ---------------------------------------------------------------------------
# contain-torus8
# ---------------------------------------------------------------------------
@contextmanager
def capture_simulations() -> Iterator[list[Simulation]]:
    """Collect every :class:`Simulation` built inside the block
    (``run_streaming`` builds its own and does not return it)."""
    built: list[Simulation] = []
    original = Simulation.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    Simulation.__init__ = recording_init
    try:
        yield built
    finally:
        Simulation.__init__ = original


class ContainTorus8(Workload):
    """The attacked 8x8 torus of ``largescale``, streamed through the
    serve pipeline in the benchmark's own thread."""

    name = "contain-torus8"
    #: run_streaming's engine chunk, one clock slice (~0.15 s); also how
    #: often verdicts are pumped
    chunk = 16

    def __init__(self, horizon: int = 1200):
        #: simulated cycles per streamed run; the last attacker (armed
        #: at 820) is localized two detector windows later, well inside
        self.horizon = horizon

    def scenario(self, seed: int) -> Scenario:
        campaign = largescale.CAMPAIGNS[1]
        base = largescale._scenario(campaign, self.horizon, attacked=True)
        benign, *floods = base.traffic
        return dataclasses.replace(
            base,
            name="cpubench-contain-torus8",
            traffic=(
                dataclasses.replace(
                    benign, seed=_stream_seed(seed, "benign")
                ),
                *(
                    dataclasses.replace(
                        flood, seed=_stream_seed(seed, f"flood{index}")
                    )
                    for index, flood in enumerate(floods)
                ),
            ),
            attacks=tuple(
                dataclasses.replace(
                    attack, seed=_stream_seed(seed, "grayhole")
                )
                for attack in base.attacks
            ),
            seed=seed,
        )

    def round(
        self, scenario: Scenario, clock: HostClock, profile: bool = False
    ) -> Round:
        campaign = largescale.CAMPAIGNS[1]
        attacked = {link_label(key) for key in campaign.attack_links}
        attacked.add(link_label(campaign.grayhole_link))
        armed_at = {
            link_label(spec.link): spec.enable_at for spec in scenario.trojans
        }
        #: link label -> cycle of the first verdict naming it
        named: dict[str, int] = {}
        # the run is timed in slices, one per engine chunk, each rescaled
        # by the bursts around it (run_streaming calls on_snapshot after
        # every chunk, in this thread)
        elapsed = [0.0]
        #: (reference CPU-s of the closed slices, raw CPU-s into the open
        #: one) when the first attacked-link verdict came
        pending: list[tuple[float, float]] = []
        #: reference CPU-s until that verdict
        first: list[float] = []

        def lap() -> None:
            raw, scale = clock.lap()
            if pending and not first:
                closed, into = pending[0]
                first.append(closed + into * scale)
            elapsed[0] += raw * scale

        def on_verdict(verdict) -> None:
            if verdict.subject in attacked:
                named.setdefault(verdict.subject, verdict.cycle)
                if not pending:
                    pending.append((elapsed[0], clock.raw()))

        with capture_simulations() as built:
            if profile:
                # run_streaming builds its own Simulation, which picks
                # up the process-wide profiler
                obs_profiler.enable()
            try:
                clock.restart()
                stream = run_streaming(
                    scenario,
                    chunk=self.chunk,
                    on_verdict=on_verdict,
                    on_snapshot=lambda _snapshot: lap(),
                )
                lap()
            finally:
                obs_profiler.disable()
        cpu_s = elapsed[0]
        (sim,) = built
        cfg = scenario.cfg
        estimates = [
            verdict.subject
            for verdict in stream.verdicts
            if verdict.kind == "estimate"
        ]
        localized = all(
            any(
                largescale._link_distance(
                    cfg, true_link, parse_link_label(label)
                ) <= 1
                for label in estimates
            )
            for true_link in campaign.attack_links
        )
        return Round(
            cpu_s=cpu_s,
            cycles=stream.result.cycles,
            start_counters=dict.fromkeys(counters(sim), 0),
            digest=digest_of(sim, stream.result.completed, stream.verdicts),
            checks={
                # a sentinel trip raises out of run_streaming, so a
                # completed run with the sentinel armed is a clean one
                "sentinel_clean": (
                    stream.result.completed
                    and sim.sentinel is not None
                    and sim.sentinel.checks > 0
                ),
                "attackers_localized": localized,
                "verdict_named_attacker": bool(first),
                "verdict_named_each_trojan": set(armed_at) <= set(named),
                "no_events_dropped": stream.dropped == 0,
            },
            first_verdict_s=first[0] if first else None,
            verdict_latency_cycles=max(
                named.get(label, cycle) - cycle
                for label, cycle in armed_at.items()
            ),
            sim=sim,
            stream=stream,
            profiler=sim.network.profiler,
        )


# ---------------------------------------------------------------------------
# sparse-mitigated4
# ---------------------------------------------------------------------------
class SparseMitigated4(Workload):
    """The paper's 4x4 network, L-Ob mitigated, on the event engine:
    landed-cycle overhead in ``sim.sched`` dominates, router work is
    small."""

    name = "sparse-mitigated4"
    min_rounds = 3
    #: cycles per clock slice (~0.1 s; most of them are leapt over)
    slice_cycles = 3000
    INFECTED: LinkKey = (0, Direction.EAST)
    TARGET_ROUTER = 15
    #: the flood burst through the infected link: one packet a cycle
    #: until here, so its volume does not depend on the seed
    FLOOD_STOP = 60
    #: cycles between probe slots; each probe lands at a seeded offset
    #: inside the first quarter of its slot
    GAP = 400
    FIRST_PROBE = 400

    def __init__(self, probes: int = 24, tail: int = 2000):
        self.probes = probes
        #: idle tail after the last probe slot (the clock leaps across)
        self.tail = tail

    @property
    def horizon(self) -> int:
        return self.FIRST_PROBE + self.probes * self.GAP + self.tail

    def probe_ids(self) -> range:
        return range(100, 100 + self.probes)

    def scenario(self, seed: int) -> Scenario:
        cfg = PAPER_CONFIG
        rng = random.Random(_stream_seed(seed, "probes"))
        local = cfg.concentration
        # source cores sit behind router 0, so XY routing sends every
        # probe east across the infected link to the target router
        probes = tuple(
            PacketSpec(
                pkt_id=pkt_id,
                src_core=cfg.core_of(0, rng.randrange(local)),
                dst_core=cfg.core_of(self.TARGET_ROUTER, rng.randrange(local)),
                mem_addr=rng.randrange(1 << 16) << 4,
                inject_at=(
                    self.FIRST_PROBE
                    + index * self.GAP
                    + rng.randrange(self.GAP // 4)
                ),
            )
            for index, pkt_id in enumerate(self.probe_ids())
        )
        return Scenario(
            name="cpubench-sparse-mitigated4",
            cfg=cfg,
            traffic=(
                FloodTraffic(
                    rogue_cores=(cfg.core_of(0, 0),),
                    victim_cores=(cfg.core_of(self.TARGET_ROUTER, 1),),
                    rate=1.0,
                    stop_cycle=self.FLOOD_STOP,
                    seed=_stream_seed(seed, "flood"),
                ),
                ExplicitTraffic(packets=probes),
            ),
            trojans=(
                TrojanSpec(
                    self.INFECTED, TargetSpec.for_dest(self.TARGET_ROUTER)
                ),
            ),
            defense=DefenseSpec(mitigated=True, watchdog=WatchdogConfig()),
            duration=self.horizon,
            # sampling would cap every leap at the sample interval
            sample_interval=0,
            seed=seed,
            engine="event",
        )

    def prepare(self, scenario: Scenario):
        return Simulation(scenario).snapshot()

    def round(
        self, snapshot, clock: HostClock, profile: bool = False
    ) -> Round:
        sim = snapshot.restore(check_code_version=False)
        if profile:
            sim.network.profiler = PhaseProfiler()
        start = counters(sim)
        end = sim.scenario.duration
        cpu_s = clock.advance(sim, end, self.slice_cycles)
        stats = sim.network.stats
        delivered = {
            record.pkt_id for record in stats.completed_records()
        }
        (trojan,) = sim.trojans
        return Round(
            cpu_s=cpu_s,
            cycles=end,
            start_counters=start,
            digest=digest_of(sim, True),
            checks={
                "probes_delivered": all(
                    pkt_id in delivered for pkt_id in self.probe_ids()
                ),
                "trojan_fired": trojan.faults_injected > 0,
                "full_horizon": sim.network.cycle == end,
            },
            sim=sim,
            profiler=sim.network.profiler,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (DenseMesh16(), ContainTorus8(), SparseMitigated4())
}
