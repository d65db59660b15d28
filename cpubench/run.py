"""CPU-time benchmark of the NoC simulator.

Usage, from the root of a checkout::

    python3 cpubench/run.py --workload dense-mesh16 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced, one phase-profiled and one span-traced
round and prints the per-layer metrics instead, writing the spans to
``cpubench/out/``.  The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every
end-to-end host time is process CPU time (``time.process_time``),
rescaled to a reference host speed by :class:`hostclock.HostClock`; the
per-layer span and phase seconds use ``perf_counter``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Simulation builds are spread over the run, between rounds, so their
#: median samples the whole run rather than one moment of it: after each
#: round the run builds until the builds' CPU time reaches SETUP_SHARE of
#: the run's so far, and makes at least SETUP_MIN_BUILDS in all (a torus
#: build takes ~10 ms, an L-Ob mitigated one ~0.7 s)
SETUP_SHARE = 0.15
SETUP_MIN_BUILDS = 5
SETUP_MAX_BUILDS = 2000
#: the traced run interleaves untraced and span-traced rounds, at least
#: TRACE_PAIRS_MIN pairs and more, up to TRACE_PAIRS_MAX, while it has
#: spent less than ``--seconds`` of CPU on them
TRACE_PAIRS_MIN = 2
TRACE_PAIRS_MAX = 5
#: stop starting rounds once a run has been going this long (wall
#: seconds), so a slow host still finishes well inside 180 s
WALL_CAP_S = 120.0
MAX_ROUNDS = 400

#: Network.step phases the router pipeline owns (ns_per_flit_hop base)
NOC_PHASES = (
    "credit", "ack", "ecc", "eject", "traverse", "arbitrate", "route",
    "inject", "active", "sample",
)
RESILIENCE_SPANS = {
    "watchdog": "RetransWatchdog.on_cycle",
    "detect": "TrafficStatsDetector.on_cycle",
    "localize": "TopologyLocalizer.ingest",
    "containment": "ContainmentCoordinator.on_cycle",
    "sentinel": "Sentinel.on_cycle",
}


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def pinned_digest(workload: str, seed: int) -> "str | None":
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "digests.json").read_text())[workload]


class Steal:
    """Share of the host's CPU time stolen by the hypervisor while the
    run lasted (``/proc/stat``; 0.0 where the counter is absent)."""

    def __init__(self) -> None:
        self.start = self._read()

    @staticmethod
    def _read() -> "tuple[int, int] | None":
        try:
            with open("/proc/stat") as fh:
                fields = [int(x) for x in fh.readline().split()[1:]]
        except (OSError, ValueError):
            return None
        return (fields[7] if len(fields) > 7 else 0), sum(fields)

    def share(self) -> float:
        end = self._read()
        if self.start is None or end is None or end[1] == self.start[1]:
            return 0.0
        return (end[0] - self.start[0]) / (end[1] - self.start[1])


class SetupTimer:
    """CPU seconds of repeated ``Simulation(scenario)`` builds."""

    def __init__(self, scenario, clock) -> None:
        self.scenario = scenario
        self.clock = clock
        #: per build: reference-speed CPU-s
        self.times: list[float] = []
        #: raw CPU-s of the builds, with their bursts
        self.spent = 0.0

    def build(self) -> None:
        from repro.sim import Simulation

        gc.collect()
        started = process_time()
        seconds, _ = self.clock.time(lambda: Simulation(self.scenario))
        self.times.append(seconds)
        self.spent += process_time() - started

    def keep_up(self, run_cpu_s: float) -> None:
        while (
            len(self.times) < SETUP_MAX_BUILDS
            and self.spent < SETUP_SHARE * run_cpu_s
        ):
            self.build()

    def median(self) -> float:
        while len(self.times) < SETUP_MIN_BUILDS:
            self.build()
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts rounds and failed rounds; a round fails when it raises,
    fails a semantic check, or its digest differs from the run's first
    digest or from the pinned one."""

    def __init__(self, pinned: "str | None"):
        self.pinned = pinned
        self.first_digest: "str | None" = None
        self.attempted = 0
        self.failed = 0

    def run(self, fn):
        self.attempted += 1
        gc.collect()
        try:
            rnd = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if self.first_digest is None:
            self.first_digest = rnd.digest
        problems = [name for name, ok in rnd.checks.items() if not ok]
        if rnd.digest != self.first_digest:
            problems.append("repeat_digest")
        if self.pinned is not None and rnd.digest != self.pinned:
            problems.append("pinned_digest")
        if problems:
            print(f"check failed: {', '.join(problems)}", file=sys.stderr)
            self.failed += 1
        return rnd


def timed_flit_hops(rnd) -> int:
    """Flit hops a round simulated while timed: its work, a pure function
    of the scenario (so of the seed)."""
    from workloads import counters

    return counters(rnd.sim)["flit_hops"] - rnd.start_counters["flit_hops"]


def untraced(workload, scenario, seconds: float, checker: Checker) -> dict:
    """Rounds, with set-up builds between them, until ``seconds`` of CPU
    (rounds, builds and the clock's bursts) is spent."""
    from hostclock import HostClock

    began = perf_counter()
    clock = HostClock()
    setup = SetupTimer(scenario, clock)
    state = workload.prepare(scenario)
    started = process_time()
    rounds = []
    work = 0
    while True:
        rnd = checker.run(lambda: workload.round(state, clock))
        if rnd is not None:
            if not rounds:
                work = timed_flit_hops(rnd)
            rounds.append(rnd)
            rnd.sim = rnd.stream = None  # keep one round's state at a time
        spent = process_time() - started
        setup.keep_up(spent)
        if checker.attempted >= MAX_ROUNDS:
            break
        if perf_counter() - began > WALL_CAP_S:
            break
        if checker.attempted >= workload.min_rounds and spent >= seconds:
            break
    if not rounds:
        raise SystemExit("cpubench: every round failed")
    host_burst_s = statistics.median(clock.bursts)
    cycles_per_s = statistics.median(r.cycles / r.cpu_s for r in rounds)
    if rounds[0].first_verdict_s is not None:
        first_verdict_s = statistics.median(
            r.first_verdict_s for r in rounds
        )
        latency = rounds[0].verdict_latency_cycles
    else:
        # no verdict stream: the time to a verdict is censored at the
        # end of the timed horizon
        first_verdict_s = statistics.median(r.cpu_s for r in rounds)
        latency = rounds[0].cycles
    return {
        "setup_s": setup.median(),
        "cycles_per_s": cycles_per_s,
        "first_verdict_s": first_verdict_s,
        "verdict_latency_cycles": latency,
        "work.flit_hops": work,
        "host.burst_s": host_burst_s,
    }


def install_spans(tracer) -> None:
    from repro.core.lob import LObCodec
    from repro.core.tasp import TaspTrojan
    from repro.ecc.hamming import Secded
    from repro.noc.receiver import EccReceiver
    from repro.noc.router import Router
    from repro.resilience.containment import ContainmentCoordinator
    from repro.resilience.detect import TrafficStatsDetector
    from repro.resilience.localize import TopologyLocalizer
    from repro.resilience.watchdog import RetransWatchdog
    from repro.serve.pipeline import DetectionPipeline
    from repro.sim.sentinel import Sentinel

    def idle(router, *_args) -> bool:
        return all(
            vc.head is None
            for port in router.inputs.values()
            for vc in port.vcs
        )

    tracer.wrap(Router, "route_compute", "Router.route_compute",
                tally=("idle_visits", idle))
    for attr in ("vc_allocate", "switch_traverse", "launch_links",
                 "process_acks"):
        tracer.wrap(Router, attr, f"Router.{attr}")
    tracer.wrap(EccReceiver, "process", "EccReceiver.process")
    tracer.wrap(Secded, "encode", "Secded.encode")
    tracer.wrap(Secded, "decode", "Secded.decode")
    tracer.wrap(LObCodec, "__init__", "LObCodec.__init__")
    tracer.wrap(TaspTrojan, "tamper", "TaspTrojan.tamper")
    for cls in (RetransWatchdog, TrafficStatsDetector,
                ContainmentCoordinator, Sentinel):
        tracer.wrap(cls, "on_cycle", f"{cls.__name__}.on_cycle")
    tracer.wrap(TopologyLocalizer, "ingest", "TopologyLocalizer.ingest")
    tracer.wrap(DetectionPipeline, "pump", "DetectionPipeline.pump")


def traced(
    workload, scenario, seed: int, seconds: float, checker: Checker
) -> dict:
    """One phase-profiled round, then untraced and span-traced rounds
    interleaved; the per-layer counts come from the last span-traced
    round, the overhead from the medians of both kinds."""
    from hostclock import HostClock
    from repro.sim import Simulation
    from tracer import Tracer
    from workloads import counters

    clock = HostClock()
    state = workload.prepare(scenario)
    profiled = checker.run(lambda: workload.round(state, clock, True))
    started = process_time()
    plain_s: list[float] = []
    spanned_s: list[float] = []
    while len(spanned_s) < TRACE_PAIRS_MAX and (
        len(spanned_s) < TRACE_PAIRS_MIN
        or process_time() - started < seconds
    ):
        plain = checker.run(lambda: workload.round(state, clock))
        with Tracer() as tracer:
            install_spans(tracer)
            gc.collect()
            Simulation(scenario)  # L-Ob set-up spans come from a build
            build_spans = len(tracer)
            spanned = checker.run(lambda: workload.round(state, clock))
        if plain is None or profiled is None or spanned is None:
            raise SystemExit("cpubench: a traced-mode round failed")
        plain_s.append(plain.cpu_s)
        spanned_s.append(spanned.cpu_s)
        plain.sim = plain.stream = None
    path = tracer.write(
        OUT_DIR / f"spans-{workload.name}-{seed}.jsonl.gz",
        {"workload": workload.name, "seed": seed,
         "build_spans": build_spans},
    )
    print(f"spans: {len(tracer)} -> {path.relative_to(ROOT)}")

    spans = tracer.summary()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    sim, stream = spanned.sim, spanned.stream
    phases = profiled.profiler.seconds
    work = {
        name: count - spanned.start_counters[name]
        for name, count in counters(sim).items()
    }
    flit_hops = work["flit_hops"]
    arrivals = calls("EccReceiver.process")
    codewords = calls("Secded.encode") + calls("Secded.decode")
    visits = calls("Router.route_compute")
    core = sim.event_core
    metrics = {
        "noc.router_visits": visits,
        "noc.idle_visit_share": (
            tracer.tallies["idle_visits"] / visits if visits else 0.0
        ),
        "noc.flit_hops": flit_hops,
        "noc.ns_per_flit_hop": (
            sum(phases.get(p, 0.0) for p in NOC_PHASES) * 1e9 / flit_hops
            if flit_hops else 0.0
        ),
        **{f"noc.{p}_s": phases.get(p, 0.0) for p in NOC_PHASES},
        "noc.nacks": work["nacks"],
        "noc.accept_share": work["accepted"] / arrivals if arrivals else 0.0,
        "ecc.encodes": calls("Secded.encode"),
        "ecc.decodes": calls("Secded.decode"),
        "ecc.ns_per_codeword": (
            (self_s("Secded.encode") + self_s("Secded.decode")) * 1e9
            / codewords if codewords else 0.0
        ),
        "core.lob_build_s": spans.get("LObCodec.__init__", {}).get(
            "total_s", 0.0),
        "core.tamper_calls": calls("TaspTrojan.tamper"),
        "core.tamper_s": self_s("TaspTrojan.tamper"),
        "sim.landed_cycles": spanned.cycles - (
            core.cycles_skipped if core is not None else 0),
        "sim.cycles_skipped": core.cycles_skipped if core else 0,
        "sim.wheel_decisions": core.decisions if core else 0,
        "sim.wheel_s": phases.get("wheel", 0.0),
        **{
            f"resilience.{part}_s": self_s(span)
            for part, span in RESILIENCE_SPANS.items()
        },
        "obs.events": sim.obs.bus.published if sim.obs else 0,
        "obs.events_dropped": stream.dropped if stream else 0,
        "serve.pump_s": self_s("DetectionPipeline.pump"),
        "serve.frames": len(stream.frames) if stream else 0,
        "serve.verdicts": len(stream.verdicts) if stream else 0,
        "traffic.generate_s": phases.get("traffic", 0.0),
        "trace.overhead_share": (
            statistics.median(spanned_s) / statistics.median(plain_s)
        ),
        "work.flit_hops": flit_hops,
        "host.burst_s": statistics.median(clock.bursts),
    }
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"cpubench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(one of {', '.join(WORKLOADS)})"
        )
    steal = Steal()
    scenario = workload.scenario(args.seed)
    checker = Checker(pinned_digest(workload.name, args.seed))
    if args.trace:
        values = traced(
            workload, scenario, args.seed, args.seconds, checker
        )
        kind = "per_layer"
    else:
        values = untraced(workload, scenario, args.seconds, checker)
        values["peak_rss_mb"] = peak_rss_mb()
        kind = "end_to_end"
    host_steal = steal.share()
    values["host.steal_share"] = host_steal
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "digest": checker.first_digest,
        "rounds": checker.attempted,
        "host.steal_share": host_steal,
        "work.flit_hops": values["work.flit_hops"],
        "host.burst_s": values["host.burst_s"],
    }
    print("info " + json.dumps(info, sort_keys=True))
    wanted = units(kind)
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
