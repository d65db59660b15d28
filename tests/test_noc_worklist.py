"""Router work lists: RC, VA and SA visit only the occupied input VCs.

Each router keeps ``occupied_vcs``, the flat ``input index * num_vcs +
vc`` indices of its input VCs that hold a flit; ``VCState.push``/``pop``
(and ``remove_packet`` for purges) keep it exact.  These tests pin the
two halves of that contract: the pipeline stages examine no VC outside
the work list (a timing-free scan-count guard), and the list stays
equal to the non-empty VCs across purges, link disable/reinstate and
checkpoint restore (the ``buffer`` invariant family).
"""

from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

from repro.baselines.reroute import apply_rerouting
from repro.noc import Network, NoCConfig
from repro.noc.invariants import NetworkValidator
from repro.noc.router import Router, VCState
from repro.noc.routing import make_route_fn
from repro.noc.topology import Direction
from repro.sim import Scenario, Simulation, SyntheticTraffic
from repro.traffic import SyntheticConfig, SyntheticSource, uniform_random

MESH8 = NoCConfig(mesh_width=8, mesh_height=8)
STAGES = ("route_compute", "vc_allocate", "switch_traverse")


@contextmanager
def count_vc_reads(monkeypatch):
    """Route every VCState slot read through a recording property, and
    count, per pipeline stage call, the VCs it examined against the VCs
    that held a flit when it began."""
    # ids of the VCs whose slots are read while ``touched`` is a set
    reads = SimpleNamespace(touched=None)
    examined: Counter = Counter()
    occupied: Counter = Counter()
    for name in VCState.__slots__:
        member = VCState.__dict__[name]

        def get(vc, member=member):
            if reads.touched is not None:
                reads.touched.add(id(vc))
            return member.__get__(vc, VCState)

        def put(vc, value, member=member):
            member.__set__(vc, value)

        monkeypatch.setattr(VCState, name, property(get, put))
    for stage in STAGES:
        original = getattr(Router, stage)

        def counted(router, cycle, original=original, stage=stage):
            occupied[stage] += sum(
                1
                for port in router.inputs.values()
                for vc in port.vcs
                if vc.buffer
            )
            reads.touched = set()
            try:
                return original(router, cycle)
            finally:
                examined[stage] += len(reads.touched)
                reads.touched = None

        monkeypatch.setattr(Router, stage, counted)
    yield examined, occupied


def _uniform(cfg, rate, duration, seed):
    return SyntheticSource(
        cfg,
        uniform_random,
        SyntheticConfig(injection_rate=rate, duration=duration),
        seed=seed,
    )


def test_stages_examine_only_occupied_vcs(monkeypatch):
    net = Network(MESH8)
    net.set_traffic(_uniform(MESH8, 0.03, 60, seed=11))
    with count_vc_reads(monkeypatch) as (examined, occupied):
        net.run(80)
    assert net.stats.flits_ejected > 0
    for stage in STAGES:
        # a full scan would examine 32 VCs (8 ports x 4) per router-step
        assert occupied[stage] > 0
        assert examined[stage] == occupied[stage], stage


def _audited(net, validator, cycles):
    for _ in range(cycles):
        net.step()
        validator.check()


class TestWorkListInvariant:
    def test_purge_keeps_work_list_exact(self):
        net = Network(MESH8)
        net.set_traffic(_uniform(MESH8, 0.08, 60, seed=5))
        validator = NetworkValidator(net)
        _audited(net, validator, 30)
        # a VC holding only one packet's flits empties when it is purged
        router, vc = next(
            (router, vc)
            for router in net.routers
            for port in router.inputs.values()
            for vc in port.vcs
            if vc.buffer and len({f.pkt_id for f in vc.buffer}) == 1
        )
        assert vc.flat in router.occupied_vcs
        assert net.purge_packet(vc.buffer[0].pkt_id, net.cycle) > 0
        assert not vc.buffer
        assert vc.flat not in router.occupied_vcs
        validator.check()
        _audited(net, validator, 60)
        assert validator.report.ok

    def test_disable_and_reinstate_keep_work_list_exact(self):
        net = Network(MESH8)
        keys = ((9, Direction.EAST), (10, Direction.WEST))
        apply_rerouting(net, keys[:1])
        assert all(net.links[key].disabled for key in keys)
        net.set_traffic(_uniform(MESH8, 0.05, 80, seed=8))
        validator = NetworkValidator(net)
        _audited(net, validator, 40)
        for key in keys:
            net.reinstate_link(key)
        net.routing_table = None
        net.set_route_fn(make_route_fn(MESH8))
        _audited(net, validator, 80)
        assert net.links[keys[0]].traversals > 0
        assert validator.report.ok

    def test_restored_router_owns_its_work_list(self):
        sim = Simulation(
            Scenario(
                name="worklist-restore",
                cfg=MESH8,
                traffic=(
                    SyntheticTraffic(injection_rate=0.05, duration=120, seed=2),
                ),
                duration=120,
            )
        )
        sim.advance_to(50)
        restored = sim.snapshot().restore()
        for mine, theirs in zip(
            restored.network.routers, sim.network.routers
        ):
            assert mine.occupied_vcs is not theirs.occupied_vcs
            assert mine.occupied_vcs == theirs.occupied_vcs
        # every restored VC aliases its restored router's set
        validator = NetworkValidator(restored.network)
        validator.check()
        # pushes and pops after the restore land in the restored sets
        for _ in range(40):
            restored.step()
            sim.step()
            validator.check()
            assert [r.occupied_vcs for r in restored.network.routers] == [
                r.occupied_vcs for r in sim.network.routers
            ]
        assert any(r.occupied_vcs for r in restored.network.routers)
        assert validator.report.ok

    def test_validator_flags_a_stale_work_list(self):
        net = Network(MESH8)
        router = net.routers[3]
        router.occupied_vcs.add(5)  # no flit behind it
        report = NetworkValidator(net).check(raise_on_violation=False)
        assert report.by_family == {"buffer": 1}
        assert "work list" in report.violations[0]
