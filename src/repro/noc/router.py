"""The 5-stage virtual-channel router.

Pipeline (paper §IV): buffer write / route compute (BW/RC), VC
allocation (VA), switch allocation (SA), switch traversal (ST), link
traversal (LT).  Retransmission buffers sit at the output, after the
crossbar (the paper's worst-case placement, Fig. 5).

The simulator is cycle-driven: the network calls the phase methods in a
fixed order every cycle, and per-flit / per-VC ``*_cycle`` guards ensure
a flit advances at most one stage per cycle, so latency through an
uncongested router is the paper's 5 cycles (4 in-router stages + LT).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union, TYPE_CHECKING

from repro.noc.arbiters import RoundRobinArbiter
from repro.noc.config import NoCConfig
from repro.noc.credit import CreditTracker
from repro.noc.flit import Flit
from repro.noc.link import Link, Transmission
from repro.noc.receiver import EccReceiver
from repro.noc.retrans import RetransBuffer
from repro.noc.topology import Direction, dateline_high

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.lob import LObEncoder
    from repro.ecc import Secded

#: Input ports: a mesh direction or ("inj", local core index).
#: Output targets: a mesh direction or ("ej", local core index).
PortKey = Union[Direction, tuple[str, int]]


class SchedulingPolicy:
    """Hook points for QoS schemes (overridden by the TDM baseline)."""

    def flit_may_use_switch(self, flit: Flit, cycle: int) -> bool:
        return True

    def flit_may_use_link(self, flit: Flit, cycle: int) -> bool:
        return True

    def allowed_out_vcs(self, flit: Flit, num_vcs: int) -> range:
        return range(num_vcs)

    def may_inject(self, flit: Flit, cycle: int) -> bool:
        return True

    def may_admit_retrans(self, flit: Flit, retrans: RetransBuffer) -> bool:
        """Gate admission into a retransmission buffer (TDM partitions
        the slots per domain so one domain's pinned retransmissions
        cannot starve the other's)."""
        return True


class VCState:
    """One virtual channel of an input port.

    ``work`` is the owning router's :attr:`Router.occupied_vcs` and
    ``flat`` this VC's index in it; :meth:`push` and :meth:`pop` keep
    the flat index in the set exactly while the buffer holds a flit, so
    every mutation of ``buffer`` must go through them (or through
    :meth:`remove_packet`).
    """

    __slots__ = ("capacity", "buffer", "route_out", "rc_cycle", "out_vc",
                 "va_cycle", "cur_pkt", "work", "flat")

    def __init__(self, capacity: int, work: set[int], flat: int):
        self.capacity = capacity
        self.buffer: deque[Flit] = deque()
        self.route_out: Optional[PortKey] = None
        self.rc_cycle = -1
        self.out_vc: Optional[int] = None
        self.va_cycle = -1
        #: pkt_id the pinned route/VC state belongs to, so a purge of a
        #: dropped packet can find and reset stale per-VC state even
        #: after the packet's flits have left the buffer
        self.cur_pkt: Optional[int] = None
        self.work = work
        self.flat = flat

    @property
    def occupancy(self) -> int:
        return len(self.buffer)

    @property
    def is_full(self) -> bool:
        return len(self.buffer) >= self.capacity

    @property
    def head(self) -> Optional[Flit]:
        return self.buffer[0] if self.buffer else None

    def push(self, flit: Flit) -> None:
        buffer = self.buffer
        if len(buffer) >= self.capacity:
            raise RuntimeError("VC overflow: credit flow control broken")
        buffer.append(flit)
        self.work.add(self.flat)

    def pop(self) -> Flit:
        buffer = self.buffer
        flit = buffer.popleft()
        if not buffer:
            self.work.discard(self.flat)
        return flit

    def remove_packet(self, pkt_id: int) -> list[Flit]:
        """Discard the buffered flits of ``pkt_id``; return them."""
        doomed = [f for f in self.buffer if f.pkt_id == pkt_id]
        if doomed:
            self.buffer = deque(f for f in self.buffer if f.pkt_id != pkt_id)
            if not self.buffer:
                self.work.discard(self.flat)
        return doomed

    def reset_packet_state(self) -> None:
        self.route_out = None
        self.rc_cycle = -1
        self.out_vc = None
        self.va_cycle = -1
        self.cur_pkt = None


class InputPort:
    """A router input: VC buffers plus (for link inputs) the receive
    pipeline and a handle on the upstream credit tracker.

    The port's VCs take flat indices ``base .. base + num_vcs - 1`` in
    the router's ``work`` set.
    """

    __slots__ = ("key", "vcs", "receiver", "upstream_credits")

    def __init__(
        self, key: PortKey, cfg: NoCConfig, work: set[int], base: int
    ):
        self.key = key
        self.vcs = [
            VCState(cfg.vc_depth, work, flat)
            for flat in range(base, base + cfg.num_vcs)
        ]
        self.receiver: Optional[EccReceiver] = None
        self.upstream_credits: Optional[CreditTracker] = None

    @property
    def occupancy(self) -> int:
        return sum(vc.occupancy for vc in self.vcs)

    @property
    def is_full(self) -> bool:
        return all(vc.is_full for vc in self.vcs)


class OutputPort:
    """A direction output: retransmission buffer + link + credits."""

    __slots__ = ("direction", "link", "retrans", "credits", "holders",
                 "holder_pkts", "lob", "vc_seq_counters", "last_ack_cycle")

    def __init__(self, direction: Direction, link: Link, cfg: NoCConfig):
        self.direction = direction
        self.link = link
        self.retrans = RetransBuffer(cfg.retrans_depth)
        self.credits = CreditTracker(
            cfg.num_vcs, cfg.vc_depth, cfg.credit_latency
        )
        #: which (input key, vc index) holds each downstream VC; held from
        #: VA until the packet's tail flit is ACKed by the neighbour, so
        #: retransmissions cannot interleave two packets on one VC
        self.holders: list[Optional[tuple[PortKey, int]]] = [None] * cfg.num_vcs
        #: pkt_id behind each holder; a dropped packet whose tail will
        #: never cross this link must have its grants force-released
        self.holder_pkts: list[Optional[int]] = [None] * cfg.num_vcs
        self.lob: Optional["LObEncoder"] = None
        #: next per-VC link sequence number
        self.vc_seq_counters = [0] * cfg.num_vcs
        #: cycle of the most recent positive acknowledgement
        self.last_ack_cycle = -1

    def is_blocked(self, cycle: int, stall_window: int = 24) -> bool:
        """Completely stalled from back pressure (paper Fig. 11 metric).

        Three stall signatures: the retransmission buffer is pinned
        full; every downstream VC's credits are exhausted; or the port
        holds unacknowledged flits but has made no forward progress
        (no ACK) for ``stall_window`` cycles — which catches the case
        where a pinned packet per VC starves VC allocation long before
        the buffer itself fills.
        """
        if self.retrans.is_full:
            return True
        if all(
            self.credits.available(vc) == 0
            for vc in range(self.credits.num_vcs)
        ):
            return True
        return (
            self.retrans.oldest_wait(cycle) > stall_window
            and cycle - self.last_ack_cycle > stall_window
        )


class EjectPort:
    """Queue from the router to one local core."""

    __slots__ = ("core", "queue", "capacity")

    def __init__(self, core: int, capacity: int):
        self.core = core
        self.queue: deque[Flit] = deque()
        self.capacity = capacity

    @property
    def is_full(self) -> bool:
        return len(self.queue) >= self.capacity


class Router:
    """One mesh router with its local cores' injection/ejection ports."""

    def __init__(
        self,
        cfg: NoCConfig,
        router_id: int,
        route_fn,
        policy: Optional[SchedulingPolicy] = None,
    ):
        self.cfg = cfg
        self.id = router_id
        self.route_fn = route_fn
        self.policy = policy or SchedulingPolicy()

        #: work list: flat ``input index * num_vcs + vc`` indices of the
        #: input VCs holding a flit, kept exact by VCState.push/pop.
        #: RC, VA and SA visit only these, in ascending (canonical) order.
        self.occupied_vcs: set[int] = set()
        #: every input VC, by flat index
        self._vcs: list[VCState] = []
        self.inputs: dict[PortKey, InputPort] = {}
        self.outputs: dict[Direction, OutputPort] = {}
        self.ejects: dict[int, EjectPort] = {}
        for local in range(cfg.concentration):
            self.add_input(("inj", local))
            self.ejects[local] = EjectPort(
                cfg.core_of(router_id, local), cfg.ejection_depth
            )

        # Arbiters are created lazily once wiring is complete.
        self._input_keys: list[PortKey] = []
        self._sa_input_arb: dict[PortKey, RoundRobinArbiter] = {}
        self._sa_output_arb: dict[PortKey, RoundRobinArbiter] = {}
        self._va_arb: dict[Direction, RoundRobinArbiter] = {}
        self._wired = False

        # counters
        self.flits_switched = 0
        self.flits_ejected = 0

        #: input directions whose upstream credit tracker was released
        #: during the most recent :meth:`switch_traverse` call; the
        #: network uses this to wake the upstream router under
        #: active-set stepping.
        self.credit_release_dirs: list[Direction] = []
        #: input-port key of the head currently in route compute (an
        #: adaptive route_fn reads it to refuse 180-degree turns)
        self.routing_input: Optional[PortKey] = None

    # -- wiring (done by Network) ----------------------------------------
    def add_input(self, key: PortKey) -> InputPort:
        """Add an input port: an injection port or a link input."""
        port = InputPort(key, self.cfg, self.occupied_vcs, len(self._vcs))
        self._vcs.extend(port.vcs)
        self.inputs[key] = port
        return port

    def add_link_output(self, direction: Direction, link: Link) -> OutputPort:
        port = OutputPort(direction, link, self.cfg)
        self.outputs[direction] = port
        return port

    def finish_wiring(self) -> None:
        self._input_keys = list(self.inputs.keys())
        n_in = len(self._input_keys)
        for key in self._input_keys:
            self._sa_input_arb[key] = RoundRobinArbiter(self.cfg.num_vcs)
        out_keys: list[PortKey] = list(self.outputs.keys()) + [
            ("ej", local) for local in self.ejects
        ]
        for key in out_keys:
            self._sa_output_arb[key] = RoundRobinArbiter(n_in)
        for direction in self.outputs:
            self._va_arb[direction] = RoundRobinArbiter(
                n_in * self.cfg.num_vcs
            )
        self._wired = True

    # -- BW/RC -------------------------------------------------------------
    def route_compute(self, cycle: int) -> None:
        vcs = self._vcs
        for flat in sorted(self.occupied_vcs):
            vc = vcs[flat]
            if vc.route_out is not None:
                continue
            head = vc.buffer[0]
            if not head.is_head or head.last_move_cycle >= cycle:
                continue
            vc.cur_pkt = head.pkt_id
            if head.dst_router == self.id:
                local = head.dst_core % self.cfg.concentration
                vc.route_out = ("ej", local)
            else:
                # arrival port, for routing functions that forbid
                # 180-degree turns (non-minimal containment detours)
                self.routing_input = self._input_keys[
                    flat // self.cfg.num_vcs
                ]
                direction = self.route_fn(
                    self.id, head.dst_router, head.src_router, self
                )
                if direction is None:
                    # Routing says "local" but the id disagrees (can
                    # happen after header SDC); eject here and let
                    # the endpoint detect the misdelivery.
                    local = head.dst_core % self.cfg.concentration
                    vc.route_out = ("ej", local)
                else:
                    vc.route_out = direction
            vc.rc_cycle = cycle

    # -- VA -----------------------------------------------------------------
    def vc_allocate(self, cycle: int) -> None:
        num_vcs = self.cfg.num_vcs
        # Single pass over the occupied input VCs, bucketing requesters
        # by their routed output; outputs with no requesters cost nothing.
        buckets: dict[Direction, dict[int, VCState]] = {}
        vcs = self._vcs
        for flat in sorted(self.occupied_vcs):
            vc = vcs[flat]
            if vc.out_vc is not None or vc.rc_cycle >= cycle:
                continue
            route = vc.route_out
            if route is None or isinstance(route, tuple):
                continue
            if not vc.buffer[0].is_head:
                continue
            buckets.setdefault(route, {})[flat] = vc
        torus = self.cfg.topology == "torus"
        dateline_half = num_vcs // 2
        for direction, req_info in buckets.items():
            out = self.outputs[direction]
            holders = out.holders
            free_set = {v for v in range(num_vcs) if holders[v] is None}
            if not free_set:
                continue
            requesters: list[int] = []
            allowed_by_flat: dict[int, list[int]] = {}
            for flat, vc in req_info.items():
                allowed = [
                    v
                    for v in self.policy.allowed_out_vcs(vc.buffer[0], num_vcs)
                    if v in free_set
                ]
                if torus:
                    # dateline VC discipline: low half before the ring's
                    # wrap edge, high half at/after it — the restriction
                    # that makes torus dimension-order routing
                    # deadlock-free (repro.noc.topology.dateline_high)
                    high = dateline_high(
                        self.cfg,
                        self.id,
                        vc.buffer[0].src_router,
                        direction,
                    )
                    allowed = [
                        v
                        for v in allowed
                        if (v >= dateline_half) == high
                    ]
                if allowed:
                    requesters.append(flat)
                    allowed_by_flat[flat] = allowed
            if not requesters:
                continue
            winner = self._va_arb[direction].grant_indices(requesters)
            if winner is None:
                continue
            vc = req_info[winner]
            in_idx, vc_idx = divmod(winner, num_vcs)
            grant_vc = allowed_by_flat[winner][0]
            vc.out_vc = grant_vc
            vc.va_cycle = cycle
            out.holders[grant_vc] = (self._input_keys[in_idx], vc_idx)
            out.holder_pkts[grant_vc] = vc.buffer[0].pkt_id

    # -- SA + ST -------------------------------------------------------------
    def _movable(self, vc: VCState, cycle: int) -> bool:
        """Whether the head of a non-empty VC may bid for the switch."""
        head = vc.buffer[0]
        if head.last_move_cycle >= cycle:
            return False
        if vc.route_out is None or vc.rc_cycle >= cycle:
            return False
        if not self.policy.flit_may_use_switch(head, cycle):
            return False
        route = vc.route_out
        if isinstance(route, tuple):  # eject
            return not self.ejects[route[1]].is_full
        out = self.outputs[route]
        if vc.out_vc is None or vc.va_cycle >= cycle:
            return False
        if out.retrans.is_full:
            return False
        if not self.policy.may_admit_retrans(head, out.retrans):
            return False
        return out.credits.available(vc.out_vc) > 0

    def switch_traverse(self, cycle: int) -> int:
        """Run SA then move the winning flits through the crossbar.

        Returns the number of flits switched.
        """
        self.credit_release_dirs.clear()
        if not self.occupied_vcs:
            return 0
        # Input-side arbitration: each input port nominates one VC.
        candidates_by_input: dict[int, list[int]] = {}
        vcs = self._vcs
        num_vcs = self.cfg.num_vcs
        for flat in sorted(self.occupied_vcs):
            if self._movable(vcs[flat], cycle):
                in_idx, vc_idx = divmod(flat, num_vcs)
                candidates_by_input.setdefault(in_idx, []).append(vc_idx)
        nominations: dict[PortKey, tuple[int, VCState]] = {}
        requests_per_out: dict[PortKey, list[int]] = {}
        for in_idx, candidates in candidates_by_input.items():
            key = self._input_keys[in_idx]
            pick = self._sa_input_arb[key].grant_indices(candidates)
            if pick is None:
                continue
            vc = self.inputs[key].vcs[pick]
            nominations[key] = (pick, vc)
            requests_per_out.setdefault(vc.route_out, []).append(in_idx)

        # Output-side arbitration: one winner per output.
        moved = 0
        for out_key, in_indices in requests_per_out.items():
            winner_idx = self._sa_output_arb[out_key].grant_indices(in_indices)
            if winner_idx is None:
                continue
            key = self._input_keys[winner_idx]
            vc_idx, vc = nominations[key]
            flit = vc.pop()
            flit.last_move_cycle = cycle
            moved += 1
            self.flits_switched += 1

            if isinstance(out_key, tuple):  # ejection
                self.ejects[out_key[1]].queue.append(flit)
            else:
                out = self.outputs[out_key]
                tag = out.retrans.admit(flit, vc.out_vc, cycle)
                assert tag is not None, "retrans admit after is_full check"
                entry = out.retrans.get(tag)
                entry.vc_seq = out.vc_seq_counters[vc.out_vc]
                out.vc_seq_counters[vc.out_vc] += 1
                out.credits.consume(vc.out_vc)

            # Free the input buffer slot: return a credit upstream.
            port = self.inputs[key]
            if port.upstream_credits is not None:
                port.upstream_credits.release(vc_idx, cycle)
                self.credit_release_dirs.append(key)

            if flit.is_tail:
                vc.reset_packet_state()
        return moved

    # -- LT (output side) -----------------------------------------------------
    def launch_links(self, cycle: int, codec: "Secded") -> None:
        for out in self.outputs.values():
            if out.link.disabled or out.link.paused:
                continue
            candidates = [
                entry
                for entry in out.retrans.ready_entries(cycle)
                if self.policy.flit_may_use_link(entry.flit, cycle)
            ]
            if not candidates:
                continue
            if out.lob is not None:
                selection = out.lob.select_and_encode(candidates, cycle)
                if selection is None:
                    continue
                entry, data, descriptor = selection
            else:
                entry = candidates[0]
                data, descriptor = entry.flit.data, None
            codeword = codec.encode(data)
            tx = Transmission(
                tag=entry.tag,
                vc=entry.out_vc,
                vc_seq=entry.vc_seq,
                codeword=codeword,
                flit=entry.flit,
                ob=descriptor,
                launch_cycle=cycle,
            )
            out.link.launch(tx, cycle)
            out.retrans.mark_launched(entry.tag, cycle)

    # -- ACK processing ----------------------------------------------------
    def process_acks(self, cycle: int) -> None:
        for out in self.outputs.values():
            for ack in out.link.pop_acks(cycle):
                if out.link.ack_hooks:
                    entry_for_hook = out.retrans.get(ack.tag)
                    flit = entry_for_hook.flit if entry_for_hook else None
                    for hook in out.link.ack_hooks:
                        hook(ack, cycle, flit)
                if ack.ok:
                    out.last_ack_cycle = cycle
                    entry = out.retrans.on_ack(ack.tag)
                    if entry is not None and entry.flit.is_tail:
                        # Tail safely across: the downstream VC may now be
                        # re-allocated to another packet.
                        out.holders[entry.out_vc] = None
                        out.holder_pkts[entry.out_vc] = None
                    if out.lob is not None and ack.ob_success is not None:
                        out.lob.record_success(
                            ack.flow_signature, ack.ob_success
                        )
                else:
                    out.retrans.on_nack(ack.tag, ack.advice)

    # -- ejection ------------------------------------------------------------
    def drain_ejects(self, cycle: int) -> list[Flit]:
        """Each local core consumes at most one flit per cycle."""
        delivered = []
        for port in self.ejects.values():
            if port.queue:
                flit = port.queue.popleft()
                flit.ejected_cycle = cycle
                delivered.append(flit)
                self.flits_ejected += 1
        return delivered

    # -- introspection ------------------------------------------------------
    def link_input_occupancy(self) -> int:
        return sum(
            port.occupancy
            for key, port in self.inputs.items()
            if isinstance(key, Direction)
        )

    def injection_occupancy(self) -> int:
        return sum(
            port.occupancy
            for key, port in self.inputs.items()
            if isinstance(key, tuple)
        )

    def output_occupancy(self) -> int:
        return sum(out.retrans.occupancy for out in self.outputs.values())

    def any_output_blocked(self, cycle: int) -> bool:
        return any(out.is_blocked(cycle) for out in self.outputs.values())

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle >= ``cycle`` this router may do work, or
        ``None`` when it holds no state at all.

        Buffered flits, staged receiver deliveries and ejection queues
        pin the clock to "now" (their pipeline guards are per-cycle);
        the only *future* demands a router can prove are deferred
        retransmission entries and credit returns still in flight.  Its
        links' wires are accounted separately through the network's
        active-link set.
        """
        if self.occupied_vcs:
            return cycle
        for port in self.inputs.values():
            receiver = port.receiver
            if receiver is not None and receiver.staged_count:
                return cycle
        for eject in self.ejects.values():
            if eject.queue:
                return cycle
        best: Optional[int] = None
        for out in self.outputs.values():
            when = out.retrans.next_event_cycle(cycle)
            if when is not None:
                if when <= cycle:
                    return cycle
                if best is None or when < best:
                    best = when
            when = out.credits.next_visible_cycle()
            if when is not None:
                if when <= cycle:
                    return cycle
                if best is None or when < best:
                    best = when
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Router(id={self.id})"
