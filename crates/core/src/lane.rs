//! Shard lanes: the per-partition execution engine behind the network's
//! event loop.
//!
//! The network partitions its nodes into K contiguous *lanes* (one lane
//! covering everything in the `ShardKind::Single` reference arm). Each
//! lane owns its own scheduler, the outgoing direction of every link
//! whose sender lives in it, and a per-direction RNG — everything a
//! window of virtual time needs, with no access to telemetry or any
//! other lane. The coordinator (`Network::run_until`) decides window
//! bounds, runs each lane over the window (serially, or on scoped
//! threads in `ShardKind::Parallel`), and absorbs two kinds of output
//! at the barrier:
//!
//! - **cross-lane frames** ([`CrossFrame`]): buffered during the
//!   window, scheduled into the destination lane at the barrier. The
//!   conservative per-pair lookahead (lane i's window ends strictly
//!   before anything any peer does next could reach it — see
//!   `Network::run_until` and DESIGN.md "The lane protocol") plus the
//!   ≥ 1 µs serialization floor guarantee every crossing frame lands
//!   after the sender's own limit, so absorbing it never rewinds a
//!   lane.
//! - **harvest entries** ([`HarvestEntry`]): telemetry-relevant state
//!   changes *detected* lane-side but *applied* coordinator-side, in
//!   `(instant, token)` order. The token is the smallest delivery key
//!   that touched the node at that instant, which is exactly the order
//!   the single-lane arm services nodes — so recorder rows, counters
//!   and convergence-tracer calls land in the same order for every K,
//!   and the dumps cannot tell how many lanes produced them. Because
//!   per-pair limits are heterogeneous, the coordinator banks these
//!   and applies only up to the round's global safe horizon
//!   (`min` of all lane limits).
//!
//! Determinism across K rests on the delivery *key*: every scheduled
//! event carries `(origin node) << 32 | per-origin sequence`, and a
//! same-instant batch is sorted by key before delivery in every mode.
//! FIFO-per-sender is preserved (one origin's keys ascend), and the
//! cross-origin order becomes a pure function of the topology and seed
//! instead of an artifact of queue-insertion interleaving — which is
//! what makes it shard-count-independent.

use crate::app::Application;
use crate::byzantine::ByzantineState;
use crate::node::Node;
use crate::pool::{PacketBuf, PacketPool};
use catenet_sim::{Duration, Instant, Link, LinkOutcome, Rng, Scheduler};
use catenet_wire::Ipv4Address;
use std::collections::{BTreeMap, HashMap};

use crate::network::{FrameTap, LinkId, NodeId};

/// Cumulative route-guard verdict counters harvested per neighbor:
/// (accepted, sanitized, damped, quarantined, attest-rejected).
pub(crate) type GuardCounters = (u64, u64, u64, u64, u64);

/// Cumulative accounting counters harvested per node: (flow evictions,
/// idle expiries, fragments attributed via port cache, fragments left
/// unattributed).
pub(crate) type AcctCounters = (u64, u64, u64, u64);

/// One endpoint of a duplex link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkEnd {
    pub node: NodeId,
    pub iface: usize,
}

/// Coordinator-side description of a duplex link: who is on each end.
/// The two directed [`Link`]s themselves live in the lanes that own
/// their senders (see [`LaneLink`] and `Network::link_home`).
pub(crate) struct LinkMeta {
    pub a: LinkEnd,
    pub b: LinkEnd,
}

/// A scheduled occurrence.
pub(crate) enum Event {
    /// A frame arriving at a node's interface.
    Frame {
        to: NodeId,
        iface: usize,
        frame: PacketBuf,
    },
    /// A timer wake for a node.
    Wake { node: NodeId },
}

/// A scheduler entry: the event plus its delivery key. The key gives
/// same-instant batches a total order that is independent of shard
/// count and of scheduler-insertion interleaving: `(origin node) << 32
/// | per-origin sequence`. The origin of a frame is its sender; the
/// origin of a wake is the node itself.
pub(crate) struct Keyed {
    pub key: u64,
    pub event: Event,
}

// The diffsched replay harness schedules dummy payloads of exactly
// this size so E13's backend comparison moves the same bytes per queue
// op as the real loop. A silent size change would quietly skew that
// workload — fail the build instead.
const _: () = assert!(
    std::mem::size_of::<Keyed>() == catenet_sim::diffsched::REPLAY_PAYLOAD_BYTES,
    "Keyed scheduler entry size drifted from diffsched::REPLAY_PAYLOAD_BYTES"
);
const _: () = assert!(
    std::mem::size_of::<Event>() == catenet_sim::diffsched::REPLAY_PAYLOAD_BYTES - 8,
    "Event enum size drifted (the 8-byte key must account for the rest)"
);

/// One directed link plus the RNG that rolls its loss, corruption and
/// jitter. Keying the RNG to the link direction (not a network-global
/// stream) is what makes realizations shard-count-independent: a
/// frame's fate depends only on the link it crossed and how many
/// frames crossed before it.
pub(crate) struct LaneLink {
    pub link: Link,
    pub rng: Rng,
}

impl LaneLink {
    /// The deterministic per-direction RNG stream. Independent of
    /// shard count: a function of the network seed and the directed
    /// link's identity only.
    pub fn seeded(seed: u64, link: LinkId, ab: bool) -> Rng {
        let dir = ((link as u64) << 1) | (ab as u64);
        Rng::from_seed(seed ^ 0xC4A0_11D1_4EC7_10E5u64 ^ dir.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A frame that crossed a lane boundary during a window, buffered for
/// barrier exchange.
pub(crate) struct CrossFrame {
    pub at: Instant,
    pub key: u64,
    pub to: NodeId,
    pub iface: usize,
    pub frame: PacketBuf,
}

/// One telemetry-relevant change detected during a lane window,
/// applied by the coordinator at the barrier.
pub(crate) enum HarvestOp {
    /// The node's routing table version moved.
    RouteChanged { version: u64 },
    /// TCP retransmission timers fired (`delta` new firings; `total`
    /// is the cumulative count for the recorder row).
    RtoFired { total: u64, delta: u64 },
    /// A per-node counter advanced by `delta`.
    Count { name: &'static str, delta: u64 },
    /// A per-(node, neighbor) guard counter advanced by `delta`.
    NeighborCount {
        name: &'static str,
        addr: Ipv4Address,
        delta: u64,
    },
    /// A guard incident for the flight recorder.
    Incident { detail: String },
}

/// All harvest ops for one node at one instant. `token` is the
/// smallest delivery key that touched the node at `at` (0 for a
/// coordinator kick, which is absorbed immediately and never merges
/// with window entries); sorting entries by `(at, token)` reproduces
/// the single-lane service order exactly.
pub(crate) struct HarvestEntry {
    pub at: Instant,
    pub token: u64,
    pub node: NodeId,
    pub ops: Vec<HarvestOp>,
}

/// One shard lane: a contiguous node range plus everything its windows
/// own outright.
pub(crate) struct Lane {
    /// First node id covered (inclusive).
    pub lo: NodeId,
    /// One past the last node id covered.
    pub hi: NodeId,
    /// The lane's scheduler. Lane 0 doubles as the boot scheduler
    /// before a K>1 network splits.
    pub sched: Scheduler<Keyed>,
    /// Directed links whose sender lives in this lane.
    pub links: Vec<LaneLink>,
    /// Frames bound for other lanes, buffered until the barrier.
    pub cross: Vec<CrossFrame>,
    /// Telemetry changes detected this window, absorbed at the barrier.
    pub harvests: Vec<HarvestEntry>,
    /// Frames offered to links since the last barrier absorb.
    pub frames_offered: u64,
    /// Unconnected-interface drops since the last barrier absorb.
    pub unconnected_drops: u64,
    /// The pool this lane's nodes allocate from (the network-shared
    /// pool, or a lane-private one in `ShardKind::Parallel`).
    pub pool: PacketPool,
    /// Whether cross-lane frames must be severed from this lane's pool
    /// (true only in `ShardKind::Parallel`, where pools are per-lane
    /// and not thread-safe).
    pub detach_cross: bool,
    /// Scratch: the same-instant batch being delivered.
    batch: Vec<Keyed>,
    /// Scratch: nodes touched at the current instant, with the first
    /// (= smallest) key that touched each.
    touched: Vec<(NodeId, u64)>,
    /// Scratch: outbox swap target, so drains allocate nothing in
    /// steady state.
    outbox: Vec<(usize, PacketBuf)>,
}

impl Lane {
    pub fn new(lo: NodeId, hi: NodeId, sched: Scheduler<Keyed>, pool: PacketPool) -> Lane {
        Lane {
            lo,
            hi,
            sched,
            links: Vec::new(),
            cross: Vec::new(),
            harvests: Vec::new(),
            frames_offered: 0,
            unconnected_drops: 0,
            pool,
            detach_cross: false,
            batch: Vec::new(),
            touched: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// Everything the network keeps per node, in one record: the node
/// itself, its applications, its event-loop bookkeeping and the
/// harvest baselines. One record per node means a lane's share of the
/// network is one contiguous slice, carved with a single
/// `split_at_mut` per boundary.
pub(crate) struct Slot {
    pub node: Node,
    pub apps: Vec<Box<dyn Application>>,
    /// The earliest wake already scheduled for this node, if any.
    pub next_wake: Option<Instant>,
    /// Origin sequence for delivery keys (see [`Keyed`]).
    pub event_seq: u64,
    /// Service passes executed (one per same-instant batch).
    pub service_count: u64,
    /// Byzantine corruption state (see `FaultAction::Compromise`): the
    /// liar's outgoing RIP frames are rewritten in [`LaneView::transmit`],
    /// after the node honestly computed them.
    pub byz: Option<ByzantineState>,
    /// Last observed DV table version (route-change detection).
    pub last_dv_version: u64,
    /// Last observed cumulative RTO count.
    pub last_rto_total: u64,
    /// Last harvested (arp gave-up, reassembled, reassembly timeouts,
    /// reassembly evictions), for delta-counting into the registry.
    pub last_harvest: (u64, u64, u64, u64),
    /// Last harvested accounting counters.
    pub last_acct: AcctCounters,
    /// Last harvested route-guard verdict totals per neighbor.
    pub last_guard: BTreeMap<Ipv4Address, GuardCounters>,
    /// Cumulative acked bytes at the previous sample (goodput). Read
    /// and written only by the coordinator's sampler.
    pub last_sampled_acked: u64,
}

impl Slot {
    pub fn new(node: Node) -> Slot {
        Slot {
            node,
            apps: Vec::new(),
            next_wake: None,
            event_seq: 0,
            service_count: 0,
            byz: None,
            last_dv_version: 0,
            last_rto_total: 0,
            last_harvest: (0, 0, 0, 0),
            last_acct: (0, 0, 0, 0),
            last_guard: BTreeMap::new(),
            last_sampled_acked: 0,
        }
    }
}

/// A lane plus mutable views of the network state its windows may
/// touch: the lane's node range (as one slice of [`Slot`]s) and shared
/// read-only topology. This is everything `run_window` needs — and,
/// deliberately, nothing else: no telemetry, no accounting collector,
/// no other lane. In `ShardKind::Parallel` one of these per lane is
/// handed to a scoped thread.
pub(crate) struct LaneView<'a> {
    pub lane: &'a mut Lane,
    pub lane_index: usize,
    /// Nodes `lane.lo..lane.hi`.
    pub slots: &'a mut [Slot],
    pub endpoint_index: &'a HashMap<(NodeId, usize), (LinkId, bool)>,
    pub links_meta: &'a [LinkMeta],
    pub link_home: &'a [[(u32, u32); 2]],
    pub lane_of: &'a [u32],
    /// The frame tap, present only when a single lane runs (it is a
    /// coordinator-owned `FnMut`; multi-lane runs that install one are
    /// demoted to serial execution and still see every frame, but the
    /// per-lane window order of tap callbacks is not part of the
    /// determinism contract — dumps are).
    pub tap: Option<&'a mut FrameTap>,
}

impl LaneView<'_> {
    fn slot(&mut self, id: NodeId) -> &mut Slot {
        &mut self.slots[id - self.lane.lo]
    }

    /// Mint the next delivery key originating at `id`.
    fn next_key(&mut self, id: NodeId) -> u64 {
        let seq = &mut self.slot(id).event_seq;
        let key = ((id as u64) << 32) | *seq;
        *seq += 1;
        key
    }

    /// Run this lane up to and including `limit`: drain each event
    /// instant as one key-sorted batch, then service every touched
    /// node once, in first-touch (= ascending-key) order.
    pub fn run_window(&mut self, limit: Instant) {
        while let Some(at) = self.lane.sched.peek_time() {
            if at > limit {
                break;
            }
            let mut batch = core::mem::take(&mut self.lane.batch);
            batch.push(self.lane.sched.pop().expect("peeked").1);
            while let Some(keyed) = self.lane.sched.pop_due(at) {
                batch.push(keyed);
            }
            batch.sort_unstable_by_key(|keyed| keyed.key);
            let mut touched = core::mem::take(&mut self.lane.touched);
            touched.clear();
            for keyed in batch.drain(..) {
                let (node, key) = match keyed.event {
                    Event::Frame { to, iface, frame } => {
                        self.slot(to).node.handle_frame(at, iface, frame);
                        (to, keyed.key)
                    }
                    Event::Wake { node } => {
                        let wake = &mut self.slot(node).next_wake;
                        if *wake == Some(at) {
                            *wake = None;
                        }
                        (node, keyed.key)
                    }
                };
                if !touched.iter().any(|&(n, _)| n == node) {
                    touched.push((node, key));
                }
            }
            self.lane.batch = batch;
            for &(node, token) in &touched {
                self.service_node(node, at, token);
            }
            self.lane.touched = touched;
        }
    }

    /// One service pass: applications, protocol machinery, harvest
    /// detection, outbox drain, timer re-arm. `token` orders the
    /// resulting harvest entry among same-instant entries.
    pub fn service_node(&mut self, id: NodeId, now: Instant, token: u64) {
        let slot = self.slot(id);
        slot.service_count += 1;
        // Applications first: they may write into sockets.
        for app in &mut slot.apps {
            app.poll(&mut slot.node, now);
        }
        // Protocol machinery: timers, routing, socket dispatch.
        slot.node.service(now);
        self.harvest_node(id, now, token);
        // Push produced frames onto links. Swap semantics keep the
        // steady state allocation-free.
        let mut outbox = core::mem::take(&mut self.lane.outbox);
        self.slot(id).node.swap_outbox(&mut outbox);
        for (iface, frame) in outbox.drain(..) {
            self.transmit(id, iface, frame, now);
        }
        self.lane.outbox = outbox;
        // Timer wake scheduling.
        let slot = self.slot(id);
        let mut want = slot.node.poll_at(now);
        for app in &slot.apps {
            if let Some(at) = app.next_wake() {
                let at = at.max(now);
                want = Some(match want {
                    Some(current) => current.min(at),
                    None => at,
                });
            }
        }
        if let Some(at) = want {
            let at = if at <= now {
                // "Immediately": schedule a hair later to let the event
                // loop breathe (prevents zero-delay spin).
                now + Duration::from_micros(1)
            } else {
                at
            };
            if slot.next_wake.is_none_or(|pending| at < pending) {
                slot.next_wake = Some(at);
                let key = self.next_key(id);
                self.lane.sched.schedule_at(
                    at,
                    Keyed {
                        key,
                        event: Event::Wake { node: id },
                    },
                );
            }
        }
    }

    /// Offer a frame to the link behind (`from`, `iface`). Same-lane
    /// deliveries go straight into the lane scheduler; cross-lane
    /// deliveries are buffered for the barrier.
    pub fn transmit(&mut self, from: NodeId, iface: usize, mut frame: PacketBuf, now: Instant) {
        let Some(&(link_id, is_a)) = self.endpoint_index.get(&(from, iface)) else {
            self.lane.unconnected_drops += 1;
            return;
        };
        // A compromised node lies on the wire, not in its own state:
        // the rewrite happens here so the tap (and the receiver) see
        // exactly what a byzantine gateway would have emitted.
        let slot = &mut self.slots[from - self.lane.lo];
        if let Some(state) = slot.byz.as_mut() {
            let framing = slot.node.ifaces[iface].framing;
            if let Some(corrupted) = state.corrupt_frame(iface, framing, &frame) {
                frame = self.lane.pool.adopt(PacketBuf::from_vec(corrupted));
            }
        }
        if let Some(tap) = self.tap.as_mut() {
            tap(now, &frame);
        }
        self.lane.frames_offered += 1;
        let (_, link_idx) = self.link_home[link_id][usize::from(!is_a)];
        let meta = &self.links_meta[link_id];
        let dest = if is_a { meta.b } else { meta.a };
        let lane_link = &mut self.lane.links[link_idx as usize];
        match lane_link.link.transmit(now, &mut frame, &mut lane_link.rng) {
            LinkOutcome::Delivered { at, .. } => {
                let key = self.next_key(from);
                if self.lane_of[dest.node] as usize == self.lane_index {
                    self.lane.sched.schedule_at(
                        at,
                        Keyed {
                            key,
                            event: Event::Frame {
                                to: dest.node,
                                iface: dest.iface,
                                frame,
                            },
                        },
                    );
                } else {
                    if self.lane.detach_cross {
                        frame.detach();
                    }
                    self.lane.cross.push(CrossFrame {
                        at,
                        key,
                        to: dest.node,
                        iface: dest.iface,
                        frame,
                    });
                }
            }
            LinkOutcome::Dropped(reason) => {
                // Datagram service: the DESTINATION is never told. But
                // the offering node knows its own queue overflowed —
                // 1988 gateways answered that with ICMP source quench.
                if reason == catenet_sim::DropReason::QueueFull {
                    let node = &mut self.slot(from).node;
                    node.on_queue_drop(now, iface, &frame);
                    let outbox = node.take_outbox();
                    for (out_iface, out_frame) in outbox {
                        // One level of recursion at most: quenches are
                        // ICMP errors, and errors about errors are
                        // suppressed by `icmp_error_for`.
                        self.transmit(from, out_iface, out_frame, now);
                    }
                }
            }
        }
    }

    /// Post-service observation for one node: detect routing-table
    /// changes, RTO firings, counter movement and guard verdicts, and
    /// record them as harvest ops for the coordinator to apply at the
    /// barrier. Detection here mirrors, field for field and in the
    /// same order, what the pre-shard loop wrote directly into
    /// telemetry — the coordinator replays the ops verbatim.
    fn harvest_node(&mut self, id: NodeId, now: Instant, token: u64) {
        let mut ops: Vec<HarvestOp> = Vec::new();
        let slot = &mut self.slots[id - self.lane.lo];
        let node = &slot.node;
        if let Some(dv) = &node.dv {
            let version = dv.version();
            if version != slot.last_dv_version {
                slot.last_dv_version = version;
                ops.push(HarvestOp::RouteChanged { version });
            }
        }
        let rto: u64 = node.tcp_sockets.iter().map(|s| s.stats.timeouts).sum();
        let last_rto = slot.last_rto_total;
        if rto != last_rto {
            slot.last_rto_total = rto;
            // A drop means the sockets died with the node
            // (fate-sharing); only a rise is a firing.
            if rto > last_rto {
                ops.push(HarvestOp::RtoFired {
                    total: rto,
                    delta: rto - last_rto,
                });
            }
        }
        let cur = (
            node.stats.dropped_arp_gave_up,
            node.reassembler().completed,
            node.reassembler().timed_out,
            node.reassembler().evicted,
        );
        let last = slot.last_harvest;
        if cur != last {
            slot.last_harvest = cur;
            for (name, value, floor) in [
                ("arp_gave_up_drops", cur.0, last.0),
                ("reassembled_datagrams", cur.1, last.1),
                ("reassembly_timeouts", cur.2, last.2),
                ("reassembly_evictions", cur.3, last.3),
            ] {
                // `value < floor` only after a crash reset the source;
                // nothing new happened, the baseline just moved.
                if value > floor {
                    ops.push(HarvestOp::Count {
                        name,
                        delta: value - floor,
                    });
                }
            }
        }
        // Accounting harvest: flow-table counters, delta-counted so
        // accounting-off runs keep byte-identical dumps.
        let cur = match &node.flows {
            Some(flows) => (
                flows.evicted,
                flows.expired,
                flows.frag_attributed,
                flows.frag_unattributed,
            ),
            None => (0, 0, 0, 0),
        };
        let last = slot.last_acct;
        if cur != last {
            slot.last_acct = cur;
            for (name, value, floor) in [
                ("flow_evictions", cur.0, last.0),
                ("flow_idle_expired", cur.1, last.1),
                ("frag_attributed", cur.2, last.2),
                ("frag_unattributed", cur.3, last.3),
            ] {
                if value > floor {
                    ops.push(HarvestOp::Count {
                        name,
                        delta: value - floor,
                    });
                }
            }
        }
        // Route-guard harvest: verdict deltas per neighbor, incidents
        // for the flight recorder. With the guard off neither accrues.
        let mut verdict_rows: Vec<(Ipv4Address, GuardCounters)> = Vec::new();
        let mut incidents = Vec::new();
        if let Some(dv) = &mut slot.node.dv {
            if dv.guard().enabled() {
                verdict_rows = dv
                    .guard()
                    .verdicts()
                    .map(|(addr, v)| {
                        (
                            addr,
                            (
                                v.accepted,
                                v.sanitized,
                                v.damped,
                                v.quarantined,
                                v.attest_rejected,
                            ),
                        )
                    })
                    .collect();
            }
            incidents = dv.guard_mut().drain_incidents();
        }
        for (addr, cur) in verdict_rows {
            let last = slot
                .last_guard
                .get(&addr)
                .copied()
                .unwrap_or((0, 0, 0, 0, 0));
            if cur == last {
                continue;
            }
            slot.last_guard.insert(addr, cur);
            // `guard_attest_rejected` only accrues when attestation is
            // verified, so attestation-off runs emit no new counter.
            for (name, value, floor) in [
                ("guard_accepted", cur.0, last.0),
                ("guard_sanitized", cur.1, last.1),
                ("guard_damped", cur.2, last.2),
                ("guard_quarantined", cur.3, last.3),
                ("guard_attest_rejected", cur.4, last.4),
            ] {
                if value > floor {
                    ops.push(HarvestOp::NeighborCount {
                        name,
                        addr,
                        delta: value - floor,
                    });
                }
            }
        }
        for incident in incidents {
            ops.push(HarvestOp::Incident {
                detail: incident.to_string(),
            });
        }
        if !ops.is_empty() {
            self.lane.harvests.push(HarvestEntry {
                at: now,
                token,
                node: id,
                ops,
            });
        }
    }
}
