//! The three seeded workloads, built through the public `Network` API.
//!
//! The seed reaches the simulation two ways: it is the network seed
//! (every per-link random stream derives from it), and it draws each
//! flow's start phase. Phases move *when* packets meet in queues and
//! therefore every dump byte, but not how much work a run does, so run
//! time is comparable across seeds.

use catenet_core::app::{BulkResult, BulkSender, CbrSink, CbrSource, SinkServer};
use catenet_core::{Endpoint, Network, NodeId, ShardKind, Shared, TcpConfig};
use catenet_routing::{DvConfig, GuardPolicy};
use catenet_sim::{Duration, Instant, LinkClass, Rng};
use catenet_wire::Ipv4Address;

/// Gateways on the UDP ring: 256 host-pair cells.
pub const RING_UDP_GATEWAYS: usize = 512;
/// CBR flows per cell on the UDP ring.
const RING_UDP_FLOWS_PER_CELL: usize = 10;
/// Gateways on the TCP ring: 64 cells, one bulk transfer each. A
/// multiple of 16 keeps the K=2 lane boundary between cells, so only
/// T1 trunks cross lanes.
pub const RING_TCP_GATEWAYS: usize = 128;
/// Bytes each bulk transfer carries.
const BULK_BYTES: usize = 2_000_000;
/// Side of the wrapped gateway torus: 144 gateways, diameter 12.
pub const TORUS_SIDE: usize = 12;
/// CBR flows from each torus host.
const TORUS_FLOWS_PER_HOST: usize = 4;
/// Each ring cell's flows target the destination host this many cells
/// ahead: five trunk hops plus two LAN hops.
const CELL_SKIP: usize = 2;
/// Packet voice: one 160-byte datagram per flow every 200 ms.
const CBR_INTERVAL: Duration = Duration::from_millis(200);
const CBR_SIZE: usize = 160;
/// Traffic starts once nearby routes have propagated.
const FLOW_START: Instant = Instant::from_secs(8);
/// CBR sources stop 2 s before the run ends so tails drain.
const CBR_STOP_BEFORE_END: Duration = Duration::from_secs(2);
/// Bulk transfers start within this spread after [`FLOW_START`].
const BULK_START_SPREAD_US: u64 = 1_000_000;
/// Destination port of every sink.
const PORT: u16 = 5000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interleaved cell-aligned ring, 160-byte CBR/UDP, one lane.
    RingUdp,
    /// Wrapped 12×12 gateway torus, full routing tables, one lane.
    TorusRip,
    /// Interleaved ring, one 2 MB bulk TCP transfer per cell, two
    /// lanes run in turn on one thread.
    RingTcpK2,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::RingUdp, Workload::TorusRip, Workload::RingTcpK2];

    /// The name the command line and the pins use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RingUdp => "ring-udp",
            Workload::TorusRip => "torus-rip",
            Workload::RingTcpK2 => "ring-tcp-k2",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the measured runs execute.
    pub fn shard(self) -> ShardKind {
        match self {
            Workload::RingUdp | Workload::TorusRip => ShardKind::Single,
            Workload::RingTcpK2 => ShardKind::Sharded { shards: 2 },
        }
    }

    /// Virtual time one run simulates.
    pub fn virtual_time(self) -> Duration {
        match self {
            Workload::RingUdp | Workload::TorusRip => Duration::from_secs(30),
            Workload::RingTcpK2 => Duration::from_secs(150),
        }
    }
}

/// What a flow reports back to the harness.
pub enum Flow {
    /// A CBR sink's received-datagram counter.
    Cbr(Shared<u64>),
    /// A bulk sender's outcome.
    Bulk(Shared<BulkResult>),
}

impl Flow {
    /// Whether the flow did its job: a CBR flow delivered at least one
    /// datagram, a bulk transfer completed.
    pub fn succeeded(&self) -> bool {
        match self {
            Flow::Cbr(received) => *received.lock().expect("sink poisoned") > 0,
            Flow::Bulk(result) => result
                .lock()
                .expect("sender poisoned")
                .completed_at
                .is_some(),
        }
    }
}

/// A workload ready to run.
pub struct Built {
    /// The network, apps attached, not yet run.
    pub net: Network,
    /// Every gateway.
    pub gateways: Vec<NodeId>,
    /// The address of every destination host (the route-lookup set).
    pub dests: Vec<Ipv4Address>,
    /// One entry per flow.
    pub flows: Vec<Flow>,
}

/// Build `workload` for `seed` under `shard`. With `sched_trace` the
/// scheduler op trace is armed before the first topology call, as a
/// replayable trace requires.
pub fn build(workload: Workload, seed: u64, shard: ShardKind, sched_trace: bool) -> Built {
    let mut net = Network::with_shards(seed, shard);
    net.set_sched_trace(sched_trace);
    let mut phases = Rng::from_seed(seed ^ 0x7065_7266_6265_6e63);
    match workload {
        Workload::RingUdp => build_ring(
            net,
            &mut phases,
            RING_UDP_GATEWAYS,
            |net, phases, src, dst| {
                let end = Instant::ZERO + workload.virtual_time();
                (0..RING_UDP_FLOWS_PER_CELL)
                    .map(|i| cbr(net, phases, src, dst, PORT + i as u16, end))
                    .collect()
            },
        ),
        Workload::RingTcpK2 => build_ring(
            net,
            &mut phases,
            RING_TCP_GATEWAYS,
            |net, phases, src, dst| {
                let addr = net.node(dst).primary_addr();
                let config = TcpConfig::default();
                net.attach_app(dst, Box::new(SinkServer::new(PORT, config.clone())));
                let start = FLOW_START + Duration::from_micros(phases.below(BULK_START_SPREAD_US));
                let sender = BulkSender::new(Endpoint::new(addr, PORT), BULK_BYTES, config, start);
                let result = sender.result_handle();
                net.attach_app(src, Box::new(sender));
                vec![Flow::Bulk(result)]
            },
        ),
        Workload::TorusRip => build_torus(net, &mut phases, workload.virtual_time(), false),
    }
}

/// One CBR flow from `src` to `dst:port` with a seeded start phase.
fn cbr(
    net: &mut Network,
    phases: &mut Rng,
    src: NodeId,
    dst: NodeId,
    port: u16,
    end: Instant,
) -> Flow {
    let sink = CbrSink::new(port);
    let received = sink.received.clone();
    net.attach_app(dst, Box::new(sink));
    let addr = net.node(dst).primary_addr();
    let start = FLOW_START + Duration::from_micros(phases.below(CBR_INTERVAL.total_micros()));
    let stop = end - CBR_STOP_BEFORE_END;
    net.attach_app(
        src,
        Box::new(CbrSource::new(
            Endpoint::new(addr, port),
            CBR_INTERVAL,
            CBR_SIZE,
            start,
            stop,
        )),
    );
    Flow::Cbr(received)
}

/// The interleaved cell-aligned ring: nodes are created `g0, src0, g1,
/// dst0, g2, …` so equal `NodeId` chunks split between cells and hosts
/// share a lane with their gateway. `attach` adds one cell's flows from
/// its source host to the destination host [`CELL_SKIP`] cells ahead.
fn build_ring(
    mut net: Network,
    phases: &mut Rng,
    gateways: usize,
    mut attach: impl FnMut(&mut Network, &mut Rng, NodeId, NodeId) -> Vec<Flow>,
) -> Built {
    let cells = gateways / 2;
    let mut gs = Vec::with_capacity(gateways);
    let mut srcs = Vec::with_capacity(cells);
    let mut dsts = Vec::with_capacity(cells);
    for i in 0..gateways {
        let g = net.add_gateway(format!("g{i}"));
        if let Some(&prev) = gs.last() {
            net.connect(prev, g, LinkClass::T1Terrestrial);
        }
        gs.push(g);
        let host = net.add_host(format!(
            "{}{}",
            if i % 2 == 0 { "src" } else { "dst" },
            i / 2
        ));
        net.connect(host, g, LinkClass::EthernetLan);
        if i % 2 == 0 {
            srcs.push(host)
        } else {
            dsts.push(host)
        }
    }
    net.connect(gs[gateways - 1], gs[0], LinkClass::T1Terrestrial);
    let mut flows = Vec::new();
    for cell in 0..cells {
        flows.extend(attach(
            &mut net,
            phases,
            srcs[cell],
            dsts[(cell + CELL_SKIP) % cells],
        ));
    }
    let dests = dsts.iter().map(|&d| net.node(d).primary_addr()).collect();
    Built {
        net,
        gateways: gs,
        dests,
        flows,
    }
}

/// The wrapped torus with one LAN host per gateway; every host sends
/// CBR flows to the host half the torus away in both dimensions.
/// With `guarded`, origin attestation is enabled before the first link
/// and every gateway runs [`GuardPolicy::attested`] from boot.
fn build_torus(mut net: Network, phases: &mut Rng, virtual_time: Duration, guarded: bool) -> Built {
    let side = TORUS_SIDE;
    let gs: Vec<NodeId> = (0..side * side)
        .map(|i| net.add_gateway(format!("g{}-{}", i / side, i % side)))
        .collect();
    for &g in &gs {
        net.node_mut(g).set_dv_config(DvConfig::fast());
    }
    if guarded {
        net.enable_attestation();
    }
    let at = |r: usize, c: usize| gs[(r % side) * side + c % side];
    for r in 0..side {
        for c in 0..side {
            net.connect(at(r, c), at(r, c + 1), LinkClass::T1Terrestrial);
            net.connect(at(r, c), at(r + 1, c), LinkClass::T1Terrestrial);
        }
    }
    let hosts: Vec<NodeId> = gs
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let h = net.add_host(format!("h{i}"));
            net.connect(g, h, LinkClass::EthernetLan);
            h
        })
        .collect();
    if guarded {
        net.set_guard_policy(GuardPolicy::attested());
    }
    let end = Instant::ZERO + virtual_time;
    let half = side / 2;
    let mut flows = Vec::new();
    for i in 0..side * side {
        let (r, c) = (i / side, i % side);
        let dst = hosts[((r + half) % side) * side + (c + half) % side];
        for port in PORT..PORT + TORUS_FLOWS_PER_HOST as u16 {
            flows.push(cbr(&mut net, phases, hosts[i], dst, port, end));
        }
    }
    let dests = hosts.iter().map(|&h| net.node(h).primary_addr()).collect();
    Built {
        net,
        gateways: gs,
        dests,
        flows,
    }
}

/// The torus with attested, boot-armed route guards: the known-defect
/// probe of `NOTES.md`, not a benchmark workload.
pub fn build_guarded_torus(seed: u64) -> Built {
    let mut phases = Rng::from_seed(seed);
    build_torus(
        Network::new(seed),
        &mut phases,
        Duration::from_secs(60),
        true,
    )
}
