//! Regression tests for the per-pair lane-window protocol's two known
//! failure shapes — pinned as *counters*, never as byte divergence.
//!
//! The conservative window protocol (`crates/core/src/network.rs`,
//! `run_until`) promises that lane count and lane boundaries change
//! performance only: every telemetry dump stays byte-identical to the
//! single-lane reference. The two topologies most likely to break that
//! promise in spirit (correct bytes, useless speedup) are:
//!
//! 1. **A zero-latency link crossing a lane boundary.** The per-pair
//!    lookahead collapses the receiving lane's window to a single
//!    instant (the 1 µs serialization floor is all the slack there is).
//!    Correctness must survive — and `ShardStats::collapsed` must
//!    report the collapse instead of letting the run silently degrade
//!    to lockstep.
//! 2. **A fault plan denser than the lookahead window.** Every round
//!    is truncated by a pending coordinator op, so the barrier
//!    serializes on the plan. The batched dispatch (all same-instant
//!    actions in one interruption, only lanes with due events
//!    executed) must show up in `barrier_stalls`/`op_batches`/
//!    `lanes_skipped`, and the dumps must stay byte-identical at every
//!    K, on serial and threaded lanes alike.

use catenet::sim::{Duration, FaultAction, FaultPlan, Instant, LinkClass};
use catenet::stack::app::{CbrSink, CbrSource};
use catenet::stack::iface::Framing;
use catenet::stack::{Endpoint, Network, ShardKind, ShardStats};

/// h0 — g1 — g2 — h3 over zero-propagation Ethernet links, CBR both
/// ways. Every link is zero-latency, so no boundary can avoid one: with
/// K = 2 the partitioner keeps the balanced split, between g1 and g2.
fn zero_boundary_net(seed: u64, shard: ShardKind) -> Network {
    let mut net = Network::with_shards(seed, shard);
    let h0 = net.add_host("h0");
    let g1 = net.add_gateway("g1");
    let g2 = net.add_gateway("g2");
    let h3 = net.add_host("h3");
    let mut zero = LinkClass::EthernetLan.params();
    zero.propagation = Duration::ZERO;
    zero.jitter = Duration::ZERO;
    for (a, b) in [(h0, g1), (g1, g2), (g2, h3)] {
        net.connect_with(a, b, zero.clone(), Framing::Ethernet);
    }
    let a0 = net.node(h0).primary_addr();
    let a3 = net.node(h3).primary_addr();
    net.attach_app(h3, Box::new(CbrSink::new(5000)));
    net.attach_app(
        h0,
        Box::new(CbrSource::new(
            Endpoint::new(a3, 5000),
            Duration::from_millis(50),
            120,
            Instant::from_secs(1),
            Instant::from_secs(4),
        )),
    );
    net.attach_app(h0, Box::new(CbrSink::new(5001)));
    net.attach_app(
        h3,
        Box::new(CbrSource::new(
            Endpoint::new(a0, 5001),
            Duration::from_millis(50),
            120,
            Instant::from_secs(1),
            Instant::from_secs(4),
        )),
    );
    net
}

fn dumps(net: &Network) -> [String; 3] {
    [net.metrics_dump(), net.series_dump(), net.flight_dump()]
}

#[test]
fn zero_latency_boundary_link_is_byte_identical_and_counted() {
    let run = |shard| {
        let mut net = zero_boundary_net(7, shard);
        net.run_for(Duration::from_secs(5));
        (dumps(&net), net.shard_stats(), net.lane_bounds())
    };
    let (reference, single_stats, _) = run(ShardKind::Single);
    // The single-lane arm never touches the window counters.
    assert_eq!(single_stats, ShardStats::default());
    for shard in [
        ShardKind::Sharded { shards: 2 },
        ShardKind::Parallel { shards: 2 },
    ] {
        let (d, stats, bounds) = run(shard);
        assert_eq!(d, reference, "dumps diverged under {shard:?}");
        assert_eq!(bounds, [(0, 2), (2, 4)], "the cut falls on g1 — g2");
        assert!(stats.windows > 0, "rounds ran under {shard:?}");
        // The receiving lane's window collapses to the round-start
        // instant nearly every round: the peer's next event plus the
        // 1 µs floor is all the lookahead a zero-propagation boundary
        // link leaves. The counter is the alarm.
        assert!(
            stats.collapsed > 0,
            "zero-latency boundary must be reported: {stats:?}"
        );
        assert_eq!(
            stats.lanes_dispatched + stats.lanes_skipped,
            stats.windows * 2,
            "every round accounts for both lanes: {stats:?}"
        );
    }
}

/// Interleaved ring — g0,h0,g1,h1,g2,h2,g3,h3 with T1 trunks between
/// consecutive gateways — so every K ∈ {2, 4} boundary cuts a trunk,
/// never a LAN. CBR h0 ↔ h2 crosses the ring both ways.
fn ring_net(seed: u64, shard: ShardKind) -> (Network, Vec<usize>) {
    let mut net = Network::with_shards(seed, shard);
    let mut gs = Vec::new();
    let mut hs = Vec::new();
    for i in 0..4 {
        let g = net.add_gateway(format!("g{i}"));
        let h = net.add_host(format!("h{i}"));
        net.connect(h, g, LinkClass::EthernetLan);
        gs.push(g);
        hs.push(h);
    }
    let mut trunks = Vec::new();
    for i in 0..4 {
        trunks.push(net.connect(gs[i], gs[(i + 1) % 4], LinkClass::T1Terrestrial));
    }
    let a0 = net.node(hs[0]).primary_addr();
    let a2 = net.node(hs[2]).primary_addr();
    net.attach_app(hs[2], Box::new(CbrSink::new(6000)));
    net.attach_app(
        hs[0],
        Box::new(CbrSource::new(
            Endpoint::new(a2, 6000),
            Duration::from_millis(50),
            160,
            Instant::from_secs(5),
            Instant::from_secs(12),
        )),
    );
    net.attach_app(hs[0], Box::new(CbrSink::new(6001)));
    net.attach_app(
        hs[2],
        Box::new(CbrSource::new(
            Endpoint::new(a0, 6001),
            Duration::from_millis(50),
            160,
            Instant::from_secs(5),
            Instant::from_secs(12),
        )),
    );
    (net, trunks)
}

/// Two same-instant delay-spike/restore actions every 5 ms from t=6 s
/// to t=9 s — six times denser than the 30 ms T1 lookahead, so every
/// traffic round in that span is op-truncated.
fn dense_plan(trunks: &[usize]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut at = Instant::from_secs(6);
    let step = Duration::from_millis(5);
    let mut spiked = false;
    while at < Instant::from_secs(9) {
        for &link in &trunks[..2] {
            let action = if spiked {
                FaultAction::RestoreDelay { link }
            } else {
                FaultAction::DelaySpike {
                    link,
                    extra: Duration::from_millis(1),
                    jitter: Duration::ZERO,
                }
            };
            plan.push(at, action);
        }
        spiked = !spiked;
        at += step;
    }
    plan
}

#[test]
fn dense_fault_plan_is_byte_identical_and_batches_dispatch() {
    let run = |shard| {
        let (mut net, trunks) = ring_net(21, shard);
        net.attach_fault_plan(dense_plan(&trunks));
        net.run_for(Duration::from_secs(15));
        (dumps(&net), net.shard_stats())
    };
    let (reference, _) = run(ShardKind::Single);
    for k in [2usize, 4] {
        let (d, stats) = run(ShardKind::Sharded { shards: k });
        assert_eq!(d, reference, "dumps diverged at K={k}");
        // Batching: every plan instant carries two fault actions and
        // both land in one coordinator interruption, so applied ops
        // strictly outnumber batches (telemetry samples ride along as
        // single-op batches, which is why this is `>` and not `== 2×`).
        assert!(
            stats.ops_applied > stats.op_batches && stats.op_batches > 0,
            "same-instant actions must share a batch: {stats:?}"
        );
        // The plan is denser than the lookahead: rounds are truncated
        // by a pending op, and the counter says so.
        assert!(stats.barrier_stalls > 0, "dense plan must stall: {stats:?}");
        // Only lanes with due events run; idle lanes are skipped, the
        // batched-dispatch win over running every lane every round.
        assert!(stats.lanes_skipped > 0, "idle lanes must be skipped: {stats:?}");
        assert_eq!(
            stats.lanes_dispatched + stats.lanes_skipped,
            stats.windows * k as u64,
            "every round accounts for every lane: {stats:?}"
        );
        // Trunk-only cuts: no window collapses (contrast with the
        // zero-latency boundary test above).
        assert_eq!(stats.collapsed, 0, "T1 cuts never collapse: {stats:?}");
    }
    // Threaded arm: same bytes, same skipping, through real threads.
    let (d, stats) = run(ShardKind::Parallel { shards: 2 });
    assert_eq!(d, reference, "threaded arm diverged");
    assert!(stats.lanes_skipped > 0);
}
