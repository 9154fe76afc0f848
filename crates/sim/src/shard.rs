//! Shard execution modes for the deterministic event loop.
//!
//! The paper's survivability-at-scale goal (§3) needs more events per
//! wall-clock second than one core delivers. The classic answer —
//! conservative parallel discrete-event simulation (Chandy/Misra/Bryant)
//! — partitions the node set into shards that each run a *window* of
//! virtual time independently and exchange cross-shard frames at
//! barrier instants. The window length is the conservative lookahead:
//! the minimum propagation latency of any cross-shard link, because no
//! frame sent after the window opens can arrive inside it.
//!
//! [`ShardKind`] selects the mode. `Single` is the reference arm and
//! stays the default everywhere; `Sharded` runs the K-lane barrier
//! protocol serially (the equivalence arm: same code path as parallel,
//! zero threads, byte-identical dumps by construction *checked* against
//! `Single` by `tests/shard_equivalence.rs`); `Parallel` runs the same
//! lanes on scoped threads (the performance arm, priced by E17).
/// How the event loop partitions and executes the node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardKind {
    /// One lane over the whole node set — the reference arm. Windows
    /// have no lookahead bound (there are no cross-shard links), so
    /// execution is the classic serial event loop.
    #[default]
    Single,
    /// K contiguous lanes with conservative-lookahead windows and
    /// barrier-instant frame exchange, executed serially on one
    /// thread. Exists so the differential harness can prove the
    /// barrier protocol itself (not thread scheduling) preserves every
    /// dump byte.
    Sharded {
        /// Number of lanes (clamped to the node count at first run).
        shards: usize,
    },
    /// The same K-lane barrier protocol with each window executed on
    /// its own scoped thread. Falls back to serial window execution
    /// when a frame tap or attestation master is installed (those hold
    /// coordinator-side shared state).
    Parallel {
        /// Number of lanes (clamped to the node count at first run).
        shards: usize,
    },
}

/// Window-protocol execution counters, maintained by the coordinator
/// of a K>1 lane split (all zero under `ShardKind::Single`).
///
/// These are *performance* observables, not simulation observables:
/// they describe how the barrier protocol carved virtual time into
/// windows, never what the simulation computed — so they are allowed
/// to differ across K and lane boundaries while every telemetry
/// dump stays byte-identical. E17 prices the protocol with them, and
/// the regression tests in `tests/lane_windows.rs` pin the two failure
/// shapes they exist to expose: a zero-latency boundary link collapsing
/// windows, and a dense fault plan stalling barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Traffic window rounds executed (one barrier per round).
    pub windows: u64,
    /// Sum over rounds and lanes of each lane's window span in
    /// microseconds (`limit − round start`). Average per lane-window =
    /// `span_us / (lanes_dispatched + lanes_skipped)`.
    pub span_us: u64,
    /// Lane-windows whose lookahead bound collapsed the span to zero —
    /// the signature of a zero/low-latency link crossing a lane
    /// boundary. Correctness survives; speedup does not.
    pub collapsed: u64,
    /// Rounds truncated by a pending coordinator op (fault, sample, or
    /// ledger flush) before the lookahead bound was reached.
    pub barrier_stalls: u64,
    /// Lane-windows actually executed (the lane had an event due
    /// inside its window).
    pub lanes_dispatched: u64,
    /// Lane-windows skipped because nothing was due inside the window —
    /// the batched-dispatch win over running every lane every round.
    pub lanes_skipped: u64,
    /// Coordinator dispatch instants (each may batch several same-time
    /// fault actions into one barrier interruption).
    pub op_batches: u64,
    /// Individual coordinator ops applied across all batches.
    pub ops_applied: u64,
}

impl ShardKind {
    /// Short stable name for tables and JSON dumps.
    pub fn name(self) -> &'static str {
        match self {
            ShardKind::Single => "single",
            ShardKind::Sharded { .. } => "sharded",
            ShardKind::Parallel { .. } => "parallel",
        }
    }

    /// The requested lane count (1 for `Single`).
    pub fn shards(self) -> usize {
        match self {
            ShardKind::Single => 1,
            ShardKind::Sharded { shards } | ShardKind::Parallel { shards } => shards.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_single() {
        assert_eq!(ShardKind::default(), ShardKind::Single);
        assert_eq!(ShardKind::default().shards(), 1);
    }

    #[test]
    fn shard_counts_are_clamped_to_at_least_one() {
        assert_eq!(ShardKind::Sharded { shards: 0 }.shards(), 1);
        assert_eq!(ShardKind::Parallel { shards: 8 }.shards(), 8);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ShardKind::Single.name(), "single");
        assert_eq!(ShardKind::Sharded { shards: 4 }.name(), "sharded");
        assert_eq!(ShardKind::Parallel { shards: 4 }.name(), "parallel");
    }
}
