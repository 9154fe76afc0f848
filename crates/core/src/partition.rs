//! Latency-aware lane partitioning: choose contiguous `NodeId` lane
//! boundaries that maximize the minimum latency of any cut link.
//!
//! The lane machinery requires lanes to be contiguous `NodeId` ranges
//! (the per-node slot vector is carved with `split_at_mut`), so the
//! partitioner does not renumber or permute nodes — it chooses the
//! K−1 *boundary positions*. That is exactly the degree of freedom the
//! conservative window protocol cares about: the per-pair lookahead is
//! bounded below by the cheapest cut link, so a boundary through an
//! Ethernet LAN (100 µs) collapses windows three hundredfold against a
//! boundary through a T1 trunk (30 ms). Builders used to carry this
//! burden by convention ("keep ring sizes a multiple of 16 so cells
//! never straddle a boundary"); the partitioner lifts it.
//!
//! **Objective.** Maximize the minimum `micros` over links cut by any
//! boundary, subject to a load-balance cap: no lane may exceed
//! `ceil(n/k)` plus 25 % slack. The search is a binary search over the
//! distinct link latencies — "can every link cheaper than T be kept
//! lane-internal?" is monotone in T — and each feasibility probe is a
//! small dynamic program over boundary positions (a link `a—b` with
//! `a < b` is cut by a boundary at `p` iff `a < p ≤ b`, so forcing it
//! internal forbids that interval of positions). Among feasible
//! placements the reconstruction picks each boundary nearest its
//! balanced ideal `s·n/k`, so the cut optimum never costs more balance
//! than the slack allows.
//!
//! The choice is advisory for *performance* only: safety never depends
//! on it. The per-pair lookahead matrix is computed **after** the split
//! from the lanes actually chosen, so a poor partition gives narrow
//! windows, never wrong bytes: the partition is digest-neutral by
//! construction (E17 and `tests/shard_equivalence.rs` diff every dump
//! across K on partitioner-placed boundaries).

/// One undirected link, described by the conservative latency a cut
/// through it would impose on the window protocol (base propagation
/// plus the 1 µs serialization floor — see `Network::lane_reach`).
#[derive(Debug, Clone, Copy)]
pub struct CutLink {
    /// One endpoint (node index).
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Conservative one-hop latency in microseconds.
    pub micros: u64,
}

/// A chosen contiguous partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Half-open `(lo, hi)` node ranges, tiling `0..n` in order.
    pub bounds: Vec<(usize, usize)>,
    /// The cheapest link any boundary cuts — the lower bound the
    /// per-pair lookahead matrix will see. `None` when nothing is cut
    /// (k = 1, or the forced-internal set already disconnects lanes).
    pub cut_floor_micros: Option<u64>,
}

/// Maximum lane size for `n` nodes in `k` lanes: the even share plus
/// 25 % slack, so the cut search has room to slide boundaries without
/// starving a lane.
fn max_lane(n: usize, k: usize) -> usize {
    let base = n.div_ceil(k);
    (base + base.div_ceil(4)).min(n)
}

/// Positions `1..n` a boundary may occupy when every link cheaper than
/// `threshold` must stay lane-internal. `allowed[p]` covers a boundary
/// *before* node `p`.
fn allowed_positions(n: usize, links: &[CutLink], threshold: u64) -> Vec<bool> {
    // Difference array over forbidden intervals [a+1, b].
    let mut diff = vec![0i32; n + 1];
    for link in links {
        if link.a == link.b || link.micros >= threshold {
            continue;
        }
        let (a, b) = if link.a < link.b {
            (link.a, link.b)
        } else {
            (link.b, link.a)
        };
        diff[a + 1] += 1;
        diff[(b + 1).min(n)] -= 1;
    }
    let mut allowed = vec![false; n];
    let mut depth = 0i32;
    for (p, slot) in allowed.iter_mut().enumerate() {
        depth += diff[p];
        *slot = p > 0 && depth == 0;
    }
    allowed
}

/// Feasibility DP: `feasible[s][p]` = boundary `s` (1-based, of k−1)
/// can sit at position `p` with all segment sizes in `[1, max]`.
/// Returns one reachable-set row per boundary, or `None` if the last
/// boundary cannot leave a legal final segment.
fn boundary_sets(n: usize, k: usize, max: usize, allowed: &[bool]) -> Option<Vec<Vec<bool>>> {
    let mut rows: Vec<Vec<bool>> = Vec::with_capacity(k - 1);
    let mut prev: Vec<bool> = vec![false; n + 1];
    prev[0] = true; // sentinel "boundary 0" at position 0
    for _ in 1..k {
        let mut row = vec![false; n + 1];
        // Sliding count of reachable predecessors in [p−max, p−1].
        let mut live = 0usize;
        for p in 1..n {
            live += usize::from(prev[p - 1]);
            if p > max {
                live -= usize::from(prev[p - max - 1]);
            }
            row[p] = allowed[p] && live > 0;
        }
        if !row.iter().any(|&b| b) {
            return None;
        }
        rows.push(row);
        prev = rows.last().expect("just pushed").clone();
    }
    // The final segment must also fit.
    let last = rows.last().expect("k > 1");
    if !(n.saturating_sub(max)..n).any(|p| last[p]) {
        return None;
    }
    Some(rows)
}

/// Reconstruct boundary positions from the DP rows, choosing each one
/// nearest to its balanced ideal, back to front.
fn reconstruct(n: usize, k: usize, max: usize, rows: &[Vec<bool>]) -> Vec<usize> {
    let nearest = |row: &[bool], lo: usize, hi: usize, ideal: usize| -> usize {
        let mut best: Option<usize> = None;
        for (p, &ok) in row.iter().enumerate().take(hi + 1).skip(lo) {
            if ok && best.is_none_or(|q: usize| p.abs_diff(ideal) < q.abs_diff(ideal)) {
                best = Some(p);
            }
        }
        best.expect("DP row guaranteed a position in the window")
    };
    let mut positions = vec![0usize; k - 1];
    let mut upper = n; // exclusive successor boundary
    for s in (1..k).rev() {
        let lo = upper.saturating_sub(max).max(1);
        let hi = upper - 1;
        let ideal = s * n / k;
        positions[s - 1] = nearest(&rows[s - 1], lo, hi, ideal);
        upper = positions[s - 1];
    }
    positions
}

/// Choose K contiguous lanes over nodes `0..n`, maximizing the minimum
/// cut-link latency under the balance cap. Deterministic, O(n·k·log L)
/// for L distinct latencies. `k` is clamped to `[1, n]`.
pub fn partition(n: usize, k: usize, links: &[CutLink]) -> Partition {
    let k = k.clamp(1, n.max(1));
    if k <= 1 || n == 0 {
        return Partition {
            bounds: vec![(0, n)],
            cut_floor_micros: None,
        };
    }
    let max = max_lane(n, k);
    let mut lats: Vec<u64> = links
        .iter()
        .filter(|l| l.a != l.b)
        .map(|l| l.micros)
        .collect();
    lats.sort_unstable();
    lats.dedup();
    // Binary search the largest feasible threshold index. Index i > 0
    // means "every link with latency ≤ lats[i−1] forced internal"
    // (i = len forces every link); index 0 forces nothing and is always
    // feasible because equal chunks fit under `max`. Feasibility is
    // monotone — raising the threshold only removes allowed positions.
    let feasible = |idx: usize| -> Option<Vec<Vec<bool>>> {
        let threshold = if idx == 0 { 0 } else { lats[idx - 1].saturating_add(1) };
        let allowed = allowed_positions(n, links, threshold);
        boundary_sets(n, k, max, &allowed)
    };
    let mut best = feasible(0).expect("unconstrained placement always feasible");
    let (mut lo, mut hi) = (0usize, lats.len());
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        match feasible(mid) {
            Some(rows) => {
                best = rows;
                lo = mid;
            }
            None => hi = mid - 1,
        }
    }
    let positions = reconstruct(n, k, max, &best);
    let mut bounds = Vec::with_capacity(k);
    let mut start = 0usize;
    for &p in &positions {
        bounds.push((start, p));
        start = p;
    }
    bounds.push((start, n));
    let cut_floor_micros = links
        .iter()
        .filter(|l| l.a != l.b)
        .filter(|l| {
            let (a, b) = if l.a < l.b { (l.a, l.b) } else { (l.b, l.a) };
            positions.iter().any(|&p| a < p && p <= b)
        })
        .map(|l| l.micros)
        .min();
    Partition {
        bounds,
        cut_floor_micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(p: &Partition) -> Vec<usize> {
        p.bounds.iter().map(|&(lo, hi)| hi - lo).collect()
    }

    #[test]
    fn one_lane_is_the_whole_range() {
        let p = partition(10, 1, &[]);
        assert_eq!(p.bounds, vec![(0, 10)]);
        assert_eq!(p.cut_floor_micros, None);
    }

    #[test]
    fn no_links_gives_balanced_chunks() {
        let p = partition(16, 4, &[]);
        assert_eq!(p.bounds, vec![(0, 4), (4, 8), (8, 12), (12, 16)]);
    }

    #[test]
    fn k_clamps_to_node_count() {
        let p = partition(3, 8, &[]);
        assert_eq!(p.bounds.len(), 3);
        assert!(sizes(&p).iter().all(|&s| s == 1));
    }

    #[test]
    fn cheap_links_are_kept_internal() {
        // Chain 0—1—…—7 where links (2,3) and (5,6) are slow trunks and
        // the rest are LANs. A 2-way split must cut a trunk, not a LAN;
        // only the (2,3) cut also fits the balance cap (max lane 5), so
        // the boundary is forced to position 3.
        let mut links: Vec<CutLink> = (0..7)
            .map(|i| CutLink {
                a: i,
                b: i + 1,
                micros: 100,
            })
            .collect();
        links[2].micros = 30_000;
        links[5].micros = 30_000;
        let p = partition(8, 2, &links);
        assert_eq!(p.cut_floor_micros, Some(30_000));
        assert_eq!(p.bounds, vec![(0, 3), (3, 8)]);
    }

    #[test]
    fn interleaved_cells_snap_to_cell_edges() {
        // The E17 shape: cells (g, src, g, dst) with intra-cell LANs,
        // ring trunks between consecutive gateways. A misaligned node
        // count must still yield trunk-only cuts.
        let cells = 9; // 36 nodes, 36/4 per lane is misaligned for k=4? 9 per lane, odd.
        let n = cells * 4;
        let mut links = Vec::new();
        for c in 0..cells {
            let base = 4 * c;
            links.push(CutLink {
                a: base,
                b: base + 1,
                micros: 101,
            });
            links.push(CutLink {
                a: base + 2,
                b: base + 3,
                micros: 101,
            });
            links.push(CutLink {
                a: base,
                b: base + 2,
                micros: 30_001,
            });
            if c + 1 < cells {
                links.push(CutLink {
                    a: base + 2,
                    b: base + 4,
                    micros: 30_001,
                });
            }
        }
        links.push(CutLink {
            a: 0,
            b: 4 * (cells - 1) + 2,
            micros: 30_001,
        });
        let p = partition(n, 4, &links);
        assert_eq!(
            p.cut_floor_micros,
            Some(30_001),
            "every cut is a trunk: {:?}",
            p.bounds
        );
        let max = max_lane(n, 4);
        assert!(sizes(&p).iter().all(|&s| s >= 1 && s <= max), "{:?}", p.bounds);
    }

    #[test]
    fn balance_cap_beats_a_perfect_cut() {
        // One expensive link near the edge: cutting only there would
        // starve the other lane beyond the 25 % slack, so the
        // partitioner must accept a cheaper cut.
        let mut links: Vec<CutLink> = (0..15)
            .map(|i| CutLink {
                a: i,
                b: i + 1,
                micros: 10,
            })
            .collect();
        links[0].micros = 1_000_000; // boundary at p=1 → lane sizes 1/15
        let p = partition(16, 2, &links);
        let max = max_lane(16, 2);
        assert!(sizes(&p).iter().all(|&s| s <= max), "{:?}", p.bounds);
        assert_eq!(p.cut_floor_micros, Some(10));
    }

    #[test]
    fn disconnected_islands_cut_nothing() {
        // Two 4-node cliques with no inter-island link: a 2-way split
        // can keep every link internal.
        let mut links = Vec::new();
        for base in [0usize, 4] {
            for i in base..base + 3 {
                links.push(CutLink {
                    a: i,
                    b: i + 1,
                    micros: 5,
                });
            }
        }
        let p = partition(8, 2, &links);
        assert_eq!(p.bounds, vec![(0, 4), (4, 8)]);
        assert_eq!(p.cut_floor_micros, None);
    }

    #[test]
    fn bounds_always_tile_the_range() {
        for n in [1usize, 2, 7, 33, 64] {
            for k in [1usize, 2, 3, 4, 8] {
                let links: Vec<CutLink> = (0..n.saturating_sub(1))
                    .map(|i| CutLink {
                        a: i,
                        b: i + 1,
                        micros: (i as u64 % 5) * 100,
                    })
                    .collect();
                let p = partition(n, k, &links);
                assert_eq!(p.bounds.first().map(|b| b.0), Some(0));
                assert_eq!(p.bounds.last().map(|b| b.1), Some(n));
                for w in p.bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                    assert!(w[0].1 > w[0].0);
                }
            }
        }
    }
}
