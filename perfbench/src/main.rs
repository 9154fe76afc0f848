//! The catenet benchmark: seeded workloads run through the public
//! `Network` API, timed from outside.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload torus-rip --seed 1 --seconds 55 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and reports the
//! end-to-end metrics over the repetitions; `--trace 1` makes
//! the traced run and reports the per-layer metrics. Both print a table
//! and then, as the last line, one JSON object. Every run is checked
//! against the outputs pinned for its seed; on a mismatch the JSON says
//! `"correct": false` and the exit code is 1. See `NOTES.md`.
//!
//! Two further modes serve maintenance: `--pin FIRST..LAST` prints
//! `pins.txt` lines for a seed range, and `--probe guarded-torus`
//! reproduces the guard defect recorded in `NOTES.md`.

mod gate;
mod procfs;
mod trace;
mod workload;

use gate::{fnv64, Gate, Outcome};
use procfs::CpuClock;
use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};
use trace::Capture;
use workload::{Built, Workload};

use catenet_core::ShardKind;
use catenet_routing::{GuardPolicy, RipMessage};

/// Fewest repetitions a measured run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One run of a workload: build, simulate, report.
struct Run {
    built: Built,
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    report_s: f64,
    outcome: Outcome,
    dump_bytes: u64,
    attempted: u64,
    failed: u64,
}

/// Build and run `workload` once. With a capture, the scheduler trace is
/// armed and the tap installed (the traced run).
fn run_once(
    workload: Workload,
    seed: u64,
    shard: ShardKind,
    cpu: &CpuClock,
    capture: Option<&Rc<RefCell<Capture>>>,
) -> Run {
    let t = Instant::now();
    let mut built = workload::build(workload, seed, shard, capture.is_some());
    let setup_s = t.elapsed().as_secs_f64();
    if let Some(capture) = capture {
        let capture = Rc::clone(capture);
        built.net.set_tap(Box::new(move |_, frame| {
            capture.borrow_mut().observe(frame)
        }));
    }

    let cpu0 = cpu.now_s();
    let t = Instant::now();
    built.net.run_for(workload.virtual_time());
    let run_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu.now_s() - cpu0;

    let t = Instant::now();
    let dumps = [
        built.net.metrics_dump(),
        built.net.series_dump(),
        built.net.flight_dump(),
    ];
    let digests = [fnv64(&dumps[0]), fnv64(&dumps[1]), fnv64(&dumps[2])];
    let report_s = t.elapsed().as_secs_f64();

    let dump_bytes = dumps.iter().map(|d| d.len() as u64).sum();
    let attempted = built.flows.len() as u64;
    let completed = built.flows.iter().filter(|f| f.succeeded()).count() as u64;
    let net = &built.net;
    let outcome = Outcome {
        events: net.sched_stats().processed,
        forwarded: built
            .gateways
            .iter()
            .map(|&g| net.node(g).stats.ip_forwarded)
            .sum(),
        completed,
        digests,
    };
    Run {
        setup_s,
        run_s,
        cpu_s,
        report_s,
        outcome,
        dump_bytes,
        attempted,
        failed: attempted - completed,
        built,
    }
}

/// A metric as reported: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one invocation reports.
struct Report {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    metrics: Vec<Metric>,
}

/// Tallies flows and gate verdicts across the runs of one invocation.
struct Tally {
    gate: Gate,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Tally {
    fn new(workload: Workload, seed: u64) -> Tally {
        Tally {
            gate: Gate::new(workload, seed),
            attempted: 0,
            failed: 0,
            mismatches: 0,
        }
    }

    /// Count a run's flows and gate it. A run whose deterministic
    /// outputs miss the reference counts every one of its flows failed.
    fn record(&mut self, what: &str, run: &Run) {
        self.attempted += run.attempted;
        match self.gate.check(&run.outcome) {
            Ok(()) => self.failed += run.failed,
            Err(mismatch) => {
                eprintln!("correctness gate: {what}: {mismatch}");
                self.failed += run.attempted;
                self.mismatches += 1;
            }
        }
    }

    fn report(self, metrics: Vec<Metric>) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            mismatches: self.mismatches,
            metrics,
        }
    }
}

/// The untraced run: repeat the workload for `seconds` (at least
/// [`MIN_REPS`] times; no repetition starts that would likely end past
/// `seconds`). Set-up time is the median over the repetitions; run,
/// CPU and report time are the minimum. Every repetition does the same
/// deterministic work, so a slower one was slowed by the host, not by
/// the program, and on a shared host such slowdowns come in bursts of
/// up to +60 % that a median of a few repetitions does not outvote
/// (see `NOTES.md`).
fn measure(workload: Workload, seed: u64, seconds: f64) -> Report {
    let cpu = CpuClock::new();
    let mut tally = Tally::new(workload, seed);
    let mut times: [Vec<f64>; 4] = Default::default();
    let start = Instant::now();
    loop {
        let reps = times[0].len();
        let elapsed = start.elapsed().as_secs_f64();
        if reps >= MIN_REPS && elapsed * (reps + 1) as f64 / reps as f64 > seconds {
            break;
        }
        let run = run_once(workload, seed, workload.shard(), &cpu, None);
        let rep = times[0].len() + 1;
        tally.record(&format!("repetition {rep}"), &run);
        println!(
            "  repetition {rep:>2}: setup {:.4} s, run {:.4} s, cpu {:.3} s, report {:.4} s",
            run.setup_s, run.run_s, run.cpu_s, run.report_s
        );
        for (series, value) in
            times
                .iter_mut()
                .zip([run.setup_s, run.run_s, run.cpu_s, run.report_s])
        {
            series.push(value);
        }
    }
    println!(
        "{} seed {seed}: {} repetitions in {:.1} s ({} reference)",
        workload.name(),
        times[0].len(),
        start.elapsed().as_secs_f64(),
        if tally.gate.is_pinned() {
            "pinned"
        } else {
            "first-run"
        }
    );
    let [setup, run, cpu_t, report] = &mut times;
    for (name, series) in [
        ("run_s", &mut *run),
        ("cpu_s", &mut *cpu_t),
        ("report_s", &mut *report),
    ] {
        let max = series.iter().copied().fold(f64::MIN, f64::max);
        println!(
            "  {name}: median {:.6}, max {max:.6} over the repetitions",
            median(series)
        );
    }
    let min = |series: &[f64]| series.iter().copied().fold(f64::MAX, f64::min);
    let metrics = vec![
        ("setup_s", median(setup), "s"),
        ("run_s", min(run), "s"),
        ("cpu_s", min(cpu_t), "s"),
        ("report_s", min(report), "s"),
        ("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
    ];
    tally.report(metrics)
}

/// Sum of every drop counter a node keeps.
fn drops(stats: &catenet_core::NodeStats) -> u64 {
    stats.dropped_malformed
        + stats.dropped_no_route
        + stats.dropped_ttl
        + stats.dropped_dead
        + stats.dropped_df
        + stats.dropped_no_circuit
        + stats.dropped_transport_checksum
        + stats.dropped_payload_crc
        + stats.dropped_arp_unresolved
        + stats.dropped_arp_gave_up
        + stats.dropped_bad_iface
        + stats.dropped_byzantine
}

/// The traced run. A first untraced run at the workload's own shard
/// count supplies the lane counters and warms the allocator. An
/// untraced single-lane run follows; it is the base the traced run is
/// compared with, and the first run's CPU minus its own is the lane
/// overhead (for a single-lane workload, the noise floor of that
/// difference: both runs are single-lane). The traced run itself is
/// single-lane, because a scheduler op trace is one replayable stream
/// only there; its dumps must equal the untraced runs'. The replays
/// then spend what is left of `seconds`.
fn traced(workload: Workload, seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let cpu = CpuClock::new();
    let mut tally = Tally::new(workload, seed);

    let plain = run_once(workload, seed, workload.shard(), &cpu, None);
    tally.record("untraced run", &plain);
    let lanes = plain.built.net.shard_stats();
    let plain_cpu_s = plain.cpu_s;
    drop(plain);
    let base = run_once(workload, seed, ShardKind::Single, &cpu, None);
    tally.record("untraced single-lane run", &base);
    let base_run_s = base.run_s;
    let lane_overhead_cpu_s = plain_cpu_s - base.cpu_s;
    drop(base);

    let capture = Rc::new(RefCell::new(Capture::default()));
    let mut run = run_once(workload, seed, ShardKind::Single, &cpu, Some(&capture));
    tally.record("traced run (tap + scheduler trace)", &run);
    let sched_trace = run.built.net.take_sched_trace();
    let capture = capture.take();
    let Built {
        net,
        gateways,
        dests,
        flows,
    } = &run.built;

    let sched = net.sched_stats();
    let gw = |f: &dyn Fn(&catenet_core::Node) -> u64| -> u64 {
        gateways.iter().map(|&g| f(net.node(g))).sum()
    };
    let forwarded = run.outcome.forwarded;
    let all_nodes = |f: &dyn Fn(&catenet_core::Node) -> u64| -> u64 {
        (0..net.node_count()).map(|n| f(net.node(n))).sum()
    };
    let rip_messages = gw(&|n| n.dv.as_ref().map_or(0, |d| d.updates_received));
    let routes_per_table = gw(&|n| n.dv.as_ref().map_or(0, |d| d.routes().count() as u64)) as f64
        / gateways.len() as f64;
    let pool = net.pool().stats();
    let per_forward = |x: u64| {
        if forwarded == 0 {
            0.0
        } else {
            x as f64 / forwarded as f64
        }
    };
    let bulk: Vec<_> = flows
        .iter()
        .filter_map(|f| match f {
            workload::Flow::Bulk(r) => Some(r.lock().expect("sender poisoned").clone()),
            workload::Flow::Cbr(_) => None,
        })
        .collect();

    // Replays share what is left of the run's time.
    let left = (seconds - start.elapsed().as_secs_f64()).max(0.0);
    let budget = Duration::from_secs_f64(left / 5.0);
    let replay_s = trace::sched_replay_s(&sched_trace);
    drop(sched_trace);
    let route_ns = trace::route_ns(net, gateways, dests, budget);
    let decode_ns = trace::decode_ns(&capture.sample, budget);
    let rip_decode_ns = trace::rip_decode_ns(&capture.rip_sample, budget);
    let update_ns = trace::update_ns_per_entry(net, gateways, budget * 2);

    let avg_span_us = {
        let lane_windows = lanes.lanes_dispatched + lanes.lanes_skipped;
        if lane_windows == 0 {
            0.0
        } else {
            lanes.span_us as f64 / lane_windows as f64
        }
    };
    let rip_s =
        (rip_decode_ns * rip_messages as f64 + update_ns * capture.rip_entries as f64) * 1e-9;
    let fwd_s = (route_ns * forwarded as f64 + decode_ns * capture.frames as f64) * 1e-9;
    let attributed_s = replay_s + fwd_s + rip_s;
    let n = |x: u64| x as f64;
    let metrics = vec![
        ("sched.events", n(sched.processed), "count"),
        (
            "sched.overflow_inserts",
            n(sched.wheel.overflow_inserts),
            "count",
        ),
        ("sched.replay_s", replay_s, "s"),
        ("lane.windows", n(lanes.windows), "count"),
        ("lane.avg_span_us", avg_span_us, "us_virtual"),
        ("lane.collapsed", n(lanes.collapsed), "count"),
        ("lane.barrier_stalls", n(lanes.barrier_stalls), "count"),
        ("lane.lanes_skipped", n(lanes.lanes_skipped), "count"),
        ("lane.ops_applied", n(lanes.ops_applied), "count"),
        ("lane.overhead_cpu_s", lane_overhead_cpu_s, "s"),
        ("fwd.forwarded", n(forwarded), "count"),
        ("fwd.frames", n(net.frames_offered), "count"),
        ("fwd.drops", n(all_nodes(&|n| drops(&n.stats))), "count"),
        (
            "fwd.arp_retries",
            n(all_nodes(&|n| n.stats.arp_retries)),
            "count",
        ),
        ("fwd.routes_per_table", routes_per_table, "count"),
        ("fwd.route_ns", route_ns, "ns"),
        ("fwd.decode_ns", decode_ns, "ns"),
        ("pool.fresh_allocs", n(pool.fresh_allocs), "count"),
        (
            "pool.allocs_per_forward",
            per_forward(pool.fresh_allocs),
            "count",
        ),
        (
            "pool.bytes_copied_per_forward",
            per_forward(pool.bytes_copied),
            "B",
        ),
        ("rip.messages", n(rip_messages), "count"),
        ("rip.entries", n(capture.rip_entries), "count"),
        (
            "rip.route_changes",
            n(gw(&|n| n.dv.as_ref().map_or(0, |d| d.changes_applied))),
            "count",
        ),
        ("rip.decode_ns", rip_decode_ns, "ns"),
        ("rip.update_ns_per_entry", update_ns, "ns"),
        ("rip.share", rip_s / base_run_s, "ratio"),
        (
            "tcp.flows_completed",
            n(bulk.iter().filter(|r| r.completed_at.is_some()).count() as u64),
            "count",
        ),
        (
            "tcp.bytes_acked",
            n(bulk.iter().map(|r| r.bytes_acked).sum()),
            "B",
        ),
        (
            "tcp.retransmits",
            n(bulk.iter().map(|r| r.retransmits).sum()),
            "count",
        ),
        ("telemetry.dump_bytes", n(run.dump_bytes), "B"),
        (
            "telemetry.series_rows",
            n(net.telemetry().sampler.rows().len() as u64),
            "count",
        ),
        (
            "trace.unattributed_share",
            1.0 - attributed_s / base_run_s,
            "ratio",
        ),
        ("trace.overhead_s", run.run_s - base_run_s, "s"),
    ];
    println!(
        "{} seed {seed}: traced run in {:.1} s ({} reference)",
        workload.name(),
        start.elapsed().as_secs_f64(),
        if tally.gate.is_pinned() {
            "pinned"
        } else {
            "first-run"
        }
    );
    println!(
        "  routing: {routes_per_table:.1} routes/table, route {route_ns:.1} ns | \
         rip: {} entries, {update_ns:.1} ns/entry update, {:.1}% of run",
        capture.rip_entries,
        100.0 * rip_s / base_run_s
    );
    if let Some(last) = bulk.iter().filter_map(|r| r.completed_at).max() {
        println!(
            "  tcp: last of {} transfers completed at t={last}",
            bulk.len()
        );
    }
    tally.report(metrics)
}

/// Print `--pin` lines for `seeds` of `workloads`. A seed whose flows
/// fail is pinned all the same, with a warning: the pin records what the
/// program does, and the gate still counts those flows failed.
fn pin(workloads: &[Workload], seeds: std::ops::RangeInclusive<u64>) -> ExitCode {
    let cpu = CpuClock::new();
    println!("# Pinned deterministic outputs per (workload, seed), written by --pin.");
    println!("# workload seed events forwarded completed metrics-fnv64 series-fnv64 flight-fnv64");
    for &workload in workloads {
        for seed in seeds.clone() {
            let run = run_once(workload, seed, workload.shard(), &cpu, None);
            if run.failed > 0 {
                eprintln!(
                    "warning: {} seed {seed}: {} flows failed",
                    workload.name(),
                    run.failed
                );
            }
            println!("{}", run.outcome.pin_line(workload, seed));
        }
    }
    ExitCode::SUCCESS
}

/// The guard defect of `NOTES.md`: attested, boot-armed guards on the
/// torus. Prints how many attested pages one full advertisement takes,
/// then quarantined adjacencies and how many host addresses gateway 0
/// can route, at the end of the boot window and after it.
fn probe_guarded_torus(seed: u64) -> ExitCode {
    let Built {
        mut net,
        gateways,
        dests,
        ..
    } = workload::build_guarded_torus(seed);
    let policy = GuardPolicy::attested();
    for t in [30u64, 45, 60] {
        net.run_until(catenet_sim::Instant::from_secs(t));
        let now = net.now();
        let quarantined: usize = gateways
            .iter()
            .map(|&g| {
                net.node(g)
                    .dv
                    .as_ref()
                    .map_or(0, |d| d.guard().quarantined_count(now))
            })
            .sum();
        let g0 = net.node(gateways[0]);
        if t == 30 {
            let dv = g0.dv.as_ref().expect("gateways run RIP");
            let pages =
                RipMessage::paginate(dv.advertisement_for(0, &g0.dv_policies[0], true)).len();
            println!(
                "a full advertisement of {} routes takes {pages} attested pages; \
                 the guard admits {} messages per {} per neighbor",
                dv.routes().count(),
                policy.rate_limit,
                policy.rate_window
            );
        }
        let routed = dests.iter().filter(|&&d| g0.route(d).is_some()).count();
        println!(
            "t={t}s: {quarantined} of {} adjacencies quarantined; g0 routes {routed} of {} hosts",
            4 * gateways.len(),
            dests.len()
        );
    }
    ExitCode::SUCCESS
}

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: Option<std::ops::RangeInclusive<u64>>,
    probe: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        pin: None,
        probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload {name:?} (known: ring-udp, torus-rip, ring-tcp-k2)"
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--pin" => {
                let range = value()?;
                let (a, b) = range.split_once("..").ok_or("--pin takes FIRST..LAST")?;
                let parse = |s: &str| s.parse::<u64>().map_err(|e| format!("--pin: {e}"));
                args.pin = Some(parse(a)?..=parse(b)?);
            }
            "--probe" => args.probe = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(probe) = args.probe {
        return match probe.as_str() {
            "guarded-torus" => probe_guarded_torus(args.seed),
            other => {
                eprintln!("perfbench: unknown probe {other:?} (known: guarded-torus)");
                ExitCode::from(2)
            }
        };
    }
    if let Some(seeds) = args.pin {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        return pin(&workloads, seeds);
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let report = if args.trace {
        traced(workload, args.seed, args.seconds)
    } else {
        measure(workload, args.seed, args.seconds)
    };
    for (name, value, unit) in &report.metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    println!(
        "  {:<30} {:>9}/{} flows",
        "ops_failed", report.failed, report.attempted
    );
    let correct = report.failed == 0 && report.mismatches == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not a number: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
