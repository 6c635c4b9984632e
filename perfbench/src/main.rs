//! DART benchmark: end-to-end metrics through the top-level simulator
//! API, and per-layer metrics from a traced replica of its flow loop.
//!
//! ```text
//! dta-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric by name and unit, then one JSON line
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones.
//! `perfbench/README.md` defines every metric and its base.

mod replica;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use dta_core::query::QueryOutcome;
use dta_obs::Obs;
use dta_rdma::nic::DropReason;
use dta_topology::sim::{FatTreeSim, SimConfig, SimReport};
use dta_wire::FiveTuple;

use replica::{Layer, Profile, Replica};
use stats::{ratio, result_json, Metric};
use workload::{drive, Run, Spec, Target};

/// The end-to-end target: a `FatTreeSim`, called only through
/// `run_flow`, `try_query_flow` and `query_all`.
struct Plain(FatTreeSim);

impl Target for Plain {
    type Acc = ();

    fn run_flow(&mut self) -> Result<FiveTuple, String> {
        self.0.run_flow().map_err(|e| e.to_string())
    }

    fn query(&mut self, tuple: &FiveTuple) -> Result<QueryOutcome, String> {
        self.0.try_query_flow(tuple).map_err(|e| e.to_string())
    }

    fn close(&mut self, _: &mut ()) -> SimReport {
        self.0.query_all(1)
    }
}

/// The traced target: an untraced `FatTreeSim` and the traced replica
/// run the same flows in lockstep. The simulator gives the untraced
/// flow rate and the reference outcomes; queries go to the replica.
struct Lockstep {
    sim: FatTreeSim,
    replica: Replica,
    untraced_ns: u64,
    fault_free: bool,
}

#[derive(Default)]
struct TraceAcc {
    profile: Profile,
    untraced_ns: u64,
    slots_copied: u64,
    slots_aborted: u64,
    batches: u64,
    /// `|correct(sim) − correct(replica)|`, summed over lifetimes.
    correct_abs_diff: u64,
    mismatches: Vec<String>,
}

impl Target for Lockstep {
    type Acc = TraceAcc;

    fn run_flow(&mut self) -> Result<FiveTuple, String> {
        let start = Instant::now();
        let expected = self.sim.run_flow().map_err(|e| e.to_string())?;
        self.untraced_ns += start.elapsed().as_nanos() as u64;
        let tuple = self.replica.run_flow()?;
        if tuple != expected {
            return Err(format!(
                "replica flow {tuple:?} != simulator flow {expected:?}"
            ));
        }
        Ok(tuple)
    }

    fn query(&mut self, tuple: &FiveTuple) -> Result<QueryOutcome, String> {
        self.replica.query(tuple).map_err(|e| e.to_string())
    }

    fn close(&mut self, acc: &mut TraceAcc) -> SimReport {
        let report = self.sim.query_all(1);
        let mine = self.replica.classify_all();
        let classes = |r: &SimReport| (r.correct, r.empty, r.error, r.unreachable);
        if self.fault_free
            && (classes(&report) != classes(&mine) || report.nic_writes != mine.nic_writes)
        {
            acc.mismatches.push(format!(
                "replica (correct, empty, error, unreachable) = {:?} with {} writes; simulator {:?} with {} writes",
                classes(&mine),
                mine.nic_writes,
                classes(&report),
                report.nic_writes
            ));
        }
        acc.correct_abs_diff += report.correct.abs_diff(mine.correct);
        acc.profile.merge(&self.replica.profile);
        acc.untraced_ns += self.untraced_ns;
        let rerepl = self.replica.rerepl_stats();
        acc.slots_copied += rerepl.slots_copied;
        acc.slots_aborted += rerepl.writebacks_aborted;
        acc.batches += rerepl.batches;
        report
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Checks every run makes; returns the failures.
fn outcome_checks<A>(spec: &Spec, run: &Run<A>) -> Vec<String> {
    let t = &run.tally;
    let mut failures = run.problems.clone();
    let classified = t.correct + t.empty + t.error + t.unreachable;
    if classified != t.reported {
        failures.push(format!(
            "classes cover {classified} keys, {} were reported",
            t.reported
        ));
    }
    if t.absent_answered > 0 {
        failures.push(format!(
            "{} of {} never-inserted keys were answered",
            t.absent_answered, t.absent_queried
        ));
    }
    if t.unreachable > 0 {
        failures.push(format!(
            "{} keys unreachable after the run settled",
            t.unreachable
        ));
    }
    if !spec.fault_free() && (t.error > 0 || t.wrong_answers > 0) {
        failures.push(format!(
            "{} wrong answers at the end and {} during the run under faults (must be 0)",
            t.error, t.wrong_answers
        ));
    }
    if spec.has_theory() {
        let observed = ratio(t.correct as f64, t.reported as f64);
        let theory =
            dta_analysis::average_query_success(t.final_alpha, u32::from(spec.config.copies));
        println!("# theory check: correct {observed:.4} vs average_query_success({:.3}, {}) = {theory:.4}", t.final_alpha, spec.config.copies);
        if (observed - theory).abs() >= 0.05 {
            failures.push(format!(
                "correct ratio {observed:.4} strays from theory {theory:.4} at α={}",
                t.final_alpha
            ));
        }
    }
    failures
}

fn end_to_end(spec: &Spec, args: &Args) -> (Vec<Metric>, u64, u64, Vec<String>) {
    let run = drive(
        spec,
        args.seed,
        args.seconds,
        spec.setup_reps,
        |config, obs| {
            Plain(FatTreeSim::new_with_obs(config, obs).expect("workload configs are valid"))
        },
    );
    let t = &run.tally;
    // Outcome ratios are over the reported keys of the final passes;
    // answers to never-inserted keys count as errors on top.
    let base = t.reported as f64;
    let metrics = vec![
        Metric::new("setup_s", run.setup_median(), "s"),
        Metric::new("ingest_flows_per_s", run.ingest.per_second(), "1/s"),
        Metric::new("ingest_flow_p50_us", run.ingest.p50_ns() / 1e3, "us"),
        Metric::new("ingest_flow_p99_us", run.ingest.p99_ns() / 1e3, "us"),
        Metric::new("query_keys_per_s", run.query.per_second(), "1/s"),
        Metric::new("query_p50_ns", run.query.p50_ns(), "ns"),
        Metric::new("query_p99_ns", run.query.p99_ns(), "ns"),
        Metric::new(
            "query_correct_ratio",
            ratio(t.correct as f64, base),
            "ratio",
        ),
        Metric::new("query_empty_ratio", ratio(t.empty as f64, base), "ratio"),
        Metric::new(
            "query_error_ratio",
            ratio((t.error + t.absent_answered) as f64, base),
            "ratio",
        ),
        Metric::new(
            "ops_failed_ratio",
            ratio(run.failed as f64, run.attempted as f64),
            "ratio",
        ),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MB"),
    ];
    let (ingest_segments, ingest_fewest) = run.ingest.segments();
    let (query_segments, query_fewest) = run.query.segments();
    println!(
        "# {}: set-ups {:?} s; {} flows, {} queries ({} never-inserted); timings are slow deciles over {} and {} half-second segments of at least {} and {} calls; {} simulator lifetimes, final α {:.4}; {} keys classified: {} correct, {} empty, {} error, {} unreachable",
        spec.name,
        run.setup_s,
        run.ingest.calls(),
        run.query.calls(),
        t.absent_queried,
        ingest_segments,
        query_segments,
        ingest_fewest,
        query_fewest,
        t.epochs,
        t.final_alpha,
        t.reported,
        t.correct,
        t.empty,
        t.error,
        t.unreachable
    );
    let failures = outcome_checks(spec, &run);
    (metrics, run.attempted, run.failed, failures)
}

fn traced(spec: &Spec, args: &Args) -> (Vec<Metric>, u64, u64, Vec<String>) {
    let fault_free = spec.fault_free();
    let run = drive(
        spec,
        args.seed,
        args.seconds,
        1,
        |config: SimConfig, obs: Obs| {
            // Each side gets its own registry; they must not share counters.
            let replica_obs = if obs.is_enabled() {
                Obs::new()
            } else {
                Obs::noop()
            };
            Lockstep {
                sim: FatTreeSim::new_with_obs(config.clone(), obs)
                    .expect("workload configs are valid"),
                replica: Replica::new(config, replica_obs)
                    .expect("workload configs are replicable"),
                untraced_ns: 0,
                fault_free,
            }
        },
    );
    let acc = &run.acc;
    let p = &acc.profile;
    let epochs = run.tally.epochs as f64;
    let per_epoch = |n: u64| ratio(n as f64, epochs);
    let per = |layer: Layer, n: u64| ratio(p.span(layer) as f64, n as f64);
    let append = matches!(
        spec.config.primitive,
        dta_core::PrimitiveSpec::Append { .. }
    );
    let coverage = ratio(p.flow_ns.saturating_sub(p.glue_ns) as f64, p.flow_ns as f64);

    let mut metrics = vec![
        Metric::new(
            "topology.flowgen.ns_per_flow",
            per(Layer::Flowgen, p.flows),
            "ns",
        ),
        Metric::new(
            "topology.fattree.ns_per_route",
            per(Layer::Fattree, p.flows),
            "ns",
        ),
        Metric::new(
            "switch.int_transit.ns_per_hop",
            per(Layer::IntTransit, p.hops),
            "ns",
        ),
        Metric::new(
            "switch.egress.ns_per_report",
            per(Layer::Egress, p.reports),
            "ns",
        ),
        Metric::new(
            "switch.egress.ns_per_append",
            per(Layer::Egress, p.appends),
            "ns",
        ),
        Metric::new(
            "wire.icrc.ns_per_frame",
            ratio(p.icrc_at_nic_ns as f64, p.frames_at_nic as f64),
            "ns",
        ),
        Metric::new(
            "rdma.link.ns_per_frame",
            per(Layer::Link, p.frames_sent),
            "ns",
        ),
        Metric::new(
            "rdma.link.frames_dropped",
            per_epoch(p.frames_dropped),
            "count/epoch",
        ),
        Metric::new(
            "rdma.nic.ns_per_frame",
            per(Layer::Nic, p.frames_delivered),
            "ns",
        ),
        Metric::new(
            "rdma.nic.fresh_write_ratio",
            ratio(p.fresh_writes as f64, p.frames_delivered as f64),
            "ratio",
        ),
    ];
    for (reason, &n) in DropReason::ALL.iter().zip(&p.drops) {
        metrics.push(Metric::new(
            format!("rdma.nic.drops.{}", reason.name()),
            per_epoch(n),
            "count/epoch",
        ));
    }
    metrics.extend([
        Metric::new(
            "switch.control_plane.ns_per_tick",
            per(Layer::ControlPlane, p.ticks),
            "ns",
        ),
        Metric::new(
            "switch.control_plane.probes",
            per_epoch(p.probes),
            "count/epoch",
        ),
        Metric::new(
            "switch.control_plane.liveness_flips",
            per_epoch(p.liveness_flips),
            "count/epoch",
        ),
        Metric::new(
            "collector.rerepl.ns_per_tick",
            per(Layer::Rerepl, p.ticks),
            "ns",
        ),
        Metric::new(
            "collector.rerepl.slots_copied",
            per_epoch(acc.slots_copied),
            "count/epoch",
        ),
        Metric::new(
            "collector.rerepl.slots_aborted",
            per_epoch(acc.slots_aborted),
            "count/epoch",
        ),
        Metric::new(
            "collector.rerepl.batches",
            per_epoch(acc.batches),
            "count/epoch",
        ),
        Metric::new(
            "collector.cluster.ns_per_query",
            per(Layer::Cluster, p.queries),
            "ns",
        ),
        Metric::new(
            "core.store.ns_per_query",
            if append {
                0.0
            } else {
                per(Layer::Store, p.store_queries)
            },
            "ns",
        ),
        Metric::new(
            "core.store.ns_per_window_read",
            per(Layer::Store, p.window_reads),
            "ns",
        ),
        Metric::new(
            "core.store.checksum_match_ratio",
            ratio(p.probes_matched as f64, p.probes_examined as f64),
            "ratio",
        ),
    ]);
    for layer in Layer::ALL {
        metrics.push(Metric::new(
            format!("{}.self_share", layer.name()),
            ratio(p.self_ns(layer) as f64, p.total_ns() as f64),
            "ratio",
        ));
    }
    metrics.extend([
        Metric::new("traced.self_coverage", coverage, "ratio"),
        Metric::new(
            "traced.overhead_ratio",
            ratio(p.flow_ns as f64, acc.untraced_ns as f64),
            "ratio",
        ),
        Metric::new(
            "replica.correct_abs_diff",
            per_epoch(acc.correct_abs_diff),
            "count/epoch",
        ),
    ]);
    println!(
        "# {} traced: {} flows, {} queries, {} simulator lifetimes; replica vs simulator |Δcorrect| = {} in total",
        spec.name, p.flows, p.queries, run.tally.epochs, acc.correct_abs_diff
    );

    let mut failures = outcome_checks(spec, &run);
    failures.extend(acc.mismatches.iter().cloned());
    if coverage < 0.9 {
        failures.push(format!(
            "layer self times cover {coverage:.3} of traced flow time (need 0.9)"
        ));
    }
    (metrics, run.attempted, run.failed, failures)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (known: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let (metrics, attempted, failed, mut failures) = if args.trace {
        traced(&spec, &args)
    } else {
        end_to_end(&spec, &args)
    };
    for m in &metrics {
        println!("{:<42} {:>16.4} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            failures.push(format!("{} is not finite", m.name));
        }
    }
    for failure in &failures {
        eprintln!("check failed: {failure}");
    }
    println!(
        "{}",
        result_json(failures.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
