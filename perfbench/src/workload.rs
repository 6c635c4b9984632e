//! The four workloads and the closed-loop driver both runs share.
//!
//! One thread issues every operation and starts the next one when the
//! previous returns. A run is a sequence of short *rounds* (a few flows
//! followed by a few queries), so ingest and query timings are
//! interleaved across the whole run instead of each coming from one
//! short contiguous phase. Workloads with a fixed load point run in
//! *epochs*: a fresh simulator per epoch, filled to the same final load
//! factor, so outcome ratios do not depend on how fast the host was.

use std::ops::Range;
use std::time::{Duration, Instant};

use dta_collector::SweepConfig;
use dta_core::query::{classify, QueryClass, QueryOutcome};
use dta_core::PrimitiveSpec;
use dta_obs::Obs;
use dta_rdma::link::FaultModel;
use dta_telemetry::int_path::PATH_HOPS;
use dta_topology::fattree::{FatTree, Host};
use dta_topology::sim::{CollectorFault, FaultKind, SimConfig, SimReport};
use dta_wire::int::{HopMetadata, IntStack};
use dta_wire::{ipv4, FiveTuple};

use crate::stats::{derive_seed, median, peak_rss_mb, SplitMix, Timings, SEGMENT};

/// Which reported keys a round's queries draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The most recent `n` keys of the current simulator.
    Recent(usize),
    /// Every key the current simulator has reported.
    History,
}

/// A workload: the simulator it builds and the operation mix it drives.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Simulator configuration (its seed is replaced per simulator).
    pub config: SimConfig,
    /// Flows per simulator lifetime; `None` keeps one simulator for the
    /// whole run.
    pub epoch_flows: Option<u64>,
    /// Flows run untimed during set-up, into the first simulator.
    pub prefill: u64,
    /// Set-up repetitions per run (the median is reported).
    pub setup_reps: usize,
    pub round_flows: u64,
    pub round_queries: u64,
    /// Flows the timed phase may run in all (`None` = no limit); rounds
    /// after it is spent run queries only.
    pub flow_budget: Option<u64>,
    /// No queries while a simulator's flow count is in this range.
    pub quiet: Option<Range<u64>>,
    /// Every `absent_every`-th query asks for a never-inserted tuple
    /// (0 = never).
    pub absent_every: u64,
    pub scope: Scope,
    /// Attach a live `Obs` registry, as under an operator console.
    pub live_obs: bool,
}

pub const NAMES: [&str; 4] = [
    "ingest_keywrite",
    "query_keywrite",
    "recovery_lossy",
    "append_log",
];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let keywrite = SimConfig {
        k: 4,
        primitive: PrimitiveSpec::KeyWrite,
        copies: 2,
        collectors: 1,
        fault: FaultModel::Perfect,
        ..SimConfig::default()
    };
    let spec = match name {
        // Per-frame CPU cost dominates: a 1.5 MB store that fits in L2,
        // a perfect link, no live metrics. Each epoch ends at α = 2.
        "ingest_keywrite" => Spec {
            name: "ingest_keywrite",
            config: SimConfig {
                slots: 1 << 16,
                ..keywrite.clone()
            },
            epoch_flows: Some(1 << 17),
            prefill: 1 << 15,
            setup_reps: 7,
            round_flows: 16,
            round_queries: 8,
            flow_budget: None,
            quiet: None,
            absent_every: 0,
            scope: Scope::Recent(512),
            live_obs: false,
        },
        // Query cost dominates: a 24 MB cluster far beyond L2, prefilled
        // to α = 0.5, queried across its whole history with 25% of keys
        // never inserted, while a trickle of flows keeps writing. The
        // trickle stops after a fixed budget that takes about three
        // quarters of a 25 s run, so the final α (0.625) and the outcome
        // ratios do not depend on the host's speed.
        "query_keywrite" => Spec {
            name: "query_keywrite",
            config: SimConfig {
                slots: 1 << 18,
                collectors: 4,
                ..keywrite.clone()
            },
            epoch_flows: None,
            prefill: 1 << 19,
            setup_reps: 3,
            round_flows: 1,
            round_queries: 96,
            flow_budget: Some(1 << 17),
            quiet: None,
            absent_every: 4,
            scope: Scope::History,
            live_obs: false,
        },
        // Failover, NIC drop paths, health probes and the re-replication
        // sweep under bursty loss with live metrics. Collector 1 crashes
        // a quarter of the way through each epoch's frame clock (2 frames
        // per flow) and recovers at half.
        "recovery_lossy" => {
            let flows = 1u64 << 16;
            Spec {
                name: "recovery_lossy",
                config: SimConfig {
                    slots: 1 << 15,
                    collectors: 4,
                    fault: FaultModel::GilbertElliott {
                        to_bad: 0.02,
                        to_good: 0.3,
                        loss_good: 0.01,
                        loss_bad: 0.6,
                    },
                    faults: vec![CollectorFault {
                        index: 1,
                        // Fires after the first flow past the prefill.
                        after_frames: flows / 2 + 2,
                        kind: FaultKind::Crash,
                        recover_after: Some(flows / 2),
                    }],
                    // Half the default batch: sweep ticks then run on about
                    // 3% of flows, so `ingest_flow_p99_us` lands among them
                    // instead of on the border with ordinary flows.
                    sweep: SweepConfig {
                        batch_size: 4,
                        ..SweepConfig::default()
                    },
                    ..keywrite.clone()
                },
                epoch_flows: Some(flows),
                prefill: flows / 4,
                setup_reps: 7,
                round_flows: 16,
                round_queries: 16,
                flow_budget: None,
                // Until the control plane has detected the crash, a query
                // for a key on the crashed collector returns
                // `Err(CollectorUnreachable)` by design. Detection takes
                // well under 256 flows; this workload is chosen so that no
                // call fails.
                quiet: Some(flows / 4..flows / 4 + 256),
                absent_every: 0,
                scope: Scope::Recent(256),
                live_obs: true,
            }
        }
        // Ring commits, switch tail registers and window decoding.
        "append_log" => Spec {
            name: "append_log",
            config: SimConfig {
                slots: 1 << 16,
                primitive: PrimitiveSpec::Append { ring_capacity: 4 },
                ..keywrite
            },
            epoch_flows: Some(1 << 15),
            prefill: 1 << 14,
            setup_reps: 7,
            round_flows: 16,
            round_queries: 4,
            flow_budget: None,
            quiet: None,
            absent_every: 0,
            scope: Scope::Recent(256),
            live_obs: false,
        },
        _ => return None,
    };
    Some(spec)
}

impl Spec {
    /// The configuration of the `epoch`-th simulator of a run.
    pub fn sim_config(&self, seed: u64, epoch: u64) -> SimConfig {
        SimConfig {
            seed: derive_seed(seed, self.name, epoch),
            ..self.config.clone()
        }
    }

    /// No scheduled faults and a perfect link: runs are deterministic,
    /// so the traced replica must match the simulator exactly.
    pub fn fault_free(&self) -> bool {
        self.config.faults.is_empty() && self.config.fault == FaultModel::Perfect
    }

    /// The §4 closed form applies: a fault-free Key-Write store on one
    /// collector, classified at a fixed final load factor.
    pub fn has_theory(&self) -> bool {
        self.fault_free()
            && self.config.primitive == PrimitiveSpec::KeyWrite
            && self.config.collectors == 1
            && self.epoch_flows.is_some()
    }

    pub fn obs(&self) -> Obs {
        if self.live_obs {
            Obs::new()
        } else {
            Obs::noop()
        }
    }
}

/// What a system under test exposes to the driver: the top-level
/// simulator calls, nothing below them.
pub trait Target {
    /// Per-run state a target accumulates across simulator lifetimes.
    type Acc: Default;
    fn run_flow(&mut self) -> Result<FiveTuple, String>;
    fn query(&mut self, tuple: &FiveTuple) -> Result<QueryOutcome, String>;
    /// End of a simulator's life: classify every reported key.
    fn close(&mut self, acc: &mut Self::Acc) -> SimReport;
}

/// Ground truth for a reported flow, computed by the benchmark from the
/// topology alone: the padded INT stack of switch IDs along the flow's
/// ECMP route (what the sink reports as the value).
pub struct Oracle {
    tree: FatTree,
}

impl Oracle {
    pub fn new(k: u8) -> Oracle {
        Oracle {
            tree: FatTree::new(k).expect("valid arity"),
        }
    }

    fn host(ip: ipv4::Address) -> Host {
        Host {
            pod: ip.0[1],
            edge: ip.0[2],
            idx: ip.0[3] - 2,
        }
    }

    pub fn truth(&self, tuple: &FiveTuple) -> Vec<u8> {
        let route = self
            .tree
            .route(Self::host(tuple.src_ip), Self::host(tuple.dst_ip), tuple)
            .expect("reported flows run between tree hosts");
        let mut stack = IntStack::new();
        for switch_id in route {
            stack
                .push(HopMetadata { switch_id })
                .expect("fat-tree routes fit the INT stack");
        }
        stack
            .to_padded_value_bytes(PATH_HOPS)
            .expect("fat-tree routes fit the padded value")
    }

    /// A tuple the flow generator never emits (it only emits TCP).
    pub fn absent(&self, rng: &mut SplitMix) -> FiveTuple {
        let hosts = u64::from(self.tree.host_count());
        FiveTuple {
            src_ip: self.tree.host(rng.below(hosts) as u32).ip(),
            dst_ip: self.tree.host(rng.below(hosts) as u32).ip(),
            src_port: 1024 + rng.below(60_000) as u16,
            dst_port: rng.below(65_536) as u16,
            protocol: 17,
        }
    }
}

/// Outcome tallies of the final classification passes, plus the
/// per-call checks made during the run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Keys reported (and therefore classified at the end).
    pub reported: u64,
    pub correct: u64,
    pub empty: u64,
    pub error: u64,
    pub unreachable: u64,
    /// Simulators closed.
    pub epochs: u64,
    /// Final load factor of the last simulator (flows / total slots).
    pub final_alpha: f64,
    /// Run-time query answers that were wrong (present keys).
    pub wrong_answers: u64,
    /// Run-time answers to never-inserted keys (should be empty).
    pub absent_answered: u64,
    pub absent_queried: u64,
}

/// Everything a run measured.
pub struct Run<A> {
    pub setup_s: Vec<f64>,
    pub ingest: Timings,
    pub query: Timings,
    pub attempted: u64,
    pub failed: u64,
    pub tally: Tally,
    pub acc: A,
    pub problems: Vec<String>,
    /// `VmHWM` at the end of the timed phase, before set-up repeats.
    pub peak_rss_mb: f64,
}

struct Life<T> {
    target: T,
    keys: Vec<(FiveTuple, Vec<u8>)>,
    flows: u64,
}

/// Drive `spec` for `seconds` of timed work against targets built by
/// `open(config, obs)`.
pub fn drive<T: Target>(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    mut open: impl FnMut(SimConfig, Obs) -> T,
) -> Run<T::Acc> {
    let oracle = Oracle::new(spec.config.k);
    let mut rng = SplitMix::new(derive_seed(seed, spec.name, u64::MAX));
    let mut run = Run {
        setup_s: Vec::new(),
        ingest: Timings::new(),
        query: Timings::new(),
        attempted: 0,
        failed: 0,
        tally: Tally::default(),
        acc: T::Acc::default(),
        problems: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let total_slots = spec.config.slots * u64::from(spec.config.collectors);

    // Set-up: build the first simulator and prefill it.
    let (mut life, secs) = set_up(spec, seed, &oracle, &mut open, &mut run.problems);
    run.setup_s.push(secs);
    let mut epoch = 0u64;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut segment_end = Instant::now() + SEGMENT;
    let mut budget = spec.flow_budget.unwrap_or(u64::MAX);
    loop {
        let flows = spec.round_flows.min(budget);
        budget -= flows;
        for _ in 0..flows {
            run.attempted += 1;
            let start = Instant::now();
            let result = life.target.run_flow();
            run.ingest.record(start.elapsed().as_nanos() as u64);
            match result {
                Ok(tuple) => {
                    life.keys.push((tuple, oracle.truth(&tuple)));
                    life.flows += 1;
                }
                Err(e) => {
                    run.failed += 1;
                    note(&mut run.problems, format!("run_flow: {e}"));
                }
            }
        }
        let quiet = spec.quiet.as_ref().is_some_and(|r| r.contains(&life.flows));
        for q in 0..if quiet { 0 } else { spec.round_queries } {
            let absent = spec.absent_every > 0 && q % spec.absent_every == spec.absent_every - 1;
            let n = life.keys.len();
            let (tuple, truth) = if absent || n == 0 {
                (oracle.absent(&mut rng), None)
            } else {
                let back = match spec.scope {
                    Scope::Recent(recent) => rng.below(recent.min(n) as u64) as usize,
                    Scope::History => rng.below(n as u64) as usize,
                };
                let (tuple, truth) = &life.keys[n - 1 - back];
                (*tuple, Some(truth))
            };
            run.attempted += 1;
            let start = Instant::now();
            let result = life.target.query(&tuple);
            run.query.record(start.elapsed().as_nanos() as u64);
            let ok = match (&result, truth) {
                (Err(_), _) => false,
                (Ok(outcome), None) => {
                    run.tally.absent_queried += 1;
                    let empty = *outcome == QueryOutcome::Empty;
                    if !empty {
                        run.tally.absent_answered += 1;
                    }
                    empty
                }
                (Ok(outcome), Some(truth)) => {
                    let wrong = classify(outcome, truth) == QueryClass::ReturnError;
                    if wrong {
                        run.tally.wrong_answers += 1;
                    }
                    !wrong
                }
            };
            if !ok {
                run.failed += 1;
            }
        }

        let now = Instant::now();
        if now >= segment_end {
            run.ingest.end_segment();
            run.query.end_segment();
            segment_end = now + SEGMENT;
        }
        let time_up = now >= deadline;
        let epoch_done = spec.epoch_flows.is_some_and(|f| life.flows >= f);
        if epoch_done || (time_up && spec.epoch_flows.is_none()) {
            close(&mut life, &mut run, total_slots);
            if time_up {
                break;
            }
            epoch += 1;
            // Drop the old simulator first, so two never coexist.
            drop(life);
            life = Life {
                target: open(spec.sim_config(seed, epoch), spec.obs()),
                keys: Vec::new(),
                flows: 0,
            };
        }
    }
    run.ingest.end_segment();
    run.query.end_segment();
    drop(life);
    run.peak_rss_mb = peak_rss_mb();

    // Repeat the set-up for a steadier median. The copies are built
    // after the peak is read: discarded simulators leave the allocator's
    // heap in a state that would make the peak depend on their order.
    for _ in 1..setup_reps {
        let (life, secs) = set_up(spec, seed, &oracle, &mut open, &mut run.problems);
        run.setup_s.push(secs);
        drop(life);
    }
    run
}

/// Build the first simulator and run the prefill flows into it.
fn set_up<T: Target>(
    spec: &Spec,
    seed: u64,
    oracle: &Oracle,
    open: &mut impl FnMut(SimConfig, Obs) -> T,
    problems: &mut Vec<String>,
) -> (Life<T>, f64) {
    let start = Instant::now();
    let mut life = Life {
        target: open(spec.sim_config(seed, 0), spec.obs()),
        keys: Vec::new(),
        flows: 0,
    };
    for _ in 0..spec.prefill {
        match life.target.run_flow() {
            Ok(tuple) => {
                life.keys.push((tuple, oracle.truth(&tuple)));
                life.flows += 1;
            }
            Err(e) => {
                note(problems, format!("prefill run_flow: {e}"));
                break;
            }
        }
    }
    (life, start.elapsed().as_secs_f64())
}

/// Record a failed check, keeping the first few messages only.
fn note(problems: &mut Vec<String>, problem: String) {
    if problems.len() < 10 {
        problems.push(problem);
    }
}

fn close<T: Target>(life: &mut Life<T>, run: &mut Run<T::Acc>, total_slots: u64) {
    let report = life.target.close(&mut run.acc);
    let t = &mut run.tally;
    t.epochs += 1;
    t.reported += life.keys.len() as u64;
    t.correct += report.correct;
    t.empty += report.empty;
    t.error += report.error;
    t.unreachable += report.unreachable;
    t.final_alpha = life.flows as f64 / total_slots as f64;
    if report.total() != life.keys.len() as u64 {
        note(
            &mut run.problems,
            format!(
                "query_all classified {} keys but {} were reported",
                report.total(),
                life.keys.len()
            ),
        );
    }
}

impl<A> Run<A> {
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }
}
