//! Full-stack cross-check: the fat-tree packet-level simulator vs the §4
//! closed form.
//!
//! The store-level sweeps (Figures 3–5) use an idealized mixer hash; this
//! module reruns the aging experiment through the *entire* pipeline —
//! Tofino-style CRC hashing, RoCEv2 crafting with iCRC, lossy link,
//! RNIC validation and DMA — and checks that the resulting queryability
//! still tracks theory. Any corner cut anywhere in the stack (a
//! mis-parsed header, a biased CRC, a broken PSN) shows up here as a
//! divergence.

use dta_core::PrimitiveSpec;
use dta_obs::{MetricValue, Obs};
use dta_rdma::link::FaultModel;
use dta_topology::sim::{CollectorFault, FatTreeSim, FaultKind, ReportMode, SimConfig, SimReport};

use crate::report::{pct, table};

/// Result of one end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct E2ePoint {
    /// Load factor (flows / slots).
    pub alpha: f64,
    /// Observed end-to-end success rate.
    pub observed: f64,
    /// Closed-form average success rate.
    pub theory: f64,
    /// RDMA WRITEs executed at collectors.
    pub nic_writes: u64,
}

/// Run the fat-tree experiment at the given load.
pub fn run_e2e(alpha: f64, slots: u64, seed: u64) -> E2ePoint {
    run_e2e_with_obs(alpha, slots, seed, Obs::noop())
}

/// Like [`run_e2e`], reporting every stage into `obs` (share one handle
/// across a sweep to accumulate a whole-run registry).
pub fn run_e2e_with_obs(alpha: f64, slots: u64, seed: u64, obs: Obs) -> E2ePoint {
    let flows = (alpha * slots as f64).round() as u64;
    let mut sim = FatTreeSim::new_with_obs(
        SimConfig {
            k: 4,
            slots,
            copies: 2,
            collectors: 1,
            fault: FaultModel::Perfect,
            mode: ReportMode::AllCopies,
            seed,
            ..SimConfig::default()
        },
        obs,
    )
    .expect("valid sim config");
    sim.run_flows(flows).expect("flows run");
    let report: SimReport = sim.query_all(10);
    E2ePoint {
        alpha,
        observed: report.success_rate(),
        theory: dta_analysis::average_query_success(alpha, 2),
        nic_writes: report.nic_writes,
    }
}

/// The standard sweep.
pub fn run_sweep(slots: u64, seed: u64) -> Vec<E2ePoint> {
    [0.25f64, 0.5, 1.0, 2.0]
        .iter()
        .map(|&alpha| run_e2e(alpha, slots, seed))
        .collect()
}

/// One row of the per-primitive matrix: the same fat-tree pipeline
/// run under each translation primitive at load α = 0.5.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitivePoint {
    /// The translation primitive the run used.
    pub primitive: PrimitiveSpec,
    /// Observed end-to-end success rate.
    pub observed: f64,
    /// RDMA WRITEs executed at collectors (Key-Write, Append).
    pub nic_writes: u64,
    /// RC FETCH_ADDs executed at collectors (Key-Increment).
    pub nic_atomics: u64,
}

/// A stable snake_case label for bench metric names.
fn primitive_label(primitive: PrimitiveSpec) -> &'static str {
    match primitive {
        PrimitiveSpec::KeyWrite => "key_write",
        PrimitiveSpec::Append { .. } => "append",
        PrimitiveSpec::KeyIncrement => "key_increment",
    }
}

/// Run the fat-tree pipeline once per translation primitive (α = 0.5)
/// and register the outcome tallies as deterministic bench counters in
/// `obs` — one `bench_e2e_<primitive>_{correct,queries}_total` pair per
/// row, diffable by `repro --check`.
pub fn run_primitive_matrix(slots: u64, seed: u64, obs: &Obs) -> Vec<PrimitivePoint> {
    [
        PrimitiveSpec::KeyWrite,
        PrimitiveSpec::Append { ring_capacity: 4 },
        PrimitiveSpec::KeyIncrement,
    ]
    .iter()
    .map(|&primitive| {
        let mut sim = FatTreeSim::new(SimConfig {
            k: 4,
            slots,
            collectors: 1,
            fault: FaultModel::Perfect,
            mode: ReportMode::AllCopies,
            primitive,
            seed,
            ..SimConfig::default()
        })
        .expect("valid sim config");
        sim.run_flows(slots / 2).expect("flows run");
        let report = sim.query_all(10);
        let label = primitive_label(primitive);
        let registry = obs.registry();
        registry
            .counter(&format!("bench_e2e_{label}_correct_total"))
            .add(report.correct);
        registry
            .counter(&format!("bench_e2e_{label}_queries_total"))
            .add(report.total());
        PrimitivePoint {
            primitive,
            observed: report.success_rate(),
            nic_writes: sim.cluster().total_writes(),
            nic_atomics: sim.cluster().total_atomics(),
        }
    })
    .collect()
}

/// The recovery scenario row: one collector crashes mid-run, the
/// fabric keeps writing through the failover hash, the collector
/// recovers with wiped memory, and the control plane's re-replication
/// sweep carries the outage-era telemetry home — then everything is
/// queried.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPoint {
    /// Failover slots the sweep wrote back to the recovered primary.
    pub slots_rereplicated: u64,
    /// Rate-limited sweep batches issued.
    pub sweep_batches: u64,
    /// Keys a completed sweep restored (failover copies tombstoned).
    pub keys_restored: u64,
    /// Empty returns across the post-sweep query pass (pre-crash keys
    /// wiped with the host — expected loss, bounded but nonzero).
    pub post_sweep_empty: u64,
    /// Wrong answers across the post-sweep query pass (must be zero).
    pub post_sweep_errors: u64,
    /// Total keys queried post-sweep.
    pub queries: u64,
    /// Post-sweep query success rate.
    pub observed: f64,
}

/// Run the recovery scenario: 4 collectors, collector 1 crashes a
/// quarter into the run and recovers at the halfway mark, leaving the
/// back half for detection, the sweep, and fresh traffic. Deterministic
/// under a fixed seed; registers one `bench_e2e_recovery_*` counter per
/// column so `repro --check` pins the sweep's behavior too.
pub fn run_recovery_scenario(slots: u64, seed: u64, obs: &Obs) -> RecoveryPoint {
    let flows = slots / 2;
    // AllCopies Key-Write emits two frames per flow; fault onsets are
    // scheduled in frame time.
    let mut sim = FatTreeSim::new_with_obs(
        SimConfig {
            k: 4,
            slots,
            copies: 2,
            collectors: 4,
            fault: FaultModel::Perfect,
            mode: ReportMode::AllCopies,
            faults: vec![CollectorFault {
                index: 1,
                after_frames: flows / 2,
                kind: FaultKind::Crash,
                recover_after: Some(flows / 2),
            }],
            seed,
            ..SimConfig::default()
        },
        obs.clone(),
    )
    .expect("valid sim config");
    sim.run_flows(flows).expect("flows run");
    let report = sim.query_all(10);
    let stats = sim.cluster().rerepl_stats();
    let registry = obs.registry();
    registry
        .counter("bench_e2e_recovery_slots_rereplicated_total")
        .add(stats.slots_copied);
    registry
        .counter("bench_e2e_recovery_sweep_batches_total")
        .add(stats.batches);
    registry
        .counter("bench_e2e_recovery_keys_restored_total")
        .add(stats.keys_restored);
    registry
        .counter("bench_e2e_recovery_post_sweep_empty_total")
        .add(report.empty);
    registry
        .counter("bench_e2e_recovery_post_sweep_errors_total")
        .add(report.error);
    registry
        .counter("bench_e2e_recovery_queries_total")
        .add(report.total());
    RecoveryPoint {
        slots_rereplicated: stats.slots_copied,
        sweep_batches: stats.batches,
        keys_restored: stats.keys_restored,
        post_sweep_empty: report.empty,
        post_sweep_errors: report.error,
        queries: report.total(),
        observed: report.success_rate(),
    }
}

/// Render the recovery scenario.
pub fn recovery_table(point: &RecoveryPoint) -> String {
    table(
        "Crash → recover → re-replication sweep (collector 1, mid-run)",
        &[
            "slots re-replicated",
            "sweep batches",
            "keys restored",
            "post-sweep empty",
            "post-sweep errors",
            "observed",
        ],
        &[vec![
            point.slots_rereplicated.to_string(),
            point.sweep_batches.to_string(),
            point.keys_restored.to_string(),
            point.post_sweep_empty.to_string(),
            point.post_sweep_errors.to_string(),
            pct(point.observed),
        ]],
    )
}

/// An instrumented sweep: the sweep points plus wall-clock throughput
/// and the accumulated observability registry, ready for
/// `BENCH_e2e.json`.
#[derive(Debug)]
pub struct E2eBench {
    /// The sweep results.
    pub points: Vec<E2ePoint>,
    /// The per-primitive matrix rows.
    pub matrix: Vec<PrimitivePoint>,
    /// The recovery scenario row.
    pub recovery: RecoveryPoint,
    /// Total flows simulated across the sweep.
    pub flows: u64,
    /// Wall-clock duration of the sweep in seconds.
    pub elapsed_secs: f64,
    /// The shared observability handle (all stages reported here).
    pub obs: Obs,
}

/// Seed of the checked-in `BENCH_e2e.json` baseline (`repro e2e`).
pub const BENCH_SEED: u64 = 0xDA27_2021;

/// Slots per collector of the baseline at `--scale 1`.
pub const BENCH_SLOTS: u64 = 1 << 13;

/// Run the standard sweep with a shared live registry and measure
/// wall-clock throughput.
pub fn run_bench(slots: u64, seed: u64) -> E2eBench {
    let obs = Obs::new();
    let start = std::time::Instant::now();
    let points: Vec<E2ePoint> = [0.25f64, 0.5, 1.0, 2.0]
        .iter()
        .map(|&alpha| run_e2e_with_obs(alpha, slots, seed, obs.clone()))
        .collect();
    let matrix = run_primitive_matrix(slots, seed, &obs);
    let recovery = run_recovery_scenario(slots, seed, &obs);
    let elapsed_secs = start.elapsed().as_secs_f64();
    let flows: u64 = [0.25f64, 0.5, 1.0, 2.0]
        .iter()
        .map(|&alpha| (alpha * slots as f64).round() as u64)
        .sum::<u64>()
        + matrix.len() as u64 * (slots / 2)
        + slots / 2;
    let registry = obs.registry();
    registry.counter("bench_e2e_flows_total").add(flows);
    registry
        .gauge("bench_e2e_elapsed_ms")
        .set((elapsed_secs * 1_000.0) as i64);
    if elapsed_secs > 0.0 {
        registry
            .gauge("bench_e2e_flows_per_sec")
            .set((flows as f64 / elapsed_secs) as i64);
    }
    E2eBench {
        points,
        matrix,
        recovery,
        flows,
        elapsed_secs,
        obs,
    }
}

/// Render the per-primitive matrix.
pub fn primitive_table(matrix: &[PrimitivePoint]) -> String {
    let rows: Vec<Vec<String>> = matrix
        .iter()
        .map(|p| {
            vec![
                primitive_label(p.primitive).to_string(),
                pct(p.observed),
                p.nic_writes.to_string(),
                p.nic_atomics.to_string(),
            ]
        })
        .collect();
    table(
        "Translation primitives end-to-end (α = 0.50, same pipeline)",
        &["primitive", "observed", "NIC writes", "NIC atomics"],
        &rows,
    )
}

/// Diff a fresh bench snapshot against a checked-in `BENCH_e2e.json`
/// baseline. Counters must match exactly (the whole pipeline is
/// deterministic under a fixed seed); gauges and histograms are skipped
/// because they carry wall-clock readings (`bench_e2e_elapsed_ms`,
/// `bench_e2e_flows_per_sec`). Returns human-readable mismatch lines —
/// empty means the run reproduced the baseline.
pub fn diff_baseline(bench: &E2eBench, baseline: &str) -> Result<Vec<String>, String> {
    let baseline = dta_obs::export::parse_jsonl(baseline).map_err(|e| e.to_string())?;
    let current = bench.obs.registry().snapshot();
    let mut diffs = Vec::new();
    for base in &baseline {
        let MetricValue::Counter(expected) = base.value else {
            continue;
        };
        match current.iter().find(|m| m.name == base.name) {
            None => diffs.push(format!(
                "missing counter {} (baseline {expected})",
                base.name
            )),
            Some(m) => match m.value {
                MetricValue::Counter(got) if got == expected => {}
                MetricValue::Counter(got) => {
                    diffs.push(format!("{}: baseline {expected}, got {got}", base.name))
                }
                ref other => diffs.push(format!(
                    "{}: baseline counter {expected}, got {}",
                    base.name,
                    other.type_name()
                )),
            },
        }
    }
    for m in &current {
        if matches!(m.value, MetricValue::Counter(_)) && !baseline.iter().any(|b| b.name == m.name)
        {
            diffs.push(format!("new counter {} not in baseline", m.name));
        }
    }
    Ok(diffs)
}

/// The `BENCH_e2e.json` payload: one JSON object per line for every
/// registered metric (throughput, per-stage lifecycle counters, and the
/// §5 outcome tallies `query_all` folded in).
pub fn bench_jsonl(bench: &E2eBench) -> String {
    dta_obs::export::render_jsonl(&bench.obs.registry().snapshot())
}

/// Render the sweep.
pub fn e2e_table(points: &[E2ePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.alpha),
                pct(p.observed),
                pct(p.theory),
                p.nic_writes.to_string(),
            ]
        })
        .collect();
    table(
        "End-to-end fat-tree (CRC hashing, full RoCEv2 path) vs theory",
        &["load α", "observed", "theory", "NIC writes"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stack_tracks_theory() {
        // Modest size so the packet-level path stays fast in CI.
        for point in run_sweep(1 << 12, 0xE2E) {
            assert!(
                (point.observed - point.theory).abs() < 0.05,
                "α={}: observed {} vs theory {}",
                point.alpha,
                point.observed,
                point.theory
            );
        }
    }

    #[test]
    fn writes_equal_two_per_flow() {
        let p = run_e2e(0.5, 1 << 10, 7);
        assert_eq!(p.nic_writes, (0.5 * 1024.0) as u64 * 2);
    }

    #[test]
    fn table_renders() {
        let t = e2e_table(&[run_e2e(0.25, 1 << 10, 1)]);
        assert!(t.contains("NIC writes"));
    }

    #[test]
    fn primitive_matrix_covers_all_three_commit_kinds() {
        let obs = Obs::new();
        let matrix = run_primitive_matrix(1 << 9, 5, &obs);
        assert_eq!(matrix.len(), 3);
        // Key-Write and Append commit WRITEs; Key-Increment atomics only.
        assert!(matrix[0].nic_writes > 0 && matrix[0].nic_atomics == 0);
        assert!(matrix[1].nic_writes > 0 && matrix[1].nic_atomics == 0);
        assert!(matrix[2].nic_writes == 0 && matrix[2].nic_atomics > 0);
        for point in &matrix {
            assert!(point.observed > 0.5, "α=0.5 run unusably lossy");
        }
        let registry = obs.registry();
        for label in ["key_write", "append", "key_increment"] {
            let total = registry
                .counter_value(&format!("bench_e2e_{label}_queries_total"))
                .unwrap();
            assert_eq!(total, 1 << 8, "one query per simulated flow");
        }
        let rendered = primitive_table(&matrix);
        assert!(rendered.contains("key_increment"));
    }

    #[test]
    fn recovery_scenario_sweeps_and_stays_correct() {
        let obs = Obs::new();
        let point = run_recovery_scenario(1 << 9, 3, &obs);
        // The sweep actually ran and carried outage-era keys home…
        assert!(point.slots_rereplicated > 0, "sweep never wrote back");
        assert!(point.sweep_batches > 0);
        assert!(point.keys_restored > 0);
        // …the crash is visible as bounded empty loss (wiped pre-crash
        // keys), never as a wrong answer…
        assert_eq!(point.post_sweep_errors, 0, "recovery produced errors");
        assert!(point.observed > 0.5, "recovery run unusably lossy");
        // …and the scenario pinned its columns as counters.
        let registry = obs.registry();
        assert_eq!(
            registry
                .counter_value("bench_e2e_recovery_slots_rereplicated_total")
                .unwrap(),
            point.slots_rereplicated
        );
        assert_eq!(
            registry
                .counter_value("bench_e2e_recovery_post_sweep_errors_total")
                .unwrap(),
            0
        );
        assert!(recovery_table(&point).contains("slots re-replicated"));
        // Determinism: the whole scenario reproduces under its seed.
        let rerun = run_recovery_scenario(1 << 9, 3, &Obs::new());
        assert_eq!(point, rerun);
    }

    #[test]
    fn baseline_diff_passes_identity_and_catches_drift() {
        let bench = run_bench(1 << 9, 3);
        let json = bench_jsonl(&bench);
        assert!(
            diff_baseline(&bench, &json).unwrap().is_empty(),
            "a run must reproduce its own snapshot"
        );

        // A counter missing from the current run is reported…
        let fake =
            format!("{json}{{\"name\":\"bench_fake_total\",\"type\":\"counter\",\"value\":7}}\n");
        let diffs = diff_baseline(&bench, &fake).unwrap();
        assert!(diffs
            .iter()
            .any(|d| d.contains("missing counter bench_fake_total")));

        // …a counter the baseline never saw is reported…
        let pruned: String = json
            .lines()
            .filter(|l| !l.contains("bench_e2e_flows_total"))
            .map(|l| format!("{l}\n"))
            .collect();
        let diffs = diff_baseline(&bench, &pruned).unwrap();
        assert!(diffs
            .iter()
            .any(|d| d.contains("new counter bench_e2e_flows_total")));

        // …and a drifted value is, while wall-clock gauges are ignored.
        let drifted: String = json
            .lines()
            .map(|l| {
                if l.contains("bench_e2e_flows_total") {
                    "{\"name\":\"bench_e2e_flows_total\",\"type\":\"counter\",\"value\":1}\n"
                        .to_string()
                } else if l.contains("bench_e2e_elapsed_ms") {
                    "{\"name\":\"bench_e2e_elapsed_ms\",\"type\":\"gauge\",\"value\":999999}\n"
                        .to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let diffs = diff_baseline(&bench, &drifted).unwrap();
        assert_eq!(diffs.len(), 1, "only the counter drift counts: {diffs:?}");
        assert!(diffs[0].contains("bench_e2e_flows_total: baseline 1"));
    }

    #[test]
    fn bench_jsonl_round_trips_and_carries_throughput() {
        let bench = run_bench(1 << 9, 3);
        assert_eq!(bench.points.len(), 4);
        let json = bench_jsonl(&bench);
        assert!(json.contains("bench_e2e_flows_total"));
        assert!(json.contains("dta_sim_queries_correct_total"));
        assert!(json.contains("dta_nic_writes_fresh_total"));
        let parsed = dta_obs::export::parse_jsonl(&json).expect("own output parses");
        assert_eq!(parsed.len(), bench.obs.registry().snapshot().len());
        let flows = parsed
            .iter()
            .find(|m| m.name == "bench_e2e_flows_total")
            .expect("throughput metric present");
        assert_eq!(
            flows.value,
            dta_obs::MetricValue::Counter(bench.flows),
            "flows metric round-trips"
        );
    }
}
