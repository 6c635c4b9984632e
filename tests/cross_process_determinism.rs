//! Cross-process determinism of the `repro e2e` recovery scenario.
//!
//! DESIGN.md §6 promises results that reproduce bit for bit, and that
//! must hold across processes, not only within one. A `HashMap` with the
//! default `RandomState` iterates in a different order in every process,
//! so an in-process rerun shares one order and cannot see such a bug.
//! This test therefore re-runs itself as child processes. Each child runs
//! the recovery scenario at the scale of the checked-in `BENCH_e2e.json`
//! baseline and prints every metric it registered; the parent asserts
//! that all children printed the same thing.

use std::process::Command;

use direct_telemetry_access::obs::export::render_jsonl;
use direct_telemetry_access::obs::Obs;
use dta_bench::e2e::{run_recovery_scenario, BENCH_SEED, BENCH_SLOTS};

/// Set in a child's environment; the child runs the scenario and prints.
const CHILD_ENV: &str = "DTA_CROSS_PROCESS_CHILD";
/// Brackets the child's metrics within the test harness's own output.
const BEGIN: &str = "--- metrics begin ---";
const END: &str = "--- metrics end ---";
const TEST_NAME: &str = "recovery_scenario_is_identical_across_processes";
/// Child processes to compare. The order a `RandomState` map picks can
/// happen to agree between two processes; three make that unlikely.
const CHILDREN: usize = 3;

#[test]
fn recovery_scenario_is_identical_across_processes() {
    if std::env::var_os(CHILD_ENV).is_some() {
        let obs = Obs::new();
        let point = run_recovery_scenario(BENCH_SLOTS, BENCH_SEED, &obs);
        assert!(point.slots_rereplicated > 0, "the sweep must run");
        println!("{BEGIN}\n{}{END}", render_jsonl(&obs.registry().snapshot()));
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let runs: Vec<String> = (0..CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--exact", TEST_NAME, "--nocapture", "--test-threads", "1"])
                .env(CHILD_ENV, "1")
                .output()
                .expect("spawn child test process");
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(
                out.status.success(),
                "child failed: {stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let start = stdout.find(BEGIN).expect("child printed its metrics") + BEGIN.len();
            let end = stdout[start..].find(END).expect("metrics end marker") + start;
            stdout[start..end].to_string()
        })
        .collect();
    assert!(runs[0].contains("bench_e2e_recovery_post_sweep_empty_total"));
    for run in &runs[1..] {
        for (first, other) in runs[0].lines().zip(run.lines()) {
            assert_eq!(first, other, "metric differs between processes");
        }
        assert_eq!(&runs[0], run);
    }
}
