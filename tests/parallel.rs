//! The determinism contract of the parallel sweep executor (DESIGN §10):
//! every report must be **byte-identical** no matter how many workers
//! execute the sweep. Results land by point index, each point derives its
//! own RNG from the explicit seed, and no state is shared across points —
//! so `--jobs 1`, `--jobs 2`, and `--jobs 8` are indistinguishable from
//! the outside.

use agilewatts::aw_cluster::{AutoscalePolicy, FleetConfig, FleetSim, LoadShape, RoutingPolicy};
use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_exec::{set_default_jobs, SweepExecutor};
use agilewatts::aw_faults::{FaultPlan, FaultSpec};
use agilewatts::aw_server::{ServerConfig, SimBuilder, WorkloadSpec};
use agilewatts::aw_types::Nanos;
use agilewatts::experiments::{Fig8, SweepParams};

/// The Fig. 8 sweep rendered to its full-precision debug form. `Debug`
/// for `f64` prints the shortest round-trip representation, so equal
/// strings mean equal bits for every finite value in the report.
fn fig8_fingerprint() -> String {
    format!("{:?}", Fig8::new(SweepParams::quick()).run())
}

/// A chaos ledger: three fixed fault plans run as an executor sweep, each
/// reduced to its degradation counters plus the exact p99 bit pattern.
fn chaos_ledger_fingerprint() -> String {
    let plans = [
        "seed=11,wake-fail=0.25,relock=0.1,drowsy=0.1,lost-wake=0.05,spurious=2000,storm=500",
        "seed=12,wake-fail=1.0,wake-retries=2,slowdown=20,slow-factor=2.5",
        "seed=13,drowsy=0.3,spurious=4000,storm=800,storm-size=64",
    ];
    let specs: Vec<FaultSpec> =
        plans.iter().map(|p| FaultSpec::parse(p).expect("fixed plan parses")).collect();
    let rows = SweepExecutor::current().map(&specs, |spec| {
        let cfg = ServerConfig::new(4, NamedConfig::Aw)
            .with_duration(Nanos::from_millis(30.0))
            .with_queue_cap(8)
            .with_request_timeout(Nanos::from_micros(300.0));
        let w = WorkloadSpec::poisson("ledger", 120_000.0, Nanos::from_micros(3.0), 0.8);
        let m = SimBuilder::new(cfg, w, 7)
            .with_faults(FaultPlan::new(spec.clone()))
            .run()
            .into_metrics();
        format!(
            "{:?} p99_bits={:#018x} power_bits={:#018x}",
            m.degradation,
            m.server_latency.p99.as_nanos().to_bits(),
            m.avg_core_power.as_milliwatts().to_bits(),
        )
    });
    rows.join("\n")
}

/// A sharded fleet run — diurnal load with the autoscaler, so epochs
/// differ in population — rendered to its full-precision debug form.
/// The fleet fans each epoch's loaded servers out across the executor's
/// workers, so this exercises intra-run sharding, not just sweep points.
fn fleet_fingerprint() -> String {
    let workload = WorkloadSpec::poisson("shard", 1_000.0, Nanos::from_micros(250.0), 0.6);
    let config = FleetConfig::new(6, ServerConfig::new(4, NamedConfig::NtAw), workload, 14_400.0)
        .with_epochs(4, Nanos::from_millis(20.0))
        .with_policy(RoutingPolicy::Packing)
        .with_load(LoadShape::Diurnal { amplitude: 0.8 })
        .with_autoscale(AutoscalePolicy::default());
    format!("{:?}", FleetSim::new(config).run())
}

/// One test function on purpose: [`set_default_jobs`] is
/// process-global, and Rust runs `#[test]` functions of one binary
/// concurrently — each rung of the jobs ladder must not race with
/// another.
#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let mut runs: Vec<(usize, String, String, String)> = Vec::new();
    for jobs in [1usize, 2, 8] {
        set_default_jobs(jobs);
        assert_eq!(SweepExecutor::current().jobs(), jobs, "override not picked up");
        runs.push((jobs, fig8_fingerprint(), chaos_ledger_fingerprint(), fleet_fingerprint()));
    }
    set_default_jobs(0); // release the override for anything that follows

    let (_, fig8_serial, ledger_serial, fleet_serial) = &runs[0];
    assert!(fig8_serial.contains("Fig8Report"), "fingerprint looks wrong: {fig8_serial}");
    assert_eq!(ledger_serial.lines().count(), 3);
    assert!(fleet_serial.contains("FleetReport"), "fingerprint looks wrong");
    for (jobs, fig8, ledger, fleet) in &runs[1..] {
        assert_eq!(fig8, fig8_serial, "Fig. 8 report drifted at jobs={jobs}");
        assert_eq!(ledger, ledger_serial, "chaos ledger drifted at jobs={jobs}");
        assert_eq!(fleet, fleet_serial, "sharded fleet report drifted at jobs={jobs}");
    }

    // An explicitly-constructed executor obeys the same contract without
    // touching the global override.
    let explicit: Vec<u64> =
        SweepExecutor::with_jobs(8).map(&[1u64, 2, 3, 4, 5, 6, 7, 8, 9], |&x| x * x);
    assert_eq!(explicit, vec![1, 4, 9, 16, 25, 36, 49, 64, 81], "results must land by index");
}
