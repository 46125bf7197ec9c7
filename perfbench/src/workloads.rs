//! The benchmark workloads: their set-up, one op, and what an op leaves
//! behind for the output check and the per-layer metrics.
//!
//! Every workload reaches the simulator only through public entry points:
//! `SimBuilder::run`, `IdleReport::analyze`, `FleetSim::run_observed`,
//! and the exporters. The benchmark seed picks the simulation seeds; the
//! simulator never sees it.

use std::hint::black_box;
use std::time::Instant;

use agilewatts::aw_cluster::{
    AutoscalePolicy, FleetConfig, FleetEpochEvent, FleetObserver, FleetReport, FleetSim, LoadShape,
    NullFleetObserver, RoutingPolicy,
};
use agilewatts::aw_cstates::NamedConfig;
use agilewatts::aw_server::{HardwareModel, RunOutput, ServerConfig, SimBuilder, WorkloadSpec};
use agilewatts::aw_sleep::{BreakEven, IdleReport};
use agilewatts::aw_types::Nanos;
use agilewatts::aw_workloads::memcached_etc;
use agilewatts::{attribution_table, TextTable};

use crate::host::{memory_mb, process_cpu_seconds};
use crate::spans::SpanRecorder;

/// Hardware model every workload simulates.
pub const HW: &str = "skylake-sp";
/// Cores of the single-server workloads (the Fig. 8 server).
pub const SERVER_CORES: usize = 10;
/// Offered load of `server_hot`: the Fig. 8 anchor.
pub const HOT_QPS: f64 = 300e3;
/// Simulated time per `server_hot` run.
pub const HOT_DURATION_MS: f64 = 1_000.0;
/// Offered load of `server_light_analyze`.
pub const LIGHT_QPS: f64 = 30e3;
/// Simulated time per `server_light_analyze` run.
pub const LIGHT_DURATION_MS: f64 = 3_000.0;
/// Servers in the `fleet_diurnal` fleet.
pub const FLEET_SERVERS: usize = 100;
/// Cores per fleet server.
pub const FLEET_CORES: usize = 4;
/// Fleet epochs: one simulated day in hourly steps.
pub const FLEET_EPOCHS: usize = 24;
/// Simulated time per fleet epoch.
pub const FLEET_EPOCH_MS: f64 = 5.0;
/// Mean fleet load as a share of fleet capacity.
pub const FLEET_UTILIZATION: f64 = 0.3;
/// Peak-to-mean swing of the diurnal load.
pub const FLEET_DIURNAL_AMPLITUDE: f64 = 0.6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 10-core server at the Fig. 8 anchor, plain runs.
    ServerHot,
    /// The same server at light load with idle analysis, attribution,
    /// and the exporters.
    ServerLightAnalyze,
    /// A packing + autoscale + diurnal fleet of 4-core AW servers.
    FleetDiurnal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ServerHot, Workload::ServerLightAnalyze, Workload::FleetDiurnal];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServerHot => "server_hot",
            Workload::ServerLightAnalyze => "server_light_analyze",
            Workload::FleetDiurnal => "fleet_diurnal",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Calls into a simulate or analyze function per op: the unit of
    /// `attempted` and `failed`.
    #[must_use]
    pub fn calls_per_op(self) -> usize {
        match self {
            Workload::ServerHot => 2,
            Workload::ServerLightAnalyze => 6,
            Workload::FleetDiurnal => 1,
        }
    }
}

/// The simulation seed a workload uses for benchmark seed `seed`
/// (splitmix64 of the seed mixed with the workload's index in
/// [`Workload::ALL`], so new workloads go at the end: the pinned digests
/// depend on it).
#[must_use]
pub fn derive_seed(seed: u64, workload: Workload) -> u64 {
    let index = Workload::ALL.iter().position(|w| *w == workload).expect("listed") as u64;
    let mut z = seed.wrapping_add((index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Idle analysis of the light workload: its timeline window and the
/// common AW-menu yardstick both menus are scored against.
#[derive(Debug)]
pub struct Analysis {
    window: Nanos,
    yardstick: BreakEven,
}

/// Everything built before the first simulate call.
#[derive(Debug)]
pub enum Setup {
    /// A single server under the Baseline and AW menus.
    Server {
        /// `(menu, config)` pairs, Baseline first.
        runs: Vec<(NamedConfig, ServerConfig)>,
        /// The request stream.
        workload: WorkloadSpec,
        /// Simulation seed (common random numbers for both menus).
        seed: u64,
        /// `Some` for `server_light_analyze`.
        analysis: Option<Box<Analysis>>,
    },
    /// A fleet.
    Fleet(Box<FleetConfig>),
}

/// Builds a workload's inputs: the hardware-model lookup, the server or
/// fleet configuration, and the request stream.
///
/// # Errors
///
/// Returns an error if the hardware model is not registered.
pub fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let hw = HardwareModel::by_name(HW).map_err(|e| e.to_string())?;
    let seed = derive_seed(seed, workload);
    let server = |cores, named, duration_ms| {
        ServerConfig::for_hw(hw, cores, named).with_duration(Nanos::from_millis(duration_ms))
    };
    let menus = [NamedConfig::Baseline, NamedConfig::Aw];
    Ok(match workload {
        Workload::ServerHot => Setup::Server {
            runs: menus.map(|n| (n, server(SERVER_CORES, n, HOT_DURATION_MS))).to_vec(),
            workload: memcached_etc(HOT_QPS),
            seed,
            analysis: None,
        },
        Workload::ServerLightAnalyze => {
            let duration = Nanos::from_millis(LIGHT_DURATION_MS);
            Setup::Server {
                runs: menus.map(|n| (n, server(SERVER_CORES, n, LIGHT_DURATION_MS))).to_vec(),
                workload: memcached_etc(LIGHT_QPS),
                seed,
                analysis: Some(Box::new(Analysis {
                    window: SimBuilder::default_window(duration),
                    yardstick: BreakEven::from_server(&ServerConfig::for_hw(
                        hw,
                        SERVER_CORES,
                        NamedConfig::Aw,
                    )),
                })),
            }
        }
        Workload::FleetDiurnal => {
            let proto = ServerConfig::for_hw(hw, FLEET_CORES, NamedConfig::Aw);
            let mut fleet = FleetConfig::new(FLEET_SERVERS, proto, memcached_etc(1_000.0), 1.0)
                .with_epochs(FLEET_EPOCHS, Nanos::from_millis(FLEET_EPOCH_MS))
                .with_policy(RoutingPolicy::Packing)
                .with_autoscale(AutoscalePolicy::default())
                .with_load(LoadShape::Diurnal { amplitude: FLEET_DIURNAL_AMPLITUDE })
                .with_seed(seed);
            fleet.total_qps = FLEET_UTILIZATION * fleet.capacity_qps() * FLEET_SERVERS as f64;
            Setup::Fleet(Box::new(fleet))
        }
    })
}

/// One analysis call's outputs: the report and its CSV and JSON exports.
#[derive(Debug)]
pub struct Analyzed {
    /// The idle-opportunity report.
    pub report: IdleReport,
    /// `IdleReport::to_csv`.
    pub csv: String,
    /// `IdleReport::to_json`.
    pub json: String,
}

/// One fleet epoch as seen from the observer callbacks.
#[derive(Debug, Clone, Copy)]
pub struct EpochSample {
    /// Wall seconds since the previous callback (the first since the
    /// run began, so it includes the serial plan phase).
    pub wall_s: f64,
    /// Process CPU seconds over the same gap.
    pub cpu_s: f64,
}

/// What one op produced, kept for the output check and the layer counts
/// after its timing ends.
#[derive(Debug)]
pub enum Artifacts {
    /// A single-server op.
    Server {
        /// One output per menu, Baseline first.
        runs: Vec<RunOutput>,
        /// Per run: the attribution timeline as CSV and JSON (light only).
        timelines: Vec<(String, String)>,
        /// Per run: analysis against its own break-even model, then
        /// against the AW yardstick (light only).
        analyses: Vec<Analyzed>,
    },
    /// A fleet op.
    Fleet {
        /// The fleet report.
        report: Box<FleetReport>,
        /// Per-epoch callback gaps (traced ops only).
        epochs: Vec<EpochSample>,
        /// Process CPU seconds over `FleetSim::run_observed`.
        run_cpu_s: f64,
        /// Wall seconds over `FleetSim::run_observed`.
        run_wall_s: f64,
    },
}

/// `(boundary, RSS MiB, high-water MiB)` read after an op phase.
pub type MemReading = (&'static str, f64, f64);

/// Runs one op, recording a span around each layer call when `rec` is
/// enabled, and reading memory at the simulate/analyze/report
/// boundaries when `probe_memory` is set.
#[must_use]
pub fn run_op(
    setup: &Setup,
    rec: &mut SpanRecorder,
    op: u64,
    probe_memory: bool,
) -> (Artifacts, Vec<MemReading>) {
    let mut mem = Vec::new();
    let mut boundary = |name| {
        if probe_memory {
            let (rss, hwm) = memory_mb();
            mem.push((name, rss, hwm));
        }
    };
    rec.begin("op", op);
    let artifacts = match setup {
        Setup::Server { runs, workload, seed, analysis } => {
            let outputs: Vec<RunOutput> = runs
                .iter()
                .map(|(_, config)| {
                    let mut builder = SimBuilder::new(config.clone(), workload.clone(), *seed);
                    if let Some(a) = analysis {
                        builder = builder.with_idle_analysis().with_attribution(a.window);
                    }
                    rec.time("server.run", op, || builder.run())
                })
                .collect();
            boundary("simulate");
            let mut analyses = Vec::new();
            if let Some(a) = analysis {
                for ((_, config), out) in runs.iter().zip(&outputs) {
                    let intervals = out.idle_intervals.as_deref().unwrap_or(&[]);
                    let own = rec.time("sleep.analyze", op, || {
                        IdleReport::analyze(
                            intervals,
                            &BreakEven::from_server(config),
                            config.cores,
                            a.window,
                        )
                    });
                    let vs_aw = rec.time("sleep.analyze", op, || {
                        IdleReport::analyze(intervals, &a.yardstick, config.cores, a.window)
                    });
                    analyses.extend([own, vs_aw].map(|report| Analyzed {
                        report,
                        csv: String::new(),
                        json: String::new(),
                    }));
                }
            }
            boundary("analyze");
            let timelines = rec.time("telemetry.export", op, || {
                for a in &mut analyses {
                    a.csv = a.report.to_csv();
                    a.json = a.report.to_json();
                }
                outputs
                    .iter()
                    .filter_map(|out| out.attribution.as_ref())
                    .map(|attr| (attr.timeline.to_csv(), attr.timeline.to_json()))
                    .collect()
            });
            rec.time("report.format", op, || black_box(format_server(runs, &outputs, workload)));
            boundary("report");
            Artifacts::Server { runs: outputs, timelines, analyses }
        }
        Setup::Fleet(config) => {
            let sim = FleetSim::new(FleetConfig::clone(config));
            let (cpu0, t0) = (process_cpu_seconds(), Instant::now());
            rec.begin("cluster.run", op);
            let (report, epochs) = if rec.enabled() {
                let mut clock = EpochClock {
                    rec: &mut *rec,
                    op,
                    last: (t0, cpu0),
                    epochs: Vec::new(),
                    finish: None,
                };
                let report = sim.run_observed(&mut clock);
                let (epochs, finish) = (clock.epochs, clock.finish.unwrap_or(t0));
                rec.record("cluster.report", op, finish, Instant::now());
                (report, epochs)
            } else {
                (sim.run_observed(&mut NullFleetObserver), Vec::new())
            };
            rec.end();
            let (run_cpu_s, run_wall_s) =
                (process_cpu_seconds() - cpu0, t0.elapsed().as_secs_f64());
            boundary("simulate");
            boundary("analyze");
            rec.time("report.format", op, || {
                black_box(format!("{report}\n{}", report.timeline_csv()))
            });
            boundary("report");
            Artifacts::Fleet { report: Box::new(report), epochs, run_cpu_s, run_wall_s }
        }
    };
    rec.end();
    (artifacts, mem)
}

/// Times the gaps between fleet epoch callbacks.
struct EpochClock<'a> {
    rec: &'a mut SpanRecorder,
    op: u64,
    /// Wall instant and process CPU seconds at the previous callback.
    last: (Instant, f64),
    epochs: Vec<EpochSample>,
    finish: Option<Instant>,
}

impl FleetObserver for EpochClock<'_> {
    fn on_epoch(&mut self, _event: &FleetEpochEvent) {
        let (now, cpu) = (Instant::now(), process_cpu_seconds());
        let (then, cpu_then) = self.last;
        self.rec.record("cluster.epoch", self.op, then, now);
        self.epochs.push(EpochSample {
            wall_s: now.duration_since(then).as_secs_f64(),
            cpu_s: cpu - cpu_then,
        });
        self.last = (now, cpu);
    }

    fn on_finish(&mut self) {
        self.finish = Some(Instant::now());
    }
}

/// The results table of a single-server op (plus the attribution table
/// when attribution ran), as text and CSV.
fn format_server(
    runs: &[(NamedConfig, ServerConfig)],
    outputs: &[RunOutput],
    workload: &WorkloadSpec,
) -> String {
    let mut table = TextTable::new(
        format!("{} @ {:.0} QPS", workload.name(), workload.offered_qps()),
        &["config", "core power (W)", "p50 (us)", "p99 (us)", "C0 (%)", "events"],
    );
    let mut text = String::new();
    for ((named, _), out) in runs.iter().zip(outputs) {
        let m = &out.metrics;
        table.push_row(vec![
            named.to_string(),
            format!("{:.3}", m.avg_core_power.as_watts()),
            format!("{:.2}", m.server_latency.p50.as_micros()),
            format!("{:.2}", m.server_latency.p99.as_micros()),
            format!("{:.1}", m.residency_of(agilewatts::aw_cstates::CState::C0).as_percent()),
            m.events.to_string(),
        ]);
        if let Some(summary) = &m.attribution {
            text.push_str(&attribution_table(summary).to_string());
        }
    }
    format!("{table}{}{text}", table.to_csv())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct_per_workload() {
        let seeds: Vec<u64> = Workload::ALL.iter().map(|&w| derive_seed(7, w)).collect();
        assert_eq!(seeds, Workload::ALL.iter().map(|&w| derive_seed(7, w)).collect::<Vec<_>>());
        assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2] && seeds[0] != seeds[2]);
        assert_ne!(derive_seed(7, Workload::ServerHot), derive_seed(8, Workload::ServerHot));
    }

    #[test]
    fn fleet_load_is_a_share_of_total_capacity() {
        let Ok(Setup::Fleet(fleet)) = setup(Workload::FleetDiurnal, 1) else {
            panic!("fleet set-up")
        };
        assert!((fleet.utilization() - FLEET_UTILIZATION).abs() < 1e-12);
        assert_eq!(fleet.epochs, FLEET_EPOCHS);
    }
}
