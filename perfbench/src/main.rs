//! The benchmark runner binary, started by `perfbench/run.py`.
//!
//! ```text
//! perfbench setup --workload W --seed S
//! perfbench run   --workload W --seed S --seconds T --trace 0|1 [--trace-out PATH]
//! ```
//!
//! `setup` builds the workload's inputs and prints the wall-clock time at
//! which the first simulate call would start. `run` does the same, then
//! repeats ops until `T` seconds have passed and prints one JSON object
//! with every op's timing, call digests and (traced ops) layer metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use agilewatts::aw_exec::set_default_jobs;
use agilewatts::aw_telemetry::json::JsonValue;
use perfbench::host::{memory_mb, process_cpu_seconds, unix_ns};
use perfbench::measure::{call_checks, events, layer_metrics, savings, CallCheck};
use perfbench::spans::{chrome_trace, SpanRecorder};
use perfbench::workloads::{run_op, setup, Setup, Workload};

/// Ops a run makes however short `--seconds` is: one warm-up, then at
/// least one traced and one untraced op.
const MIN_OPS: u64 = 3;

/// aw-exec workers: the benchmark host's `nproc`.
const JOBS: usize = 2;

#[derive(Debug)]
struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mode = argv.first().ok_or("usage: perfbench setup|run --workload W --seed S ...")?;
    let mut args = Args {
        mode: mode.clone(),
        workload: Workload::ServerHot,
        seed: 0,
        seconds: 1.0,
        trace: false,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--trace-out" => args.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    Ok(args)
}

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn calls_json(checks: &[CallCheck]) -> JsonValue {
    JsonValue::Array(checks.iter().map(CallCheck::to_json).collect())
}

/// Builds the inputs; returns them with the set-up seconds and the
/// timestamp taken right before the first simulate call.
fn timed_setup(args: &Args) -> Result<(Setup, f64, u64), String> {
    let t0 = Instant::now();
    let built = setup(args.workload, args.seed)?;
    let config_s = t0.elapsed().as_secs_f64();
    Ok((built, config_s, unix_ns()))
}

fn run_bench(args: &Args) -> Result<JsonValue, String> {
    set_default_jobs(JOBS);
    let (built, config_s, first_call) = timed_setup(args)?;
    let setup_mem = memory_mb();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rec = SpanRecorder::new(false);
    let mut ops = Vec::new();
    let mut first_savings = None;
    let mut op = 0u64;
    while op < MIN_OPS || Instant::now() < deadline {
        op += 1;
        let warmup = op == 1;
        // Traced and untraced ops alternate so both see the same host.
        let traced = args.trace && !warmup && op % 2 == 1;
        rec.set_enabled(traced);
        let (cpu0, t0) = (process_cpu_seconds(), Instant::now());
        let result = catch_unwind(AssertUnwindSafe(|| run_op(&built, &mut rec, op, traced)));
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), process_cpu_seconds() - cpu0);
        let mut fields = vec![
            ("op", JsonValue::UInt(op)),
            ("warmup", JsonValue::Bool(warmup)),
            ("traced", JsonValue::Bool(traced)),
            ("wall_s", num(wall_s)),
            ("cpu_s", num(cpu_s)),
        ];
        match result {
            Ok((artifacts, mem)) => {
                fields.push(("events", JsonValue::UInt(events(&artifacts))));
                fields.push(("calls", calls_json(&call_checks(&artifacts))));
                first_savings = first_savings.or_else(|| savings(&artifacts));
                if traced {
                    let mut layers = layer_metrics(rec.spans(), op, &artifacts, &mem, JOBS);
                    layers.push(("mem.rss_mb.setup".into(), setup_mem.0));
                    layers.push(("mem.hwm_mb.setup".into(), setup_mem.1));
                    let layers = layers.into_iter().map(|(k, v)| (k, num(v))).collect();
                    fields.push(("layers", JsonValue::Object(layers)));
                }
            }
            Err(_) => {
                rec.close_open();
                fields.push(("panicked", JsonValue::Bool(true)));
            }
        }
        ops.push(JsonValue::obj(fields));
    }

    // Fleet results must not depend on the worker count: replay the
    // inputs on one worker, untimed, as one more checked op.
    if matches!(built, Setup::Fleet(_)) {
        set_default_jobs(1);
        rec.set_enabled(false);
        let replay = catch_unwind(AssertUnwindSafe(|| run_op(&built, &mut rec, 0, false)));
        set_default_jobs(JOBS);
        ops.push(JsonValue::obj(match replay {
            Ok((artifacts, _)) => vec![
                ("replay", JsonValue::Bool(true)),
                ("calls", calls_json(&call_checks(&artifacts))),
            ],
            Err(_) => vec![("replay", JsonValue::Bool(true)), ("panicked", JsonValue::Bool(true))],
        }));
    }

    if let (Some(path), true) = (&args.trace_out, args.trace) {
        std::fs::write(path, chrome_trace(rec.spans()))
            .map_err(|e| format!("cannot write trace to '{path}': {e}"))?;
    }

    Ok(JsonValue::obj(vec![
        ("workload", JsonValue::str(args.workload.name())),
        ("seed", JsonValue::UInt(args.seed)),
        ("jobs", JsonValue::UInt(JOBS as u64)),
        ("calls_per_op", JsonValue::UInt(args.workload.calls_per_op() as u64)),
        ("first_call_unix_ns", JsonValue::UInt(first_call)),
        ("setup_config_s", num(config_s)),
        ("ops", JsonValue::Array(ops)),
        (
            "savings",
            first_savings.map_or(JsonValue::Null, |(power, p99)| {
                JsonValue::obj(vec![("power_pct", num(power)), ("p99_pct", num(p99))])
            }),
        ),
        ("peak_rss_mb", num(memory_mb().1)),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.mode.as_str() {
        "setup" => timed_setup(&args).map(|(built, config_s, first_call)| {
            std::hint::black_box(&built);
            JsonValue::obj(vec![
                ("first_call_unix_ns", JsonValue::UInt(first_call)),
                ("setup_config_s", num(config_s)),
            ])
        }),
        "run" => run_bench(&args),
        other => Err(format!("unknown mode '{other}' (expected setup or run)")),
    });
    match result {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
