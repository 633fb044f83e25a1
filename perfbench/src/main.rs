//! End-to-end and per-layer benchmark of the tmr-fpga workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Every run prints a human-readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod campaign_mix;
mod layers;
mod paper_sweep;
mod service_store;
mod smoke;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tmr_fpga::faultsim::CampaignResult;
use tmr_fpga::sim::CompiledNetlist;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_sweep", "campaign_mix", "service_store"];

/// Environment knobs that change what the program does or how; all are
/// cleared so the program runs at its defaults.
const CLEARED_ENV: [&str; 5] = [
    "TMR_CACHE_DIR",
    "TMR_TRACE",
    "TMR_ROUTE",
    "TMR_SHARDS",
    "TMR_SIM",
];

/// Where traces and temporary stores go, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench-out";

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one set-up and one operation per run.
    pub smoke: bool,
}

impl Config {
    /// How many times a run repeats its set-up; `setup_s` is the median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Whether a timed loop started at `start` that has completed `done`
    /// operations should run another one.
    pub fn more(&self, start: Instant, done: usize) -> bool {
        done == 0 || (!self.smoke && start.elapsed() < Duration::from_secs_f64(self.seconds))
    }
}

/// The result of one run: operation counts, failed checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a correctness check; a failed one counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Prints one line of the determinism record: exact counters that two runs
/// of the same code and seed must reproduce.
pub fn record(key: &str, value: impl std::fmt::Display) {
    println!("det {key} {value}");
}

/// The end-to-end metrics every workload reports (untraced runs).
pub fn end_to_end(
    report: &mut Report,
    setup: &[f64],
    operations: &[f64],
    faults: usize,
    busy_s: f64,
    operation: &str,
) {
    println!("setup: {}", stats::describe(setup, 1.0, "s"));
    println!("{operation}: {}", stats::describe(operations, 1.0, "s"));
    report.metric("setup_s", stats::median(setup), "s");
    report.metric("peak_rss_mb", stats::peak_rss_mib(), "MiB");
    report.metric("op_p50_s", stats::median(operations), "s");
    report.metric("faults_per_s", faults as f64 / busy_s, "faults/s");
}

/// Variant names of the per-variant routing counters.
pub const VARIANTS: [&str; 5] = ["standard", "tmr_p1", "tmr_p2", "tmr_p3", "tmr_p3_nv"];

/// Work counters of the layers, summed over one traced run.
#[derive(Debug, Default)]
pub struct LayerCounters {
    pub cells: u64,
    pub devices_built: u64,
    pub wirelength: u64,
    /// Per variant: iterations, nodes expanded, rip-ups.
    pub route: BTreeMap<String, (u64, u64, u64)>,
    pub bits_set: u64,
    pub ops: u64,
    pub levels: u64,
    pub injected: u64,
    pub simulated: u64,
    pub levels_skipped: u64,
    pub max_lanes: u64,
}

impl LayerCounters {
    pub fn implemented(&mut self, implemented: &layers::Implemented) {
        let routed = &implemented.routed;
        self.cells += routed.netlist().cell_count() as u64;
        self.wirelength += routed.placement().wirelength();
        self.bits_set += routed.bitstream().count_ones() as u64;
        let telemetry = &implemented.telemetry;
        let entry = self.route.entry(implemented.name.clone()).or_default();
        entry.0 += telemetry.iteration_count() as u64;
        entry.1 += telemetry.total_nodes_expanded();
        entry.2 += telemetry.total_rip_ups() as u64;
    }

    pub fn compiled(&mut self, compiled: &CompiledNetlist) {
        self.ops += compiled.op_count() as u64;
        self.levels += compiled.level_count() as u64;
    }

    pub fn campaign(&mut self, result: &CampaignResult) {
        self.injected += result.injected() as u64;
        self.simulated += result.simulated as u64;
        self.levels_skipped += result.stats.levels_skipped;
        self.max_lanes = self.max_lanes.max(result.stats.max_lanes_per_word);
    }
}

/// Prints the static-analysis layer figures of a traced run (the workloads
/// that analyze do not share them with `service_store`, so they are not in
/// `BENCHMARK.json`).
pub fn print_analyze<'a>(
    tracer: &trace::Tracer,
    analyses: impl IntoIterator<Item = &'a tmr_fpga::analyze::StaticAnalysis>,
) {
    let seconds = tracer.self_seconds().get("analyze").copied().unwrap_or(0.0);
    let (mut bits, mut observable) = (0, 0);
    for analysis in analyses {
        bits += analysis.bit_count();
        observable += analysis.observable_bits().len();
    }
    println!(
        "analyze.self_s {seconds:.4} s · analyze.bits_per_s {:.0} bits/s · \
         analyze.observable_ratio {:.4}",
        bits as f64 / seconds.max(f64::MIN_POSITIVE),
        observable as f64 / bits.max(1) as f64
    );
}

/// The per-layer metrics every workload reports (traced runs), plus a
/// printed table of every layer's self time, including the layers only
/// some workloads exercise.
pub fn per_layer(
    report: &mut Report,
    tracer: &trace::Tracer,
    counters: &LayerCounters,
    overhead_s: f64,
    workload: &str,
    seed: u64,
) {
    let own = tracer.self_seconds();
    let layers = tracer.layer_seconds();
    let total: f64 = layers.values().sum();
    println!("layer self time (traced run, {total:.3} s of spans):");
    let mut ranked: Vec<_> = layers.iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(a.1));
    for (layer, seconds) in &ranked {
        println!(
            "  {layer:<10} {seconds:>9.4} s {:>6.1} %",
            100.0 * *seconds / total.max(f64::MIN_POSITIVE)
        );
    }
    if let Some((largest, _)) = ranked.iter().find(|(layer, _)| **layer != "bench") {
        println!("largest layer: {largest}");
    }
    println!("tracing overhead (traced total - untraced total): {overhead_s:.4} s");
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let call = |name: &str| own.get(name).copied().unwrap_or(0.0);
    report.metric("tmr.self_s", layer("tmr"), "s");
    report.metric("synth.self_s", layer("synth"), "s");
    report.metric("synth.cells", counters.cells as f64, "count");
    report.metric("arch.device_s", layer("arch"), "s");
    report.metric("arch.devices_built", counters.devices_built as f64, "count");
    report.metric("place.self_s", layer("place"), "s");
    report.metric("place.wirelength", counters.wirelength as f64, "count");
    report.metric("route.self_s", layer("route"), "s");
    let sum = |pick: fn(&(u64, u64, u64)) -> u64| counters.route.values().map(pick).sum::<u64>();
    report.metric("route.iterations", sum(|r| r.0) as f64, "count");
    report.metric("route.nodes_expanded", sum(|r| r.1) as f64, "count");
    report.metric("route.ripped_up", sum(|r| r.2) as f64, "count");
    for variant in VARIANTS {
        let (iterations, nodes, _) = counters.route.get(variant).copied().unwrap_or_default();
        report.metric(
            format!("route.{variant}.iterations"),
            iterations as f64,
            "count",
        );
        report.metric(
            format!("route.{variant}.nodes_expanded"),
            nodes as f64,
            "count",
        );
    }
    report.metric("bitgen.self_s", layer("bitgen"), "s");
    report.metric("bitgen.bits_set", counters.bits_set as f64, "count");
    report.metric("sim.compile_s", call("sim.compile"), "s");
    report.metric("sim.golden_s", call("sim.golden"), "s");
    report.metric("sim.ops", counters.ops as f64, "count");
    report.metric("sim.levels", counters.levels as f64, "count");
    report.metric("faultsim.self_s", layer("faultsim"), "s");
    report.metric("faultsim.injected", counters.injected as f64, "count");
    report.metric("faultsim.simulated", counters.simulated as f64, "count");
    report.metric(
        "faultsim.simulated_ratio",
        counters.simulated as f64 / counters.injected.max(1) as f64,
        "ratio",
    );
    report.metric(
        "faultsim.levels_skipped",
        counters.levels_skipped as f64,
        "count",
    );
    report.metric("faultsim.max_lanes", counters.max_lanes as f64, "count");
    report.metric("trace.overhead_s", overhead_s, "s");

    let path = PathBuf::from(OUT_DIR).join(format!("trace-{workload}-seed{seed}.json"));
    match tracer.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(err) => eprintln!("cannot write {}: {err}", path.display()),
    }
}

/// Runs one workload and returns its report.
pub fn run_workload(workload: &str, config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let outcome = match workload {
        "paper_sweep" => paper_sweep::run(config, &mut report).map_err(|err| err.to_string()),
        "campaign_mix" => campaign_mix::run(config, &mut report).map_err(|err| err.to_string()),
        "service_store" => service_store::run(config, &mut report),
        other => return Err(format!("unknown workload {other:?} (known: {WORKLOADS:?})")),
    };
    outcome.map_err(|err| format!("{workload}: {err}"))?;
    Ok(report)
}

fn usage() -> String {
    "usage: tmr-perfbench --workload <paper_sweep|campaign_mix|service_store> --seed <n> \
     --seconds <s> --trace <0|1>\n       tmr-perfbench --smoke"
        .to_string()
}

fn parse_args() -> Result<Option<(String, Config)>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return Ok(None);
    }
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => config.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => config.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(Some((workload, config)))
}

fn main() -> ExitCode {
    for name in CLEARED_ENV {
        std::env::remove_var(name);
    }
    let parsed = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let Some((workload, config)) = parsed else {
        return smoke::run();
    };
    match run_workload(&workload, &config) {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
