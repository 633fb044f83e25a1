//! `paper_sweep`: the paper's Table-3 experiment as users run it — a cold
//! `Sweep::paper` over the small 5-tap FIR, all five variants on a 24x24
//! device, static analysis on and a single-bit campaign per variant.
//! Routing, placement and static analysis do most of the work.

use crate::layers::{self, Implemented};
use crate::stats::SeedStream;
use crate::trace::Tracer;
use crate::{Config, LayerCounters, Report};
use std::sync::Arc;
use std::time::Instant;
use tmr_fpga::analyze::StaticAnalysis;
use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::faultsim::{CampaignBuilder, CampaignResult};
use tmr_fpga::flow::{Sweep, SweepReport};
use tmr_fpga::sim::CompiledNetlist;
use tmr_fpga::synth::Design;
use tmr_fpga::Error;

/// Placement seed of every variant. It is part of the workload, not drawn
/// from `--seed`: the tmr_p1 routing effort ranges over 3x between
/// placement seeds, which no run length averages out (see README).
const PLACEMENT_SEED: u64 = 1;
const FAULTS: usize = 1500;
const CYCLES: usize = 16;

/// Wrong answers of the paper's Table 3 (hardware fault injection on an
/// XC2S200E), in percent of injected upsets; the TMR variants span 4.03 %
/// (P1) to 0.98 % (P2).
const PAPER_TABLE3: [(&str, f64); 5] = [
    ("standard", 97.10),
    ("tmr_p1", 4.03),
    ("tmr_p2", 0.98),
    ("tmr_p3", 1.56),
    ("tmr_p3_nv", 12.60),
];

/// The generated inputs: the campaign every variant runs.
pub fn inputs(seed: u64) -> CampaignBuilder {
    let mut seeds = SeedStream::new(seed);
    CampaignBuilder::new()
        .faults(FAULTS)
        .cycles(CYCLES)
        .sampling_seed(seeds.next_seed())
        .stimulus_seed(seeds.next_seed())
}

fn set_up() -> (Design, Device) {
    (FirFilter::small_filter().to_design(), Device::small(24, 24))
}

fn sweep(base: &Design, device: &Device, campaign: &CampaignBuilder) -> Result<SweepReport, Error> {
    Sweep::paper(base)
        .on_device(device)
        .seed(PLACEMENT_SEED)
        .analyze(true)
        .campaign(campaign.clone())
        .run()
}

/// The Table-3 checks: every variant routed and injected its whole sample,
/// and each TMR variant has fewer wrong answers than `standard`, all of
/// them domain-crossing.
fn check_table3<'a>(
    report: &mut Report,
    campaigns: impl IntoIterator<Item = (&'a str, &'a CampaignResult)>,
) {
    let campaigns: Vec<_> = campaigns.into_iter().collect();
    let standard = campaigns
        .iter()
        .find(|(name, _)| *name == "standard")
        .map(|(_, result)| result.wrong_answers());
    report.check(campaigns.len() == crate::VARIANTS.len(), || {
        format!("{} of 5 variants ran a campaign", campaigns.len())
    });
    for (name, result) in &campaigns {
        report.check(result.injected() == FAULTS, || {
            format!("{name}: injected {} of {FAULTS} planned", result.injected())
        });
        if *name == "standard" {
            continue;
        }
        report.check(Some(result.wrong_answers()) < standard, || {
            format!(
                "{name}: {} wrong answers, standard {standard:?}",
                result.wrong_answers()
            )
        });
        report.check(result.cross_domain_error_fraction() == 1.0, || {
            format!(
                "{name}: cross-domain error fraction {}",
                result.cross_domain_error_fraction()
            )
        });
    }
}

fn print_reference(campaigns: &[(&str, &CampaignResult)]) {
    println!("reference results: wrong answers here beside the paper's Table 3. This is the");
    println!("  small FIR on a 24x24 device, not the paper's 11-tap filter on an XC2S200E,");
    println!("  so the figures are not expected to agree and no error figure is given:");
    for (name, result) in campaigns {
        let paper = PAPER_TABLE3
            .iter()
            .find(|(variant, _)| variant == name)
            .map_or(f64::NAN, |(_, percent)| *percent);
        println!(
            "  {name:<10} {:>6.2} % of {} sampled bits · paper {paper:>6.2} %",
            result.wrong_answer_percent(),
            result.injected()
        );
    }
}

pub fn run(config: &Config, report: &mut Report) -> Result<(), Error> {
    let campaign = inputs(config.seed);
    if config.trace {
        return run_traced(config, report, &campaign);
    }
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..config.setup_repeats() {
        let start = Instant::now();
        prepared = Some(std::hint::black_box(set_up()));
        setup.push(start.elapsed().as_secs_f64());
    }
    let (base, device) = prepared.expect("at least one set-up");

    let mut sweeps = Vec::new();
    let mut injected = 0;
    let start = Instant::now();
    while config.more(start, sweeps.len()) {
        let began = Instant::now();
        let result = sweep(&base, &device, &campaign);
        sweeps.push(began.elapsed().as_secs_f64());
        report.attempted += crate::VARIANTS.len() as u64;
        let swept = match result {
            Ok(swept) => swept,
            Err(err) => {
                report.check(false, || format!("sweep failed: {err}"));
                continue;
            }
        };
        check_table3(report, swept.campaigns());
        injected += swept.campaigns().map(|(_, r)| r.injected()).sum::<usize>();
        if sweeps.len() == 1 {
            for variant in &swept.variants {
                if let Some(telemetry) = variant.routed.route_telemetry() {
                    crate::record(
                        &format!("route.{}.iterations", variant.name),
                        telemetry.iteration_count(),
                    );
                    crate::record(
                        &format!("route.{}.nodes_expanded", variant.name),
                        telemetry.total_nodes_expanded(),
                    );
                }
            }
            for (name, result) in swept.campaigns() {
                crate::record(&format!("faultsim.{name}.simulated"), result.simulated);
                crate::record(
                    &format!("faultsim.{name}.levels_skipped"),
                    result.stats.levels_skipped,
                );
                crate::record(
                    &format!("table3.{name}.digest"),
                    format!("{:016x}", layers::outcome_digest(result)),
                );
            }
            print_reference(&swept.campaigns().collect::<Vec<_>>());
        }
    }
    println!(
        "sweep_s: {} (cold Sweep::paper, 5 variants)",
        crate::stats::describe(&sweeps, 1.0, "s")
    );
    let busy = sweeps.iter().sum();
    crate::end_to_end(report, &setup, &sweeps, injected, busy, "sweep");
    Ok(())
}

/// One variant of the layer-driven sweep.
struct TracedVariant {
    implemented: Implemented,
    result: CampaignResult,
    analysis: StaticAnalysis,
    compiled: Arc<CompiledNetlist>,
}

/// Implements and evaluates every variant layer by layer on parallel
/// threads, as `Sweep::run` does: synthesis first for all variants, then
/// one thread per variant.
fn traced_sweep(
    tracer: &Tracer,
    base: &Design,
    device: &Device,
    campaign: &CampaignBuilder,
) -> Result<Vec<TracedVariant>, Error> {
    tracer.span("bench.sweep", "", None, |root| {
        layers::for_each_variant(tracer, root, base, |parent, name, netlist| {
            let implemented =
                layers::implement(tracer, parent, name, device, netlist, PLACEMENT_SEED)?;
            let options = campaign.options();
            let simulation = layers::simulation(
                tracer,
                parent,
                name,
                netlist,
                options.cycles(),
                options.stimulus_seed(),
            )?;
            let result = layers::campaign(
                tracer,
                parent,
                name,
                campaign,
                &simulation,
                device,
                &implemented.routed,
            )?;
            let analysis = layers::analyze(tracer, parent, name, device, &implemented.routed);
            Ok(TracedVariant {
                implemented,
                result,
                analysis,
                compiled: simulation.compiled,
            })
        })
    })
}

fn run_traced(
    config: &Config,
    report: &mut Report,
    campaign: &CampaignBuilder,
) -> Result<(), Error> {
    let tracer = Tracer::new(true);
    let mut counters = LayerCounters::default();
    let base = FirFilter::small_filter().to_design();
    let device = tracer.span("arch.device_new", "", None, |_| Device::small(24, 24));
    counters.devices_built += 1;

    let began = Instant::now();
    let reference = sweep(&base, &device, campaign)?;
    let untraced = began.elapsed().as_secs_f64();

    let began = Instant::now();
    let variants = traced_sweep(&tracer, &base, &device, campaign)?;
    let traced = began.elapsed().as_secs_f64();
    report.attempted += 2 * variants.len() as u64;

    for TracedVariant {
        implemented,
        result,
        compiled,
        ..
    } in &variants
    {
        counters.implemented(implemented);
        counters.campaign(result);
        counters.compiled(compiled);
        let name = &implemented.name;
        let Some(facade) = reference.variant(name) else {
            report.check(false, || format!("{name}: missing from Sweep::paper"));
            continue;
        };
        report.check(
            facade.routed.bitstream() == implemented.routed.bitstream(),
            || format!("{name}: layer-driven bitstream differs from Sweep::paper"),
        );
        report.check(facade.campaign.as_deref() == Some(result), || {
            format!("{name}: layer-driven campaign differs from Sweep::paper")
        });
    }
    check_table3(
        report,
        variants
            .iter()
            .map(|variant| (variant.implemented.name.as_str(), &variant.result)),
    );

    crate::print_analyze(&tracer, variants.iter().map(|v| &v.analysis));
    let cache = reference.cache;
    println!(
        "flow.cache_hits {} · flow.cache_misses {} · flow.hit_ratio {:.4} (untraced Sweep::paper)",
        cache.hits,
        cache.misses,
        cache.hit_rate()
    );
    println!("sweep: untraced {untraced:.3} s · traced {traced:.3} s");
    crate::per_layer(
        report,
        &tracer,
        &counters,
        traced - untraced,
        "paper_sweep",
        config.seed,
    );
    Ok(())
}
