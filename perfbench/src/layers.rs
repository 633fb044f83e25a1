//! The implementation pipeline driven layer by layer through the public
//! APIs, with one span around each layer call. This is what the facade's
//! `Flow` stages do (without the artifact cache); the traced runs use it so
//! every layer boundary is visible to the benchmark's own tracer.

use crate::trace::{SpanId, Tracer};
use std::sync::Arc;
use tmr_fpga::analyze::StaticAnalysis;
use tmr_fpga::arch::Device;
use tmr_fpga::faultsim::{CampaignBuilder, CampaignResult};
use tmr_fpga::netlist::Netlist;
use tmr_fpga::pnr::{
    place, route_with_telemetry, PlacerOptions, RouteTelemetry, RoutedDesign, RouterOptions,
};
use tmr_fpga::sim::{CompiledNetlist, GoldenRun};
use tmr_fpga::synth::{lower, optimize, techmap, Design};
use tmr_fpga::tmr::{apply_tmr, TmrConfig};
use tmr_fpga::Error;

/// The paper's five variants in Table 3 order, named as `Sweep::paper`
/// names them.
pub fn paper_variants() -> Vec<(String, Option<TmrConfig>)> {
    let mut variants = vec![("standard".to_string(), None)];
    for config in TmrConfig::paper_presets() {
        variants.push((format!("tmr_{}", config.label), Some(config)));
    }
    variants
}

/// Synthesizes every paper variant in order, then runs `each` on one thread
/// per variant inside a `bench.variant` span, as `Sweep::run` schedules
/// its flows. Results come back in variant order.
pub fn for_each_variant<T: Send>(
    tracer: &Tracer,
    root: Option<SpanId>,
    base: &Design,
    each: impl Fn(Option<SpanId>, &str, &Netlist) -> Result<T, Error> + Sync,
) -> Result<Vec<T>, Error> {
    let mut netlists = Vec::new();
    for (name, config) in paper_variants() {
        let netlist = synthesize(tracer, root, &name, base, config.as_ref())?;
        netlists.push((name, netlist));
    }
    let each = &each;
    std::thread::scope(|scope| {
        let handles: Vec<_> = netlists
            .iter()
            .map(|(name, netlist)| {
                scope.spawn(move || {
                    tracer.span("bench.variant", name, root, |parent| {
                        each(parent, name, netlist)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("variant thread panicked"))
            .collect()
    })
}

/// A placed, routed and configured variant.
pub struct Implemented {
    pub name: String,
    pub routed: RoutedDesign,
    pub telemetry: RouteTelemetry,
}

/// TMR transformation, then lowering, dead-logic elimination and LUT
/// mapping.
pub fn synthesize(
    tracer: &Tracer,
    parent: Option<SpanId>,
    key: &str,
    base: &Design,
    config: Option<&TmrConfig>,
) -> Result<Netlist, Error> {
    let protected = match config {
        Some(config) => tracer.span("tmr", key, parent, |_| apply_tmr(base, config))?,
        None => base.clone(),
    };
    let lowered = tracer.span("synth.lower", key, parent, |_| lower(&protected))?;
    let optimized = tracer.span("synth.optimize", key, parent, |_| optimize(&lowered));
    Ok(tracer.span("synth.techmap", key, parent, |_| techmap(&optimized))?)
}

/// Placement, negotiated routing and bitstream assembly on `device`.
pub fn implement(
    tracer: &Tracer,
    parent: Option<SpanId>,
    name: &str,
    device: &Device,
    netlist: &Netlist,
    placement_seed: u64,
) -> Result<Implemented, Error> {
    let options = PlacerOptions {
        seed: placement_seed,
        ..PlacerOptions::default()
    };
    let placement = tracer.span("place", name, parent, |_| place(device, netlist, &options))?;
    let (routes, telemetry) = tracer.span("route", name, parent, |_| {
        route_with_telemetry(device, netlist, &placement, &RouterOptions::default())
    });
    let routes = routes?;
    let routed = tracer.span("bitgen", name, parent, |_| {
        RoutedDesign::assemble(device, netlist, placement, routes)
    });
    Ok(Implemented {
        name: name.to_string(),
        routed,
        telemetry,
    })
}

/// Static criticality analysis of every configuration bit.
pub fn analyze(
    tracer: &Tracer,
    parent: Option<SpanId>,
    key: &str,
    device: &Device,
    routed: &RoutedDesign,
) -> StaticAnalysis {
    tracer.span("analyze", key, parent, |_| {
        StaticAnalysis::run(device, routed)
    })
}

/// The compiled simulator and the golden run a campaign reuses.
pub struct Simulation {
    pub compiled: Arc<CompiledNetlist>,
    pub golden: Arc<GoldenRun>,
}

pub fn simulation(
    tracer: &Tracer,
    parent: Option<SpanId>,
    key: &str,
    netlist: &Netlist,
    cycles: usize,
    stimulus_seed: u64,
) -> Result<Simulation, Error> {
    let compiled = tracer.span("sim.compile", key, parent, |_| {
        CompiledNetlist::compile(netlist)
    })?;
    let golden = tracer.span("sim.golden", key, parent, |_| {
        GoldenRun::compute(netlist, cycles, stimulus_seed)
    })?;
    Ok(Simulation {
        compiled: Arc::new(compiled),
        golden: Arc::new(golden),
    })
}

/// Runs `campaign` over a routed design with a precomputed simulation, the
/// way `Flow::campaign` configures it.
pub fn campaign(
    tracer: &Tracer,
    parent: Option<SpanId>,
    key: &str,
    campaign: &CampaignBuilder,
    simulation: &Simulation,
    device: &Device,
    routed: &RoutedDesign,
) -> Result<CampaignResult, Error> {
    let configured = campaign
        .clone()
        .golden(simulation.golden.clone())
        .compiled(simulation.compiled.clone());
    Ok(tracer.span("faultsim.run", key, parent, |_| {
        configured.run(device, routed)
    })?)
}

/// Digest of a campaign's Table-3 outcomes: every fault's bits, verdict,
/// class and domain crossing, in injection order.
pub fn outcome_digest(result: &CampaignResult) -> u64 {
    let mut digest = crate::stats::Digest::default();
    digest.write(result.simulated as u64);
    for outcome in &result.outcomes {
        for &bit in &outcome.bits {
            digest.write(bit as u64);
        }
        digest
            .write(u64::from(outcome.wrong_answer))
            .write(outcome.class as u64)
            .write(u64::from(outcome.crosses_domains))
            .write(outcome.first_error_cycle.map_or(u64::MAX, |c| c as u64));
    }
    digest.finish()
}
