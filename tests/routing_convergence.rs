//! PathFinder convergence regression (per-iteration router telemetry).
//!
//! The five small-FIR paper variants must route on the reference 24x24
//! device within a pinned negotiation-iteration budget and a pinned total
//! search effort. A placement, router or cost-schedule change that degrades
//! convergence shows up here as an iteration- or expansion-count regression
//! long before it becomes a routing failure. The pins only ever move down.

use tmr_fpga::arch::{Bitstream, Device};
use tmr_fpga::designs::FirFilter;
use tmr_fpga::flow::Sweep;
use tmr_fpga::pnr::{route_with_telemetry, RoutedDesign, RouterOptions};

/// Measured convergence today (range-limited annealing placement, A*
/// lookahead router with the contention-adaptive heuristic weight):
/// standard 5, tmr_p3_nv 6, tmr_p1 9, tmr_p2 9 and tmr_p3 10 iterations.
/// Before the placer's range limiter, tmr_p1 (the most congested variant on
/// the deliberately tight 24x24 device) took 114. The budget leaves
/// headroom for cost-schedule tweaks without letting convergence quietly
/// decay back toward that.
const ITERATION_BUDGET: usize = 30;

/// Ceiling on A* queue pops summed over the five variants (measured:
/// 271,890; 10.98 M before the placer's range limiter).
const NODES_EXPANDED_BUDGET: u64 = 1_000_000;

/// Ceiling on tmr_p1's placement wirelength, the cost the annealer
/// minimises (measured: 5,512; 10,908 before the range limiter).
const TMR_P1_WIRELENGTH_BUDGET: u64 = 7_000;

#[test]
fn paper_variants_route_within_the_iteration_budget() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let (device, flows) = Sweep::paper(&base)
        .on_device(&device)
        .flows()
        .expect("the paper variants implement on the 24x24 device");

    let mut nodes_expanded = 0;
    for (name, flow) in flows {
        let synthesized = flow.synthesized().expect("synthesis succeeds");
        let placed = flow.placed().expect("placement succeeds");
        if name == "tmr_p1" {
            let wirelength = placed.placement().wirelength();
            assert!(
                wirelength <= TMR_P1_WIRELENGTH_BUDGET,
                "tmr_p1 placement wirelength {wirelength} exceeds {TMR_P1_WIRELENGTH_BUDGET} \
                 — the annealer stopped converging"
            );
        }
        let (routes, telemetry) = route_with_telemetry(
            &device,
            synthesized.netlist(),
            placed.placement(),
            &RouterOptions::default(),
        );
        routes.unwrap_or_else(|error| panic!("variant {name} failed to route: {error}"));

        assert!(
            telemetry.converged(),
            "variant {name}: successful route must end with zero overused nodes"
        );
        nodes_expanded += telemetry.total_nodes_expanded();
        assert!(
            telemetry.iteration_count() >= 1,
            "variant {name}: telemetry must record every iteration"
        );
        assert!(
            telemetry.iteration_count() <= ITERATION_BUDGET,
            "variant {name}: router took {} negotiation iterations (budget {ITERATION_BUDGET}) \
             — convergence regressed",
            telemetry.iteration_count()
        );

        // The telemetry is self-consistent: iterations are numbered from 1,
        // the present-congestion factor never decreases, and only the first
        // iteration may route without any rip-ups.
        for (index, iteration) in telemetry.iterations.iter().enumerate() {
            assert_eq!(iteration.iteration, index + 1, "variant {name}");
            if index > 0 {
                assert!(
                    iteration.present_factor >= telemetry.iterations[index - 1].present_factor,
                    "variant {name}: present factor must be non-decreasing"
                );
                assert!(
                    iteration.ripped_up > 0,
                    "variant {name}: a non-first iteration only runs to resolve overuse"
                );
            }
        }
        assert_eq!(
            telemetry.iterations.last().map(|last| last.overused_nodes),
            Some(0),
            "variant {name}"
        );
    }
    assert!(
        nodes_expanded <= NODES_EXPANDED_BUDGET,
        "the five variants expanded {nodes_expanded} nodes (budget {NODES_EXPANDED_BUDGET}) \
         — convergence regressed"
    );
}

/// The exact routing of each paper variant on the 24x24 device: variant,
/// negotiation iterations, A* nodes expanded and the FNV-1a fingerprint of
/// the assembled bitstream.
///
/// Changing any of these values changes the routes every store entry and
/// pinned table was produced from, so it must bump
/// `IMPLEMENTATION_VERSION` in `src/flow/builder.rs` — otherwise a disk
/// store keeps serving routes the current router would not produce.
const PINNED_ROUTES: [(&str, usize, u64, u64); 5] = [
    ("standard", 5, 8_997, 0xc9e0_c19a_5e66_049d),
    ("tmr_p1", 9, 99_759, 0xdb3c_9a62_a89c_4423),
    ("tmr_p2", 9, 74_154, 0x710a_cdaf_2ce4_1232),
    ("tmr_p3", 10, 55_760, 0x6600_ddb3_2728_3c86),
    ("tmr_p3_nv", 6, 33_220, 0x5e45_f09c_acf3_c542),
];

/// FNV-1a over the bitstream's length and little-endian words.
fn bitstream_fingerprint(bitstream: &Bitstream) -> u64 {
    let bytes = (bitstream.len() as u64)
        .to_le_bytes()
        .into_iter()
        .chain(bitstream.words().iter().flat_map(|word| word.to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn paper_variants_route_exactly_as_pinned() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let (device, flows) = Sweep::paper(&base)
        .on_device(&device)
        .flows()
        .expect("the paper variants implement on the 24x24 device");

    let routed: Vec<(String, usize, u64, u64)> = flows
        .into_iter()
        .map(|(name, flow)| {
            let synthesized = flow.synthesized().expect("synthesis succeeds");
            let placed = flow.placed().expect("placement succeeds");
            let (routes, telemetry) = route_with_telemetry(
                &device,
                synthesized.netlist(),
                placed.placement(),
                &RouterOptions::default(),
            );
            let routes = routes.unwrap_or_else(|error| panic!("variant {name}: {error}"));
            let design = RoutedDesign::assemble(
                &device,
                synthesized.netlist(),
                placed.placement().clone(),
                routes,
            );
            (
                name,
                telemetry.iteration_count(),
                telemetry.total_nodes_expanded(),
                bitstream_fingerprint(design.bitstream()),
            )
        })
        .collect();
    let pinned: Vec<(String, usize, u64, u64)> = PINNED_ROUTES
        .iter()
        .map(|&(name, iterations, expanded, fingerprint)| {
            (name.to_string(), iterations, expanded, fingerprint)
        })
        .collect();
    assert_eq!(
        routed, pinned,
        "routes changed: bump IMPLEMENTATION_VERSION"
    );
}
