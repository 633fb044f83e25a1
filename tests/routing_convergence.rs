//! PathFinder convergence regression (per-iteration router telemetry).
//!
//! The five small-FIR paper variants must route on the reference 24x24
//! device within a pinned negotiation-iteration budget and a pinned total
//! search effort. A placement, router or cost-schedule change that degrades
//! convergence shows up here as an iteration- or expansion-count regression
//! long before it becomes a routing failure. The pins only ever move down.

use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::flow::Sweep;
use tmr_fpga::pnr::{route_with_telemetry, RouterOptions};

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
