//! The campaign service used in-process (no daemon, no sockets): submit
//! two fault-injection jobs, watch their interleaved progress events, then
//! re-submit one of them and see it served from the disk store with zero
//! simulations.
//!
//! ```text
//! cargo run --release --example campaign_service
//! ```

use std::sync::Arc;
use tmr_fpga::Store;
use tmr_serve::{CampaignService, Event, JobSpec, ServiceConfig};

fn main() {
    // A throwaway disk store; point this at a persistent directory (or set
    // TMR_CACHE_DIR and use Store::from_env) to survive restarts.
    let dir = std::env::temp_dir().join(format!("tmr-campaign-example-{}", std::process::id()));
    let store = Arc::new(Store::open(&dir).expect("store directory is writable"));

    let (service, events) = CampaignService::new(ServiceConfig {
        workers: 1,
        store: Some(store.clone()),
    });

    // Two variants of the same design; the shared artifact cache means the
    // TMR transform and synthesis of common stages are not repeated.
    for variant in ["p2", "p3"] {
        let mut spec = JobSpec::new("counter:4");
        spec.variant = variant.to_string();
        spec.faults = 160;
        spec.cycles = 8;
        spec.batch = 32;
        spec.device = Some((8, 8));
        service
            .submit(Some(variant.to_string()), spec)
            .expect("the spec validates");
    }

    // Jobs advance one batch per turn and then requeue behind the other
    // job, so the progress events of both jobs interleave. (With a worker
    // per job, each job runs at its own pace and the order is up to timing.)
    let mut results = 0;
    while results < 2 {
        let event = events.recv().expect("the service is running");
        println!("{}", event.render());
        if matches!(event, Event::Result { .. } | Event::Error { .. }) {
            results += 1;
        }
    }

    // Same spec again: answered from the store, zero batches simulated.
    let mut spec = JobSpec::new("counter:4");
    spec.variant = "p2".to_string();
    spec.faults = 160;
    spec.cycles = 8;
    spec.batch = 32;
    spec.device = Some((8, 8));
    service
        .submit(Some("p2-again".to_string()), spec)
        .expect("the spec validates");
    loop {
        let event = events.recv().expect("the service is running");
        println!("{}", event.render());
        if matches!(event, Event::Result { .. } | Event::Error { .. }) {
            break;
        }
    }

    println!("disk store: {}", store.stats());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
