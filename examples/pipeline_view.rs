//! Pipeline event viewer: a cycle-by-cycle log of trace dispatches,
//! slow-path builds, misprediction stalls and retirements — a compact
//! textual equivalent of a pipeline diagram, recorded by a probe.
//!
//! ```text
//! cargo run --release --example pipeline_view [benchmark] [n_events]
//! ```

use trace_preconstruction::exec::Executor;
use trace_preconstruction::processor::{
    EngineProbe, Probe, SimConfig, SimEvent, Simulator, SupplySource,
};
use trace_preconstruction::workloads::{Benchmark, WorkloadBuilder};

/// The probe recording every pipeline event.
struct Events(Vec<SimEvent>);

impl EngineProbe for Events {}

impl Probe for Events {
    fn event(&mut self, event: SimEvent) {
        self.0.push(event);
    }
}

fn main() {
    let benchmark: Benchmark = std::env::args()
        .nth(1)
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}")))
        .unwrap_or(Benchmark::Li);
    let n_events: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);

    let program = WorkloadBuilder::new(benchmark).seed(1).build();
    let config = SimConfig::with_precon(64, 64);
    let mut sim = Simulator::with_probe(Executor::new(&program), config, Events(Vec::new()));
    sim.run(30_000);

    println!("{benchmark}: last {n_events} pipeline events\n");
    println!("{:>10}  {:18} detail", "cycle", "event");
    let events = &sim.probe().0;
    for e in events.iter().skip(events.len().saturating_sub(n_events)) {
        match *e {
            SimEvent::Dispatch {
                cycle,
                start,
                len,
                pe,
                source,
            } => {
                let src = match source {
                    SupplySource::TraceCache => "trace cache",
                    SupplySource::PreconBuffer => "PRECON BUFFER",
                    SupplySource::SlowPath => "slow path",
                };
                println!(
                    "{cycle:>10}  {:18} {start} x{len:<2} on PE{pe} from {src}",
                    "dispatch"
                );
            }
            SimEvent::SlowBuildBegin { cycle, start } => {
                println!("{cycle:>10}  {:18} building trace @ {start}", "tc miss");
            }
            SimEvent::MispredictStall { cycle, until } => {
                println!(
                    "{cycle:>10}  {:18} frontend waits until {until}",
                    "mispredict"
                );
            }
            SimEvent::Retire { cycle, start } => {
                println!("{cycle:>10}  {:18} trace @ {start}", "retire");
            }
        }
    }
    let s = sim.stats();
    println!(
        "\nsummary: ipc={:.2}, {} dispatches ({} from buffers), {} slow builds",
        s.ipc(),
        s.trace_fetches,
        s.precon_buffer_hits,
        s.trace_cache_misses
    );
}
