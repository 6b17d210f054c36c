//! Shortened runs of every workload, checked against `BENCHMARK.json`.

use std::collections::BTreeSet;
use tpc_perfbench::alloc::CountingAlloc;
use tpc_perfbench::report::Metric;
use tpc_perfbench::run::attempt;
use tpc_perfbench::workload::{Sizes, Workload};
use tpc_processor::{SimStats, Simulator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SHORT: Sizes = Sizes {
    warmup: 20_000,
    window: 60_000,
};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    text.lines()
        .skip_while(|l| !l.contains(&format!("\"{section}\"")))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| (field(l, "name").unwrap(), field(l, "unit").unwrap()))
        .collect()
}

fn short_run(w: Workload, trace: bool) -> tpc_perfbench::Outcome {
    let out = tpc_perfbench::run(w, 1, 0.001, trace, SHORT);
    assert!(out.report.correct, "{}: {:?}", w.name(), out.errors);
    assert_eq!(out.report.failed, 0);
    out
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).unwrap().value
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty());
        for w in Workload::ALL {
            let out = short_run(w, trace);
            let got: Vec<(String, String)> = out
                .report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} {section}", w.name());
            let json = out.report.json();
            for (name, unit) in &want {
                assert!(json.contains(&format!("\"{name}\": {{\"value\": ")));
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
            }
        }
    }
}

#[test]
fn exact_metrics_repeat_bit_for_bit() {
    let exact = |m: &Metric| {
        !(m.name.contains("ns_per")
            || m.name.ends_with("_s")
            || m.name.ends_with("minstr_per_s")
            || m.name.ends_with("_ms")
            || m.name == "peak_rss_mb")
    };
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = short_run(w, trace).report.metrics;
            let b = short_run(w, trace).report.metrics;
            let a: Vec<_> = a.iter().filter(|m| exact(m)).collect();
            let b: Vec<_> = b.iter().filter(|m| exact(m)).collect();
            assert!(a.len() >= 2);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "{} {}",
                    w.name(),
                    x.name
                );
            }
        }
        let (r1, r2) = (attempt(w, 1, SHORT).unwrap(), attempt(w, 1, SHORT).unwrap());
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.allocs, r2.allocs);
        assert!(r1.allocs.calls > 0, "the counting allocator is installed");
    }
}

#[test]
fn window_counters_cover_the_window_only() {
    for w in Workload::ALL {
        let ours = attempt(w, 1, SHORT).unwrap().stats;
        // The repository's own warmup-then-measure flow resets every
        // counter except the engine's, the D-cache's and the faults'.
        let program = w.build(1);
        let mut sim = Simulator::new(&program, w.config());
        let reset = sim.run_with_warmup(SHORT.warmup, SHORT.window);
        let full = sim.stats();
        assert_eq!(
            SimStats {
                engine: ours.engine,
                dcache: ours.dcache,
                faults: ours.faults,
                ..reset
            },
            ours,
            "{}",
            w.name()
        );
        assert!(ours.dcache.loads < full.dcache.loads);
        if w.config().engine.enabled {
            assert!(ours.engine.traces_built < full.engine.traces_built);
        }
    }
}

#[test]
fn engine_counts_are_zero_with_the_engine_off() {
    let metrics = short_run(Workload::GccBaseline, true).report.metrics;
    for m in metrics.iter().filter(|m| m.name.starts_with("engine.")) {
        if m.name != "engine.ns_per_cycle" {
            assert_eq!(m.value, 0.0, "{}", m.name);
        }
    }
    assert_eq!(value(&metrics, "store.precon_fills_per_kinstr"), 0.0);
    let precon = short_run(Workload::GccPrecon, true).report.metrics;
    assert!(value(&precon, "engine.traces_built_per_kinstr") > 0.0);
}

#[test]
fn traced_span_names_match_per_layer_metric_names() {
    let layers: BTreeSet<String> = declared("per_layer")
        .into_iter()
        .map(|(name, _)| name.split('.').next().unwrap().to_string())
        .collect();
    let timed: BTreeSet<String> = declared("per_layer")
        .into_iter()
        .filter(|(name, _)| name.contains("ns_per") || name.ends_with("_ms"))
        .map(|(name, _)| name.split('.').next().unwrap().to_string())
        .collect();
    for w in Workload::ALL {
        let out = short_run(w, true);
        let spans = out.spans.all();
        let named: BTreeSet<String> = spans
            .iter()
            .map(|s| s.name.split('.').next().unwrap().to_string())
            .collect();
        assert!(named.is_subset(&layers), "{named:?} not in {layers:?}");
        assert!(timed.is_subset(&named), "{timed:?} not all in {named:?}");
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let p = &spans[p];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
    }
}

#[test]
fn the_command_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_tpc-perfbench");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "gcc_precon",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &[
            "--workload",
            "gcc_precon",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &["--workload", "gcc_precon", "--seconds", "1", "--trace", "0"],
    ] {
        let out = std::process::Command::new(bin).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
