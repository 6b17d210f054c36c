//! Golden pins for the simulator's exact outputs.
//!
//! Each cell runs a short warmup+measure window and pins four
//! things: every `SimStats` checkpoint word, and three FNV-1a digests
//! a probe keeps over the whole run, warmup included: of every
//! retired `(pc, taken)` pair, of every pipeline event, and of the
//! preconstruction engine's activity (every start-point push, and the
//! key, length and successor of every trace it built; the empty
//! digest when the engine is off). A refactor or optimization of the
//! timing model must leave all four bit-identical; a deliberate model
//! change re-pins them from the table this test prints on a mismatch,
//! bumps `MODEL_VERSION` and appends a `PINS` row. Observing a run
//! must not change it: the words are the same with no probe.

use trace_preconstruction::core::{EngineProbe, FaultPlan, Filed, StartReason, TraceBuilder};
use trace_preconstruction::exec::Executor;
use trace_preconstruction::isa::Addr;
use trace_preconstruction::processor::{
    Probe, SimConfig, SimEvent, SimStats, Simulator, MODEL_VERSION,
};
use trace_preconstruction::workloads::{Benchmark, WorkloadBuilder};

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 60_000;

/// The pinned cells: name, benchmark and machine.
fn cells() -> Vec<(&'static str, Benchmark, SimConfig)> {
    let mut cells = Vec::new();
    for b in [Benchmark::Gcc, Benchmark::Compress] {
        let configs = [
            ("baseline", SimConfig::baseline(256)),
            ("precon", SimConfig::with_precon(128, 128)),
            ("preprocess", SimConfig::baseline(256).with_preprocess()),
            (
                "combined",
                SimConfig::with_precon(128, 128).with_preprocess(),
            ),
            ("unified", SimConfig::unified(256, 1, 4096)),
        ];
        for (name, config) in configs {
            cells.push((name, b, config));
        }
    }
    cells.push((
        "faulted",
        Benchmark::Gcc,
        SimConfig::with_precon(128, 128).with_faults(FaultPlan::all(7, 40)),
    ));
    cells
}

fn fnv64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The probe behind the pins: FNV-1a digests of the retirement
/// stream, of the pipeline events (each one's `Debug` form) and of the
/// engine's activity.
#[derive(Debug)]
struct Digests {
    retire: u64,
    events: u64,
    activity: u64,
}

impl Default for Digests {
    fn default() -> Self {
        Digests {
            retire: 0xcbf2_9ce4_8422_2325,
            events: 0xcbf2_9ce4_8422_2325,
            activity: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl EngineProbe for Digests {
    fn start_point(&mut self, addr: Addr, reason: StartReason, seq: u64) {
        let h = &mut self.activity;
        fnv64(h, &[0]);
        fnv64(h, &addr.word().to_le_bytes());
        fnv64(h, format!("{reason:?}").as_bytes());
        fnv64(h, &seq.to_le_bytes());
    }

    fn trace_emitted(&mut self, t: &TraceBuilder, _filed: Filed) {
        let (h, key) = (&mut self.activity, t.key());
        fnv64(h, &[1]);
        fnv64(h, &key.start.word().to_le_bytes());
        fnv64(h, &[key.branch_count]);
        fnv64(h, &key.outcomes.to_le_bytes());
        fnv64(h, &[t.len() as u8]); // narrow: len <= 16
        let succ = t.successor().map_or(u64::MAX, |a| u64::from(a.word()));
        fnv64(h, &succ.to_le_bytes());
    }
}

impl Probe for Digests {
    fn event(&mut self, event: SimEvent) {
        fnv64(&mut self.events, format!("{event:?}").as_bytes());
    }

    fn retired(&mut self, pc: Addr, taken: bool) {
        fnv64(&mut self.retire, &pc.word().to_le_bytes());
        fnv64(&mut self.retire, &[u8::from(taken)]);
    }
}

/// The measure-window words and the three digests of one cell.
fn run_cell(benchmark: Benchmark, config: SimConfig) -> (Vec<u64>, u64, u64, u64) {
    let program = WorkloadBuilder::new(benchmark).seed(1).build();
    let mut sim = Simulator::with_probe(Executor::new(&program), config, Digests::default());
    let stats = sim.run_with_warmup(WARMUP, MEASURE);
    sim.check_invariants().expect("invariants hold");
    let d = sim.probe();
    (stats.to_words(), d.retire, d.events, d.activity)
}

/// `(benchmark, config, retirement digest, event digest, activity
/// digest, words)`.
type Golden = (
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    [u64; SimStats::WORDS],
);

const GOLDEN: &[Golden] = &[
    (
        "Gcc",
        "baseline",
        0x1b18bd1eb1757ed3,
        0xb0a0ebab019823ca,
        0xcbf29ce484222325,
        [
            46398, 60010, 5473, 5469, 3631, 0, 1838, 21979, 2452, 4262, 1818, 898, 444, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 3631, 16868, 18981, 6918, 12364, 4884, 1854, 329, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "precon",
        0x1b18bd1eb1757ed3,
        0xec7a983e974f1067,
        0x7162f1f3d6429950,
        [
            39901, 60010, 5473, 5469, 2975, 1267, 1227, 15173, 400, 2893, 1818, 585, 84, 361, 2120,
            2598, 1429, 1009, 5, 156, 13406, 2445, 64, 8914, 4454, 10805, 4242, 9112, 19349, 7198,
            12364, 4884, 1854, 329, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "preprocess",
        0x1b18bd1eb1757ed3,
        0x7b18682bce9a59ce,
        0xcbf29ce484222325,
        [
            45004, 60010, 5473, 5469, 3631, 0, 1838, 21979, 2452, 4262, 1818, 901, 444, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 3631, 16883, 18597, 5893, 12364, 4884, 1854, 329, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "combined",
        0x1b18bd1eb1757ed3,
        0xe9f705fb98cbc42a,
        0x818752a3441644ae,
        [
            38517, 60010, 5473, 5469, 2975, 1233, 1261, 15499, 440, 2971, 1818, 599, 89, 356, 2154,
            2592, 1383, 1053, 7, 150, 12939, 2370, 64, 8741, 4454, 10419, 4208, 9378, 18808, 6123,
            12364, 4884, 1854, 329, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "unified",
        0x1b18bd1eb1757ed3,
        0xfc4b3328b6aeed18,
        0x43a3d85da9f22553,
        [
            39918, 60010, 5473, 5469, 3151, 1190, 1128, 13759, 411, 2650, 1818, 590, 87, 358, 1931,
            2632, 1377, 983, 4, 268, 12275, 2141, 36, 8867, 4454, 9866, 4341, 8726, 19285, 7566,
            12364, 4884, 1854, 329, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "baseline",
        0xfa7ddfd159b2e72b,
        0xb49dae346a09cb07,
        0xcbf29ce484222325,
        [
            15285, 60001, 7608, 7608, 7582, 0, 26, 324, 0, 55, 218, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 7582, 147, 1460, 6096, 9974, 6740, 103, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "precon",
        0xfa7ddfd159b2e72b,
        0x4835485d3381c3be,
        0x576b968f7b946fa9,
        [
            15197, 60001, 7608, 7608, 7532, 44, 32, 428, 0, 51, 218, 2, 0, 0, 41, 664, 642, 22, 0,
            0, 2629, 1194, 0, 2113, 7454, 1435, 7576, 125, 1448, 6048, 9974, 6740, 103, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "preprocess",
        0xfa7ddfd159b2e72b,
        0x1f86811785b2cde1,
        0xcbf29ce484222325,
        [
            14701, 60001, 7608, 7608, 7582, 0, 26, 324, 0, 55, 218, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 7582, 147, 1589, 5383, 9974, 6740, 103, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "combined",
        0xfa7ddfd159b2e72b,
        0xfae8459301b7075a,
        0xea3f6ed7f29e18e7,
        [
            14637, 60001, 7608, 7608, 7532, 44, 32, 428, 0, 51, 218, 2, 0, 0, 41, 668, 646, 22, 0,
            0, 2638, 1196, 0, 2118, 7454, 1442, 7576, 125, 1585, 5351, 9974, 6740, 103, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "unified",
        0xfa7ddfd159b2e72b,
        0x0417741d3bc82db5,
        0x4d1c0c62acae4475,
        [
            15180, 60001, 7608, 7608, 7578, 26, 4, 50, 0, 11, 218, 1, 0, 0, 1, 667, 634, 22, 0, 11,
            2590, 1183, 0, 2119, 7454, 1396, 7604, 24, 1468, 6084, 9974, 6740, 103, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "faulted",
        0x1b18bd1eb1757ed3,
        0x93cea6e9446aab90,
        0x9ad2b149019af96a,
        [
            43631, 60010, 5473, 5469, 2975, 703, 1791, 21778, 1105, 4198, 1818, 875, 206, 236,
            2008, 2528, 1592, 886, 2, 48, 7650, 1414, 2, 6818, 4454, 6188, 3678, 14215, 19084,
            6654, 12364, 4884, 1854, 329, 1726, 1730, 1718, 1787, 1744, 1721, 1688, 1693, 1715,
            1726, 376, 381, 864, 805, 1721, 1150, 60, 54,
        ],
    ),
];

/// Every pin of `GOLDEN`, append-only: `(MODEL_VERSION, digest of
/// GOLDEN)`. A re-pin appends a row under a bumped [`MODEL_VERSION`],
/// so checkpoints written by the old model stop matching.
const PINS: &[(u32, u64)] = &[
    (1, 0xab0b3a8b191641ab),
    (2, 0x43ef9756916c442e),
    (3, 0xc75b500d19bf1836),
];

/// FNV-1a digest of the whole `GOLDEN` table.
fn golden_digest() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (bench, name, retire, events, activity, words) in GOLDEN {
        for text in [bench, name] {
            fnv64(&mut h, text.as_bytes());
            fnv64(&mut h, &[0]);
        }
        for word in [retire, events, activity].into_iter().chain(words) {
            fnv64(&mut h, &word.to_le_bytes());
        }
    }
    h
}

#[test]
fn golden_pins_track_the_model_version() {
    let digest = golden_digest();
    assert_eq!(
        PINS.last(),
        Some(&(MODEL_VERSION, digest)),
        "GOLDEN changed: bump MODEL_VERSION and append a PINS row with digest {digest:#018x}"
    );
    assert!(
        PINS.windows(2).all(|w| w[0].0 < w[1].0),
        "PINS versions strictly increase"
    );
    let digests: std::collections::BTreeSet<u64> = PINS.iter().map(|pin| pin.1).collect();
    assert_eq!(digests.len(), PINS.len(), "every pin is a distinct GOLDEN");
}

#[test]
fn stats_and_logs_match_golden() {
    let mut actual = String::new();
    let mut mismatches = Vec::new();
    for (i, (name, benchmark, config)) in cells().into_iter().enumerate() {
        let bench = format!("{benchmark:?}");
        let (words, retire, events, activity) = run_cell(benchmark, config);
        actual.push_str(&format!(
            "    (\"{bench}\", \"{name}\", {retire:#018x}, {events:#018x}, {activity:#018x}, {words:?}),\n"
        ));
        match GOLDEN.get(i) {
            Some(g) if (g.0, g.1) == (bench.as_str(), name) => {
                if g.2 != retire || g.3 != events || g.4 != activity || g.5[..] != words[..] {
                    mismatches.push(format!("{bench}/{name}"));
                }
            }
            _ => mismatches.push(format!("{bench}/{name} (not pinned)")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatch in {mismatches:?}; this run's table:\n{actual}"
    );
}

/// Observing a run never perturbs it: every pinned cell, and a
/// unified store under faults, gives the same words with no probe as
/// with the digest probe.
#[test]
fn observing_a_run_never_changes_it() {
    let mut cells = cells();
    cells.push((
        "unified-faulted",
        Benchmark::Compress,
        SimConfig::unified(256, 1, 4096).with_faults(FaultPlan::all(3, 40)),
    ));
    for (name, benchmark, config) in cells {
        let program = WorkloadBuilder::new(benchmark).seed(1).build();
        let unobserved = Simulator::new(&program, config.clone()).run_with_warmup(WARMUP, MEASURE);
        let (observed, ..) = run_cell(benchmark, config);
        assert_eq!(unobserved.to_words(), observed, "{benchmark:?}/{name}");
    }
}

/// The words of the counters a warmup once leaked into the window:
/// the engine's, the D-cache's and the faults' (every other word 0).
fn leaky_words(s: &SimStats) -> Vec<u64> {
    SimStats {
        engine: s.engine,
        dcache: s.dcache,
        faults: s.faults,
        ..SimStats::default()
    }
    .to_words()
}

/// A warmup+measure result counts the measured window only: every
/// word equals the whole-run word minus the warmup snapshot, and the
/// whole-run invariants hold, with no slack, after both phases.
#[test]
fn warmup_window_is_the_difference_of_two_snapshots() {
    for (name, benchmark, config) in cells() {
        let program = WorkloadBuilder::new(benchmark).seed(1).build();
        let at = format!("{benchmark:?}/{name}");
        let mut windowed = Simulator::new(&program, config.clone());
        let window = windowed.run_with_warmup(WARMUP, MEASURE);
        windowed.check_invariants().expect(&at);
        let mut whole = Simulator::new(&program, config);
        let warm = whole.run(WARMUP);
        whole.check_invariants().expect(&at);
        let all = whole.run(MEASURE);
        whole.check_invariants().expect(&at);
        let difference: Vec<u64> = all
            .to_words()
            .iter()
            .zip(warm.to_words())
            .map(|(a, w)| a - w)
            .collect();
        assert_eq!(window.to_words(), difference, "{at}");
        // Each of those words that counted anything in the warmup is
        // strictly below its whole-run value.
        let warm_leaky = leaky_words(&warm);
        assert!(warm_leaky.iter().any(|&w| w > 0), "{at}");
        for ((w, a), b) in leaky_words(&window)
            .iter()
            .zip(leaky_words(&all))
            .zip(warm_leaky)
        {
            assert!(
                b == 0 || *w < a,
                "{at}: a window word {w} of {a} counts the warmup"
            );
        }
        if all.faults.injected() > 0 {
            assert_eq!(
                (window.faults.injected(), window.faults.landed()),
                (
                    all.faults.injected() - warm.faults.injected(),
                    all.faults.landed() - warm.faults.landed()
                ),
                "{at}"
            );
        }
    }
}
