//! Golden pins for the simulator's exact outputs.
//!
//! Each cell runs a short warmup+measure window and pins four
//! things: every `SimStats` checkpoint word, an FNV-1a digest of the
//! retirement log (every retired `(pc, taken)` pair, warmup
//! included), an FNV-1a digest of the pipeline event log, and an
//! FNV-1a digest of the preconstruction engine's activity log (every
//! start-point push, and the key, length and successor of every trace
//! it built; the empty log's digest when the engine is off). A
//! refactor or optimization of the timing model must leave all four
//! bit-identical; a deliberate model change re-pins them from the
//! table this test prints on a mismatch, bumps `MODEL_VERSION` and
//! appends a `PINS` row.

use trace_preconstruction::core::{EngineActivity, FaultPlan};
use trace_preconstruction::processor::{SimConfig, SimStats, Simulator, MODEL_VERSION};
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

/// FNV-1a digest of the engine activity log.
fn activity_digest(log: &[EngineActivity]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for a in log {
        match a {
            EngineActivity::StartPointPushed { addr, reason, seq } => {
                fnv64(&mut h, &[0]);
                fnv64(&mut h, &addr.word().to_le_bytes());
                fnv64(&mut h, format!("{reason:?}").as_bytes());
                fnv64(&mut h, &seq.to_le_bytes());
            }
            EngineActivity::TraceEmitted(t) => {
                let key = t.key();
                fnv64(&mut h, &[1]);
                fnv64(&mut h, &key.start.word().to_le_bytes());
                fnv64(&mut h, &[key.branch_count]);
                fnv64(&mut h, &key.outcomes.to_le_bytes());
                fnv64(&mut h, &[t.len() as u8]); // narrow: len <= 16
                let succ = t.successor().map_or(u64::MAX, |a| u64::from(a.word()));
                fnv64(&mut h, &succ.to_le_bytes());
            }
        }
    }
    h
}

/// The measure-window words and the three log digests of one cell.
fn run_cell(benchmark: Benchmark, mut config: SimConfig) -> (Vec<u64>, u64, u64, u64) {
    config.record_retirement = true;
    config.record_events = true;
    config.engine.record_activity = true;
    let program = WorkloadBuilder::new(benchmark).seed(1).build();
    let mut sim = Simulator::new(&program, config);
    let stats = sim.run_with_warmup(WARMUP, MEASURE);
    sim.check_invariants().expect("invariants hold");
    let mut retire = 0xcbf2_9ce4_8422_2325;
    for r in sim.take_retirement() {
        fnv64(&mut retire, &r.pc.word().to_le_bytes());
        fnv64(&mut retire, &[u8::from(r.taken)]);
    }
    let mut events = 0xcbf2_9ce4_8422_2325;
    for e in sim.events() {
        fnv64(&mut events, format!("{e:?}").as_bytes());
    }
    let activity = activity_digest(&sim.take_engine_activity());
    (stats.to_words(), retire, events, activity)
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
        0x0ead8d736ac7f9a6,
        0xcbf29ce484222325,
        [
            46744, 60010, 5473, 5469, 3631, 0, 1838, 21979, 2452, 4262, 1818, 982, 0, 4262, 444, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5469, 3631, 0, 1838, 0, 0, 3631, 17288, 18964,
            6861, 16239, 6846, 2717, 361, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0,
        ],
    ),
    (
        "Gcc",
        "precon",
        0x1b18bd1eb1757ed3,
        0x0c4bd77784df7f13,
        0xf2245ebc2ec07bd6,
        [
            40427, 60010, 5473, 5469, 2975, 1212, 1282, 15757, 454, 3011, 1818, 671, 0, 3011, 90,
            15257, 355, 2192, 3335, 1795, 1318, 6, 215, 16537, 2848, 111, 19892, 5905, 5469, 2975,
            1212, 1282, 9822, 157, 4187, 9830, 19344, 7066, 16239, 6846, 2717, 361, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "preprocess",
        0x1b18bd1eb1757ed3,
        0x95598b36e7287971,
        0xcbf29ce484222325,
        [
            45369, 60010, 5473, 5469, 3631, 0, 1838, 21979, 2452, 4262, 1818, 985, 0, 4262, 444, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5469, 3631, 0, 1838, 0, 0, 3631, 17303, 18590,
            5845, 16239, 6846, 2717, 361, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0,
        ],
    ),
    (
        "Gcc",
        "combined",
        0x1b18bd1eb1757ed3,
        0x34b8a0aea2defffc,
        0xdeeb4cfd99db7452,
        [
            39080, 60010, 5473, 5469, 2975, 1175, 1319, 16171, 449, 3095, 1818, 694, 0, 3095, 91,
            14700, 354, 2241, 3311, 1749, 1351, 9, 201, 16002, 2793, 106, 19301, 5905, 5469, 2975,
            1175, 1319, 9465, 143, 4150, 10113, 18822, 5995, 16239, 6846, 2717, 361, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "unified",
        0x1b18bd1eb1757ed3,
        0x3cd37d44b4961554,
        0x246efc8bcaf0de23,
        [
            40479, 60010, 5473, 5469, 3161, 1136, 1172, 14222, 459, 2736, 1818, 681, 0, 2736, 95,
            15066, 350, 1969, 3401, 1709, 1278, 5, 408, 14487, 2563, 27, 19542, 5905, 5469, 3161,
            1136, 1172, 8962, 271, 4297, 9435, 19316, 7431, 16239, 6846, 2717, 361, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "baseline",
        0xfa7ddfd159b2e72b,
        0xb49dae346a09cb07,
        0xcbf29ce484222325,
        [
            15285, 60001, 7608, 7608, 7582, 0, 26, 324, 0, 55, 218, 8, 0, 55, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 7608, 7582, 0, 26, 0, 0, 7582, 147, 1460, 6096, 13308, 8917, 216,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "precon",
        0xfa7ddfd159b2e72b,
        0x4835485d3381c3be,
        0x88220a6f456cfb60,
        [
            15197, 60001, 7608, 7608, 7532, 44, 32, 428, 0, 51, 218, 2, 0, 51, 0, 4028, 0, 41, 935,
            904, 31, 0, 0, 3642, 1508, 0, 5372, 9935, 7608, 7532, 44, 32, 1447, 0, 7576, 125, 1448,
            6048, 13308, 8917, 216, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "preprocess",
        0xfa7ddfd159b2e72b,
        0x1f86811785b2cde1,
        0xcbf29ce484222325,
        [
            14701, 60001, 7608, 7608, 7582, 0, 26, 324, 0, 55, 218, 8, 0, 55, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 7608, 7582, 0, 26, 0, 0, 7582, 147, 1589, 5383, 13308, 8917, 216,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "combined",
        0xfa7ddfd159b2e72b,
        0xfae8459301b7075a,
        0xb1c37816de078ab3,
        [
            14637, 60001, 7608, 7608, 7532, 44, 32, 428, 0, 51, 218, 2, 0, 51, 0, 4151, 0, 41, 975,
            941, 34, 0, 0, 3687, 1526, 0, 5515, 9935, 7608, 7532, 44, 32, 1495, 0, 7576, 125, 1585,
            5351, 13308, 8917, 216, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Compress",
        "unified",
        0xfa7ddfd159b2e72b,
        0x429673f8ebab7796,
        0x612f63baaab762df,
        [
            15180, 60001, 7608, 7608, 7578, 26, 4, 50, 0, 11, 218, 1, 0, 11, 0, 4024, 0, 1, 935,
            866, 29, 0, 40, 3439, 1336, 0, 5366, 9935, 7608, 7578, 26, 4, 1391, 12, 7604, 24, 1468,
            6084, 13308, 8917, 216, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "Gcc",
        "faulted",
        0x1b18bd1eb1757ed3,
        0x855e70721b945709,
        0x6e180d484cad6847,
        [
            44443, 60010, 5473, 5469, 2975, 564, 1930, 23421, 1050, 4509, 1818, 1051, 0, 4509, 191,
            11608, 253, 2411, 3347, 2042, 1251, 1, 53, 8469, 1552, 17, 15024, 5905, 5469, 2975,
            564, 1930, 5182, 44, 3539, 15534, 19063, 6307, 16239, 6846, 2717, 361, 22343, 10637,
            2479, 2530, 2450, 2569, 2533, 2451, 2415, 2442, 2474, 2479, 801, 762, 1203, 1246, 2360,
            1545, 120, 121,
        ],
    ),
];

/// Every pin of `GOLDEN`, append-only: `(MODEL_VERSION, digest of
/// GOLDEN)`. A re-pin appends a row under a bumped [`MODEL_VERSION`],
/// so checkpoints written by the old model stop matching.
const PINS: &[(u32, u64)] = &[(1, 0xab0b3a8b191641ab)];

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
