//! Property tests: `SetAssocCache` agrees with an executable
//! reference model (per-set LRU lists plus a set of marked keys) on
//! seeded random operation sequences, `DataCache` counts the misses
//! and writebacks of a reference write-back cache built on that
//! model, and `InstrCache` attributes demand hits to
//! preconstruction-filled lines as a reference that keeps those lines
//! in a set of their own.

use std::collections::{BTreeSet, VecDeque};
use tpc_isa::model::XorShift64;
use tpc_isa::Addr;
use tpc_mem::{
    AccessKind, CacheGeometry, DataCache, IcacheStats, InstrCache, InstrCacheConfig, SetAssocCache,
    INSTRS_PER_LINE,
};

const CASES: u32 = 256;

/// Straightforward reference: one MRU-ordered list per set, and the
/// dirty keys in a separate set.
struct RefCache {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    dirty: BTreeSet<u64>,
}

impl RefCache {
    fn new(sets: u32, ways: u32) -> Self {
        RefCache {
            sets: (0..sets).map(|_| VecDeque::new()).collect(),
            ways: ways as usize,
            dirty: BTreeSet::new(),
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key % self.sets.len() as u64) as usize
    }

    fn touch(&mut self, key: u64) -> bool {
        let set = self.set_of(key);
        let list = &mut self.sets[set];
        match list.iter().position(|&k| k == key) {
            Some(pos) => {
                let k = list.remove(pos).expect("found above");
                list.push_front(k);
                true
            }
            None => false,
        }
    }

    fn access(&mut self, key: u64, dirty: bool) -> bool {
        let hit = self.touch(key);
        if hit && dirty {
            self.dirty.insert(key);
        }
        hit
    }

    fn probe(&self, key: u64) -> bool {
        self.sets[self.set_of(key)].contains(&key)
    }

    fn fill(&mut self, key: u64, dirty: bool) -> Option<(u64, bool)> {
        if dirty {
            self.dirty.insert(key);
        }
        if self.touch(key) {
            return None;
        }
        let ways = self.ways;
        let set = self.set_of(key);
        let list = &mut self.sets[set];
        list.push_front(key);
        if list.len() > ways {
            let evicted = list.pop_back().expect("over capacity");
            Some((evicted, self.dirty.remove(&evicted)))
        } else {
            None
        }
    }

    fn invalidate(&mut self, key: u64) -> bool {
        self.dirty.remove(&key);
        let set = self.set_of(key);
        let list = &mut self.sets[set];
        match list.iter().position(|&k| k == key) {
            Some(pos) => {
                list.remove(pos);
                true
            }
            None => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Cmd {
    Access(u64, bool),
    Probe(u64),
    Fill(u64, bool),
    Invalidate(u64),
}

fn cmds(rng: &mut XorShift64) -> Vec<Cmd> {
    let n = rng.next_below(300);
    (0..n)
        .map(|_| {
            let k = u64::from(rng.next_below(64));
            let dirty = rng.chance(1, 3);
            match rng.next_below(4) {
                0 => Cmd::Access(k, dirty),
                1 => Cmd::Probe(k),
                2 => Cmd::Fill(k, dirty),
                _ => Cmd::Invalidate(k),
            }
        })
        .collect()
}

#[test]
fn set_assoc_matches_reference() {
    let mut rng = XorShift64::new(0xCAC4_E5EE);
    for case in 0..CASES {
        let sets = 1 << rng.next_below(4);
        let ways = rng.next_in(1, 4);
        let ops = cmds(&mut rng);
        let mut dut = SetAssocCache::new(CacheGeometry::new(sets, ways));
        let mut reference = RefCache::new(sets, ways);
        for (i, &cmd) in ops.iter().enumerate() {
            let at = format!("case {case} ({sets}x{ways}), op #{i} {cmd:?}");
            match cmd {
                // The unmarked calls are the clean case of the marking
                // ones; every other plain access also reads the mark.
                Cmd::Access(k, false) if i % 2 == 0 => {
                    assert_eq!(dut.access(k), reference.access(k, false), "{at}")
                }
                Cmd::Access(k, false) => {
                    let expected = reference
                        .access(k, false)
                        .then(|| reference.dirty.contains(&k));
                    assert_eq!(dut.access_mark(k), expected, "{at}");
                }
                Cmd::Access(k, true) => {
                    assert_eq!(
                        dut.access_marking(k, true),
                        reference.access(k, true),
                        "{at}"
                    );
                }
                Cmd::Probe(k) => assert_eq!(dut.probe(k), reference.probe(k), "{at}"),
                Cmd::Fill(k, false) => {
                    let expected = reference.fill(k, false).map(|(evicted, _)| evicted);
                    assert_eq!(dut.fill(k), expected, "{at}");
                }
                Cmd::Fill(k, true) => {
                    assert_eq!(dut.fill_marking(k, true), reference.fill(k, true), "{at}");
                }
                Cmd::Invalidate(k) => {
                    assert_eq!(dut.invalidate(k), reference.invalidate(k), "{at}");
                }
            }
        }
        // Final occupancy agrees too.
        let ref_occ: usize = reference.sets.iter().map(|l| l.len()).sum();
        assert_eq!(dut.occupancy(), ref_occ, "case {case}");
    }
}

/// The write-back, write-allocate data cache against the reference:
/// every access misses exactly when the reference misses (allocating
/// on a miss), and a writeback happens exactly when an evicted line
/// is in the reference's dirty set.
#[test]
fn data_cache_matches_reference_write_back_cache() {
    let mut rng = XorShift64::new(0xD1A7_5EED);
    let mut total_writebacks = 0;
    for case in 0..CASES {
        let ways = 1 << rng.next_below(3);
        let sets = 1 << rng.next_below(3);
        let (hit_latency, l2_latency) = (2, 10);
        let mut dut = DataCache::with_params(sets * ways * 64, ways, hit_latency, l2_latency);
        let mut reference = RefCache::new(sets, ways);
        let (mut misses, mut writebacks) = (0, 0);
        for i in 0..rng.next_below(400) {
            let addr = u64::from(rng.next_below(64 * 64));
            let is_store = rng.chance(1, 3);
            let line = addr / 64;
            let hit = reference.touch(line);
            if !hit {
                misses += 1;
                if let Some((_, true)) = reference.fill(line, false) {
                    writebacks += 1;
                }
            }
            if is_store {
                reference.dirty.insert(line);
            }
            let latency = if is_store {
                dut.store(addr)
            } else {
                dut.load(addr)
            };
            let expected = if hit {
                hit_latency
            } else {
                hit_latency + l2_latency
            };
            let at = format!("case {case} ({sets}x{ways}), access #{i} at {addr:#x}");
            assert_eq!(latency, expected, "{at}");
            assert_eq!(dut.stats().misses, misses, "{at}");
            assert_eq!(dut.stats().writebacks, writebacks, "{at}");
        }
        total_writebacks += writebacks;
    }
    assert!(total_writebacks > 0, "the cases exercise dirty evictions");
}

/// The instruction cache against the reference: every fetch hits
/// exactly when the reference hits (filling on a miss), and a demand
/// hit counts as a hit on a preconstruction line exactly when the
/// line is in the reference's separate set of lines whose latest fill
/// was a preconstruction fill (eviction removes a line from it).
#[test]
fn instr_cache_matches_reference_precon_attribution() {
    let mut rng = XorShift64::new(0x1CAC_4E5E);
    let mut total_precon_hits = 0;
    for case in 0..CASES {
        let ways = 1 << rng.next_below(3);
        let sets = 1 << rng.next_below(3);
        let config = InstrCacheConfig {
            size_bytes: sets * ways * 64,
            ways,
            ..InstrCacheConfig::default()
        };
        let mut dut = InstrCache::new(config);
        let mut tags = RefCache::new(sets, ways);
        let mut precon_filled: BTreeSet<u64> = BTreeSet::new();
        let mut expected = IcacheStats::default();
        for i in 0..rng.next_below(400) {
            let line = u64::from(rng.next_below(48));
            let addr = Addr::new(line as u32 * INSTRS_PER_LINE + rng.next_below(INSTRS_PER_LINE));
            let kind = if rng.chance(1, 2) {
                AccessKind::Precon
            } else {
                AccessKind::Demand
            };
            let hit = tags.touch(line);
            match kind {
                AccessKind::Demand => {
                    if !hit {
                        expected.demand_misses += 1;
                    } else if precon_filled.contains(&line) {
                        expected.demand_hits_on_precon_lines += 1;
                    }
                }
                AccessKind::Precon => expected.precon_misses += u64::from(!hit),
            }
            if !hit {
                if let Some((evicted, _)) = tags.fill(line, false) {
                    precon_filled.remove(&evicted);
                }
                match kind {
                    AccessKind::Precon => precon_filled.insert(line),
                    AccessKind::Demand => precon_filled.remove(&line),
                };
            }
            let at = format!("case {case} ({sets}x{ways}), fetch #{i} {kind:?} of line {line}");
            let r = dut.fetch(addr, kind);
            assert_eq!(r.hit, hit, "{at}");
            let latency = config.hit_latency + if hit { 0 } else { config.l2_latency };
            assert_eq!(r.latency, latency, "{at}");
            assert_eq!(*dut.stats(), expected, "{at}");
        }
        total_precon_hits += expected.demand_hits_on_precon_lines;
    }
    assert!(
        total_precon_hits > 0,
        "the cases exercise demand hits on preconstruction lines"
    );
}
