//! The traced run's layer replays.
//!
//! Each layer is timed from outside: the benchmark records the
//! correct-path trace stream of one operation, then feeds each layer
//! a fresh instance of its own input stream through its public
//! functions, with spans around the calls. The part of the stream
//! before the measure window warms the layer untimed.

use crate::alloc::AllocCount;
use crate::spans::{SpanId, Spans};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tpc_core::{PreconEngine, PreprocessInfo, SplitStore, TraceStore};
use tpc_exec::{Executor, Frontend};
use tpc_isa::{OpClass, Program};
use tpc_mem::InstrCache;
use tpc_predict::{Bimodal, TraceKey};
use tpc_processor::backend::Backend;
use tpc_processor::{DynTrace, SimConfig, SimStats, TraceStream};

/// Traces the engine replay dispatches before it feeds them to the
/// store and branch predictor, which the engine reads.
const FEED_BATCH: usize = 16;

/// The correct-path trace stream of one operation.
#[derive(Debug)]
pub struct Recording {
    /// The simulated machine.
    pub config: SimConfig,
    /// Every trace of the warmup and the window, in fetch order, with
    /// preprocessing attached when the machine preprocesses.
    pub traces: Vec<DynTrace>,
    /// Traces that belong to the warmup.
    pub warmup_traces: usize,
    /// Instructions in the warmup traces.
    pub warmup_instrs: u64,
    /// Instructions in the window traces.
    pub window_instrs: u64,
    /// The simulated window's cycles.
    pub cycles: u64,
    /// The simulated window's cycles inside slow-path builds.
    pub slow_cycles: u64,
    /// Allocations `TraceStream::next_trace` made for the window's
    /// traces.
    pub window_stream_allocs: u64,
}

impl Recording {
    /// Records the traces covering `warmup` instructions and then the
    /// window `stats` describes.
    pub fn new(program: &Program, config: SimConfig, warmup: u64, stats: &SimStats) -> Recording {
        let mut stream = TraceStream::new(program);
        let mut preprocessed: BTreeMap<TraceKey, Arc<PreprocessInfo>> = BTreeMap::new();
        let mut traces = Vec::new();
        let mut warmup_traces = None;
        let mut warmup_instrs = 0;
        let mut window_stream_allocs = 0;
        let end = warmup + stats.retired_instructions;
        while stream.retired() < end {
            if warmup_traces.is_none() && stream.retired() >= warmup {
                warmup_traces = Some(traces.len());
                warmup_instrs = stream.retired();
            }
            let before = AllocCount::now();
            let mut dt = stream.next_trace();
            if warmup_traces.is_some() {
                window_stream_allocs += AllocCount::since(before).calls;
            }
            if config.preprocess {
                let info = preprocessed
                    .entry(dt.trace.key())
                    .or_insert_with(|| Arc::new(tpc_core::preprocess(&dt.trace)));
                dt.trace.set_preprocess_arc(Arc::clone(info));
            }
            traces.push(dt);
        }
        Recording {
            warmup_traces: warmup_traces.unwrap_or(traces.len()),
            warmup_instrs,
            window_instrs: stream.retired() - warmup_instrs,
            cycles: stats.cycles,
            slow_cycles: stats.frontend.slow_build,
            window_stream_allocs,
            traces,
            config,
        }
    }

    /// The window's traces.
    pub fn window(&self) -> &[DynTrace] {
        &self.traces[self.warmup_traces..]
    }

    /// Simulated cycles per window trace, spread evenly: the cycle
    /// count before trace `i` of the whole recording.
    fn cycles_before(&self, i: usize) -> u64 {
        let traces = self.window().len().max(1) as u64;
        i as u64 * self.cycles / traces
    }

    /// Whether the slow path holds the I-cache in `cycle`, with the
    /// window's slow-build cycles spread evenly.
    fn slow_path_busy(&self, cycle: u64) -> bool {
        let c = self.cycles.max(1);
        (cycle + 1) * self.slow_cycles / c != cycle * self.slow_cycles / c
    }

    fn store(&self) -> SplitStore {
        let pb = if self.config.engine.enabled {
            self.config.engine.buffer_entries
        } else {
            0
        };
        SplitStore::new(self.config.trace_cache_entries, pb)
    }
}

/// Self time of one pass over every layer, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTimes {
    /// `Frontend::next_retired` over the window's instructions.
    pub exec: u64,
    /// `TraceStream::next_trace` over the window's traces.
    pub stream: u64,
    /// `TraceStore::fetch`, and `fill_demand` on a miss, per trace.
    pub store: u64,
    /// `PreconEngine` dispatch and retire observation and one `tick`
    /// per simulated cycle.
    pub engine: u64,
    /// `Backend::dispatch` and `release_pe` per trace.
    pub backend: u64,
}

impl LayerTimes {
    /// The smaller of each layer's times.
    pub fn min(self, o: LayerTimes) -> LayerTimes {
        LayerTimes {
            exec: self.exec.min(o.exec),
            stream: self.stream.min(o.stream),
            store: self.store.min(o.store),
            engine: self.engine.min(o.engine),
            backend: self.backend.min(o.backend),
        }
    }
}

/// Replays every layer once, recording spans; `Err` when a replay
/// disagrees with the recording or breaks a layer invariant.
pub fn pass(program: &Program, rec: &Recording, spans: &mut Spans) -> Result<LayerTimes, String> {
    let ids = [
        exec(program, rec, spans),
        stream(program, rec, spans)?,
        store(rec, spans)?,
        engine(program, rec, spans)?,
        backend(rec, spans),
    ];
    let self_ns = spans.self_times_ns();
    Ok(LayerTimes {
        exec: self_ns[ids[0]],
        stream: self_ns[ids[1]],
        store: self_ns[ids[2]],
        engine: self_ns[ids[3]],
        backend: self_ns[ids[4]],
    })
}

fn exec(program: &Program, rec: &Recording, spans: &mut Spans) -> SpanId {
    let mut fe = Executor::new(program);
    for _ in 0..rec.warmup_instrs {
        black_box(fe.next_retired());
    }
    let id = spans.open("exec", None);
    for _ in 0..rec.window_instrs {
        black_box(fe.next_retired());
    }
    spans.close(id);
    id
}

fn stream(program: &Program, rec: &Recording, spans: &mut Spans) -> Result<SpanId, String> {
    let mut stream = TraceStream::new(program);
    for _ in 0..rec.warmup_traces {
        black_box(stream.next_trace());
    }
    let id = spans.open("stream", None);
    for _ in rec.window() {
        black_box(stream.next_trace());
    }
    spans.close(id);
    let recorded = rec.warmup_instrs + rec.window_instrs;
    if stream.retired() != recorded {
        return Err(format!(
            "stream replay retired {} instructions, the recording {recorded}",
            stream.retired()
        ));
    }
    Ok(id)
}

fn fetch_or_fill(store: &mut SplitStore, dt: &DynTrace) {
    if !store.fetch(dt.trace.key()).hit {
        store.fill_demand(dt.trace.clone());
    }
}

fn store(rec: &Recording, spans: &mut Spans) -> Result<SpanId, String> {
    let mut store = rec.store();
    for dt in &rec.traces[..rec.warmup_traces] {
        fetch_or_fill(&mut store, dt);
    }
    let id = spans.open("store", None);
    for dt in rec.window() {
        fetch_or_fill(&mut store, dt);
    }
    spans.close(id);
    store.check_invariants()?;
    Ok(id)
}

/// The engine replay: per trace, dispatch observation and the
/// trace's share of the window's cycles as `tick`s; per batch of
/// traces, retire observation of the previous batch. Between
/// batches the replay feeds the batch to the store and the branch
/// predictor the engine reads, in child spans named `engine.feed`.
fn engine(program: &Program, rec: &Recording, spans: &mut Spans) -> Result<SpanId, String> {
    let cfg = &rec.config;
    let mut engine = PreconEngine::new(cfg.engine);
    let mut store = rec.store();
    let mut icache = InstrCache::new(cfg.icache);
    let mut bimodal = Bimodal::new(cfg.bimodal_entries);
    let mut seq = 0;
    let mut cycle = 0;
    let mut id = None;
    let mut retiring: &[DynTrace] = &[];
    for (b, batch) in rec.traces.chunks(FEED_BATCH).enumerate() {
        let first = b * FEED_BATCH;
        if id.is_none() && first >= rec.warmup_traces {
            id = Some(spans.open("engine", None));
        }
        for (k, dt) in batch.iter().enumerate() {
            for ti in dt.trace.instrs() {
                seq += 1;
                engine.observe_dispatch(ti.pc, &ti.op, seq);
            }
            let until = rec.cycles_before(first + k + 1);
            while cycle < until {
                cycle += 1;
                let idle = !rec.slow_path_busy(cycle);
                engine.tick(cycle, idle, program, &mut icache, &bimodal, &mut store);
            }
        }
        for dt in retiring {
            for ti in dt.trace.instrs() {
                engine.observe_retire(ti.pc);
            }
        }
        retiring = batch;
        let feed_start = Instant::now();
        for dt in batch {
            fetch_or_fill(&mut store, dt);
            let branches = dt
                .trace
                .instrs()
                .iter()
                .filter(|ti| ti.op.class() == OpClass::Branch);
            for (ti, &taken) in branches.zip(&dt.branch_outcomes) {
                bimodal.update(ti.pc, taken);
            }
        }
        if id.is_some() {
            spans.record("engine.feed", id, feed_start, Instant::now());
        }
    }
    let id = id.unwrap_or_else(|| spans.open("engine", None));
    spans.close(id);
    engine.check_invariants()?;
    if !cfg.engine.enabled && engine.stats().traces_built != 0 {
        return Err("the disabled engine built traces in its replay".to_string());
    }
    Ok(id)
}

/// The backend replay: each trace is dispatched at its share of the
/// window's cycles, and retires in order once it has completed and a
/// processing element is needed.
fn backend(rec: &Recording, spans: &mut Spans) -> SpanId {
    let cfg = &rec.config;
    let mut backend = Backend::new(cfg.backend);
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut id = None;
    let mut cycle = 0;
    for (i, dt) in rec.traces.iter().enumerate() {
        if i == rec.warmup_traces {
            id = Some(spans.open("backend", None));
        }
        cycle = cycle.max(rec.cycles_before(i));
        while let Some(&(pe, complete)) = inflight.front() {
            let full = inflight.len() >= cfg.backend.pe_count || !backend.pe_available(cycle);
            if complete > cycle && !full {
                break;
            }
            cycle = cycle.max(complete);
            backend.release_pe(pe, cycle);
            inflight.pop_front();
        }
        let timing = backend.dispatch(dt, cycle, cfg.preprocess);
        inflight.push_back((timing.pe, timing.complete));
    }
    let id = id.unwrap_or_else(|| spans.open("backend", None));
    spans.close(id);
    id
}
