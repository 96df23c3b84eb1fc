//! The traced run: a few untraced trials first (the facade metrics of the
//! per-layer table come from them, never from a traced trial), then the
//! same trial skeleton with spans recorded from this file around every
//! call into a layer (`trial -> phase -> block(64 keys) -> stage`), extra
//! probe phases that time single layers through their public functions,
//! and counts read from public accessors before and after each phase.

use crate::env;
use crate::metrics::{self, Report, PER_LAYER};
use crate::run::{
    build_bare, elapsed_ns, round_spread, setup, step, verify, RunOptions, Scratch, Store, Tally,
    Untraced,
};
use crate::spans::{self, Recorder};
use crate::stats::{median, quantile, quiet_quartile, sorted, Better};
use crate::workload::{Inputs, Op, Sizes, Workload, APPLY_BATCH, TRACE_BATCH};
use algo_index::RangeIndex;
use learned_index::CdfModel;
use shift_store::{DurabilityStats, WriteBatch};
use shift_table::correction::Correction;
use shift_table::local_search::{binary_in_window, exponential_around, linear_in_window};
use shift_table::spec::DynCorrectedIndex;
use shift_table::{CorrectionLayer, SearchHint, ShiftTable};
use sosd_data::rng::Xoshiro256;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Keys per traced block.
const BLOCK: usize = 64;
/// Query groups one block of the read-layer phase consumes: each group of
/// stages gets queries no earlier group has touched, so that no stage
/// finds its lines warmed by another.
const GROUPS: usize = 5;
/// Interleaved rounds per side of a head-to-head probe.
const DUEL_ROUNDS: usize = 6;
/// `apply` / `commit` pairs of the write-layer phase.
const WRITE_PAIRS: usize = 32;

/// Samples of every timed layer, in the unit of its metric.
#[derive(Default)]
struct Layers {
    pin_ns: Vec<f64>,
    route_ns: Vec<f64>,
    predict_ns: Vec<f64>,
    correct_ns: Vec<f64>,
    search_ns: Vec<f64>,
    index_ns: Vec<f64>,
    binary_ns: Vec<f64>,
    facade_ns: Vec<f64>,
    net_below_ns: Vec<f64>,
    kernel_ns_per_key: Vec<f64>,
    blocked_ns_per_key: Vec<f64>,
    scan_merge_ns_per_key: Vec<f64>,
    apply_ns: Vec<f64>,
    commit_ns: Vec<f64>,
    sync_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    rebuild_ms: Vec<f64>,
    compact_us: Vec<f64>,
    manifest_ms: Vec<f64>,
    mount_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    retrain_ms: Vec<f64>,
    cold_open_ms: Vec<f64>,
    hydrate_ms: Vec<f64>,
    train_ms: Vec<f64>,
    table_ms: Vec<f64>,
    write_step_ns: Vec<f64>,
    maintain_share: Vec<f64>,
    obs_on_ns: Vec<f64>,
    obs_off_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
}

/// Counts that must repeat exactly; taken in the first trial, checked
/// against every later one.
#[derive(Debug, Clone, PartialEq)]
struct Exact {
    wal_bytes_per_op: f64,
    wal_syncs_per_kop: f64,
    write_amp: f64,
    snapshot_bytes_per_key: f64,
    rebuilds: f64,
    splits: f64,
    merges: f64,
    runs_per_shard: f64,
    delta_bytes: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Total size of the snapshot files in a store directory.
fn snapshot_file_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Algorithm 1's last step from a range-mode hint, as the fused lookup
/// does it: bounded local search, then the repair path when the window
/// missed.
#[inline]
fn search_from_hint(keys: &[u64], hint: SearchHint, q: u64, linear_below: usize) -> usize {
    let window = hint.window.unwrap_or(0).max(1);
    let pos = if window < linear_below {
        linear_in_window(keys, hint.start, window, q)
    } else {
        binary_in_window(keys, hint.start, window, q)
    };
    let n = keys.len();
    let is_lower_bound = (pos == n || keys[pos] >= q) && (pos == 0 || keys[pos - 1] < q);
    if is_lower_bound {
        pos
    } else {
        exponential_around(keys, pos.min(n - 1), q)
    }
}

/// The range table of a bare index; every workload's spec ends in `+r1`.
fn range_table(bare: &DynCorrectedIndex<u64>) -> &ShiftTable {
    match bare.layer() {
        CorrectionLayer::Range(table) => table,
        _ => panic!("workload specs use the r1 range layer"),
    }
}

/// Replay the trace with every mutating step timed on its own and spans
/// around the explicit maintenance steps.
fn replay_traced(
    store: &Store,
    inputs: &Inputs,
    rec: &mut Recorder,
    layers: &mut Layers,
    results: &mut Vec<u64>,
) -> Duration {
    results.clear();
    let mut positions = [0usize; TRACE_BATCH];
    let mut maintain_ns = 0.0;
    let t = Instant::now();
    for &op in &inputs.trace {
        let result = match op {
            Op::Maintain | Op::Checkpoint => {
                let name = if op == Op::Maintain {
                    "store.worker.maintain"
                } else {
                    "store.persist.snapshot.checkpoint"
                };
                let span = rec.begin(name);
                let r = step(store, inputs, op, &mut positions);
                let ns = rec.end(span) as f64;
                if op == Op::Maintain {
                    maintain_ns += ns;
                } else {
                    layers.checkpoint_ms.push(ns / 1e6);
                }
                layers.write_step_ns.push(ns);
                r
            }
            op if op.is_write() => {
                let t = Instant::now();
                let r = step(store, inputs, op, &mut positions);
                layers.write_step_ns.push(elapsed_ns(t));
                r
            }
            op => step(store, inputs, op, &mut positions),
        };
        results.push(result);
    }
    let total = t.elapsed();
    layers
        .maintain_share
        .push(maintain_ns / total.as_nanos().max(1) as f64);
    total
}

/// What the trace cost the persistence layer, from counter deltas.
fn persistence_costs(before: DurabilityStats, after: DurabilityStats) -> (f64, f64, f64) {
    let ops = (after.wal_ops - before.wal_ops) as f64;
    if ops == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let wal = (after.wal_bytes - before.wal_bytes) as f64;
    let snap = (after.snapshot_bytes - before.snapshot_bytes) as f64;
    let syncs = (after.wal_syncs - before.wal_syncs) as f64;
    (wal / ops, syncs / ops * 1e3, (wal + snap) / (8.0 * ops))
}

/// The read path taken apart: each stage of a lookup timed over blocks of
/// 64 keys through the public function of the layer that owns it.
fn read_layers(
    store: &Store,
    bare: &DynCorrectedIndex<u64>,
    inputs: &Inputs,
    sizes: &Sizes,
    rec: &mut Recorder,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let phase = rec.begin("phase.read_layers");
    let keys = bare.keys();
    let model = bare.model();
    let table = range_table(bare);
    let linear_below = bare.config().linear_to_binary_threshold;
    let snapshot = store.snapshot();
    let states = snapshot.states();
    let topology = store.table();
    let router = topology.router();

    let q = &inputs.point.q[..sizes.probe_queries.min(inputs.point.q.len())];
    let mut preds = [0usize; BLOCK];
    let mut hints = [SearchHint::unbounded(0); BLOCK];
    let mut pos = [0usize; BLOCK];
    let mut shard = [0usize; BLOCK];
    let mut nets = [0i64; BLOCK];
    let per_key = |ns: u64| ns as f64 / BLOCK as f64;

    for (b, block_q) in q.chunks_exact(BLOCK * GROUPS).enumerate() {
        let at = b * BLOCK * GROUPS;
        let group = |g: usize| &block_q[g * BLOCK..(g + 1) * BLOCK];
        let bare_want =
            |g: usize| &inputs.point.bare_expected[at + g * BLOCK..at + (g + 1) * BLOCK];
        let block = rec.begin("block");

        let qs = group(0);
        let s = rec.begin("learned-index.predict");
        for (p, &q) in preds.iter_mut().zip(qs) {
            *p = model.predict_clamped(black_box(q));
        }
        layers.predict_ns.push(per_key(rec.end(s)));
        let s = rec.begin("core.table.correct");
        for (h, &p) in hints.iter_mut().zip(&preds) {
            *h = table.correct(black_box(p));
        }
        layers.correct_ns.push(per_key(rec.end(s)));
        let s = rec.begin("core.local_search.search");
        for ((o, &h), &q) in pos.iter_mut().zip(&hints).zip(qs) {
            *o = search_from_hint(keys, h, q, linear_below);
        }
        layers.search_ns.push(per_key(rec.end(s)));
        tally.compare(&pos, bare_want(0), "predict -> correct -> search");

        let s = rec.begin("core.index.lower_bound");
        for (o, &q) in pos.iter_mut().zip(group(1)) {
            *o = bare.lower_bound(black_box(q));
        }
        layers.index_ns.push(per_key(rec.end(s)));
        tally.compare(&pos, bare_want(1), "bare lower_bound");

        let s = rec.begin("algo-index.binary_search");
        for (o, &q) in pos.iter_mut().zip(group(2)) {
            let q = black_box(q);
            *o = keys.partition_point(|&k| k < q);
        }
        layers.binary_ns.push(per_key(rec.end(s)));
        tally.compare(&pos, bare_want(2), "binary search");

        let s = rec.begin("store.facade.lower_bound");
        for (o, &q) in pos.iter_mut().zip(group(3)) {
            *o = store.lower_bound(black_box(q));
        }
        layers.facade_ns.push(per_key(rec.end(s)));
        let want = &inputs.point.store_expected[at + 3 * BLOCK..at + 4 * BLOCK];
        tally.compare(&pos, want, "store lower_bound");

        let s = rec.begin("store.snapshot.pin");
        for _ in 0..BLOCK {
            black_box(store.snapshot());
        }
        layers.pin_ns.push(per_key(rec.end(s)));

        let qs = group(4);
        let s = rec.begin("store.router.route");
        for (o, &q) in shard.iter_mut().zip(qs) {
            *o = router.shard_of(black_box(q));
        }
        layers.route_ns.push(per_key(rec.end(s)));
        let s = rec.begin("store.delta.net_below");
        for ((o, &sh), &q) in nets.iter_mut().zip(&shard).zip(qs) {
            *o = states[sh].delta().net_below(black_box(q));
        }
        layers.net_below_ns.push(per_key(rec.end(s)));
        black_box(&nets);

        rec.end(block);
    }
    rec.end(phase);
}

/// The pipelined batch kernel against the stage-blocked loop it replaced,
/// interleaved on the bare index.
fn kernel_duel(
    bare: &DynCorrectedIndex<u64>,
    inputs: &Inputs,
    sizes: &Sizes,
    rec: &mut Recorder,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let phase = rec.begin("phase.kernel");
    let n = sizes.probe_queries.min(inputs.batch.q.len());
    let (q, want) = (&inputs.batch.q[..n], &inputs.batch.bare_expected[..n]);
    let mut out = vec![0usize; n];
    for _ in 0..DUEL_ROUNDS {
        let s = rec.begin("core.kernel.batch");
        bare.lower_bound_batch(black_box(q), &mut out);
        layers.kernel_ns_per_key.push(rec.end(s) as f64 / n as f64);
        tally.compare(&out, want, "batch kernel");
        let s = rec.begin("core.kernel.blocked");
        bare.lower_bound_batch_blocked(black_box(q), &mut out);
        layers.blocked_ns_per_key.push(rec.end(s) as f64 / n as f64);
        tally.compare(&out, want, "blocked batch");
    }
    rec.end(phase);
}

/// `ShardState::merged_range_keys` on scan ranges that fall in one shard.
fn scan_merge(store: &Store, inputs: &Inputs, rec: &mut Recorder, layers: &mut Layers) {
    let phase = rec.begin("phase.scan_merge");
    let snapshot = store.snapshot();
    let topology = store.table();
    let router = topology.router();
    for ranges in inputs.scans.chunks(BLOCK).take(64) {
        let mut returned = 0usize;
        let s = rec.begin("store.shard.scan_merge");
        for &(lo, hi) in ranges {
            let shard = router.shard_of(lo);
            if router.shard_of(hi) == shard {
                returned += black_box(snapshot.states()[shard].merged_range_keys(lo, hi)).len();
            }
        }
        let ns = rec.end(s);
        if returned > 0 {
            layers
                .scan_merge_ns_per_key
                .push(ns as f64 / returned as f64);
        }
    }
    rec.end(phase);
}

/// One pass of store lookups in blocks of 64, with a span per block or
/// with none; ns per lookup.
fn lookup_pass(store: &Store, q: &[u64], out: &mut [usize], mut rec: Option<&mut Recorder>) -> f64 {
    let t = Instant::now();
    for (qs, os) in q.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
        let span = rec.as_deref_mut().map(|r| r.begin("block"));
        for (o, &q) in os.iter_mut().zip(qs) {
            *o = store.lower_bound(black_box(q));
        }
        if let (Some(r), Some(span)) = (rec.as_deref_mut(), span) {
            r.end(span);
        }
    }
    elapsed_ns(t) / q.len() as f64
}

/// What recording spans costs: the same lookups with and without a span
/// per block, interleaved.
fn tracing_duel(
    store: &Store,
    inputs: &Inputs,
    sizes: &Sizes,
    rec: &mut Recorder,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let phase = rec.begin("phase.tracing_overhead");
    let n = sizes.probe_queries.min(inputs.point.q.len());
    let (q, want) = (&inputs.point.q[..n], &inputs.point.store_expected[..n]);
    let mut out = vec![0usize; n];
    for _ in 0..DUEL_ROUNDS {
        layers
            .untraced_ns
            .push(lookup_pass(store, q, &mut out, None));
        tally.compare(&out, want, "untraced lookup pass");
        layers
            .traced_ns
            .push(lookup_pass(store, q, &mut out, Some(rec)));
        tally.compare(&out, want, "traced lookup pass");
    }
    rec.end(phase);
}

/// The observability registry's cost on the read path: twin in-memory
/// stores over the post-trace keys, metrics on and off, interleaved with
/// the order flipped every round.
fn obs_duel(
    w: &Workload,
    inputs: &Inputs,
    sizes: &Sizes,
    rec: &mut Recorder,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let phase = rec.begin("phase.obs_overhead");
    let twin = |metrics: bool| {
        Store::build(w.store_config().metrics(metrics), &inputs.final_keys)
            .expect("the oracle's column is sorted")
    };
    let (on, off) = (twin(true), twin(false));
    let n = sizes.probe_queries.min(inputs.point.q.len());
    let (q, want) = (&inputs.point.q[..n], &inputs.point.store_expected[..n]);
    let mut out = vec![0usize; n];
    for round in 0..DUEL_ROUNDS {
        let order = if round % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for metrics in order {
            let (store, samples) = if metrics {
                (&on, &mut layers.obs_on_ns)
            } else {
                (&off, &mut layers.obs_off_ns)
            };
            samples.push(lookup_pass(store, q, &mut out, None));
            tally.compare(&out, want, "twin store lookups");
        }
    }
    rec.end(phase);
}

/// The write path taken apart on a live store: `apply` against an
/// equal-size transaction commit, explicit WAL syncs, then compaction and
/// rebuild of the shards those writes dirtied.
fn write_layers(
    store: &Store,
    inputs: &Inputs,
    seed: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let phase = rec.begin("phase.write_layers");
    let mut rng = Xoshiro256::new(seed ^ 0x0005_EED0_FA11);
    let (lo, hi) = (inputs.keys[0], inputs.keys[inputs.keys.len() - 1]);
    for pair in 0..WRITE_PAIRS {
        let mut batch = WriteBatch::with_capacity(APPLY_BATCH);
        for _ in 0..APPLY_BATCH {
            batch.insert(rng.next_in_range(lo, hi));
        }
        let s = rec.begin("store.batch.apply");
        let applied = store.apply(&batch);
        layers.apply_ns.push(rec.end(s) as f64);
        tally.check(applied.is_ok(), "probe apply");

        let mut txn = store.begin();
        black_box(txn.get(rng.next_in_range(lo, hi)));
        for _ in 0..APPLY_BATCH {
            txn.insert(rng.next_in_range(lo, hi));
        }
        let s = rec.begin("store.txn.commit");
        let committed = txn.commit();
        layers.commit_ns.push(rec.end(s) as f64);
        tally.check(committed.is_ok(), "probe commit");

        if pair % 8 == 7 {
            let s = rec.begin("store.persist.wal.sync");
            let synced = store.sync_wal();
            layers.sync_ms.push(rec.end(s) as f64 / 1e6);
            tally.check(synced.is_ok(), "probe sync_wal");
        }
    }
    for shard in store
        .shards()
        .iter()
        .filter(|s| s.buffered_ops() > 0)
        .take(4)
    {
        let s = rec.begin("store.shard.compact");
        let changed = shard.compact();
        let ns = rec.end(s);
        if changed {
            layers.compact_us.push(ns as f64 / 1e3);
        }
        let s = rec.begin("store.shard.rebuild");
        let rebuilt = shard.rebuild();
        layers.rebuild_ms.push(rec.end(s) as f64 / 1e6);
        tally.check(matches!(rebuilt, Ok(true)), "probe rebuild");
    }
    rec.end(phase);
}

pub fn run(w: &'static Workload, opts: RunOptions) -> Report {
    let sizes = w.sizes(opts.smoke);
    let inputs = Inputs::generate(w, &sizes, opts.seed);
    let mut bare = build_bare(w, &inputs.keys);
    let config = w.store_config();
    let (untraced_trials, traced_trials) = sizes.traced_run_trials;

    // Untraced trials first, as the untraced run takes them: the facade
    // metrics the per-layer table holds come from them, and the reference
    // kernel beside their rounds says how busy the box was.
    let mut untraced = Untraced::new(w, sizes, &inputs, &mut bare);
    let cycles = sizes.cycles_for(opts.seconds / metrics::default_seconds());
    for trial in 0..untraced_trials {
        untraced.trial(trial, cycles);
    }
    let facade = untraced.samples.facade();
    let round_means = std::mem::take(&mut untraced.samples.lookup_mean_ns);
    let reference = std::mem::take(&mut untraced.meter.history);
    let mut tally = untraced.tally;
    drop(untraced);
    let bare = &bare;

    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    let mut exact: Option<Exact> = None;
    let mut results = Vec::with_capacity(inputs.trace.len());

    for trial in 0..traced_trials {
        let trial_span = rec.begin("trial");
        let scratch = Scratch::new(untraced_trials + trial);

        let s = rec.begin("phase.setup");
        let (store, _) = setup(scratch.path(), config, &inputs.keys);
        rec.end(s);
        let snapshot_bytes_per_key =
            snapshot_file_bytes(scratch.path()) as f64 / inputs.keys.len() as f64;

        // Model training and table construction, apart.
        let s = rec.begin("core.build.train");
        let model = w.index_spec().model.build(&inputs.keys);
        layers.train_ms.push(rec.end(s) as f64 / 1e6);
        let s = rec.begin("core.build.table");
        black_box(ShiftTable::build(&model, &inputs.keys));
        layers.table_ms.push(rec.end(s) as f64 / 1e6);
        drop(model);

        let s = rec.begin("phase.trace_replay");
        let before = store.durability_stats().unwrap_or_default();
        replay_traced(&store, &inputs, &mut rec, &mut layers, &mut results);
        let after = store.durability_stats().unwrap_or_default();
        rec.end(s);
        tally.compare(&results, &inputs.expected, "trace replay");
        verify(&store, &inputs, &sizes, "after trace", &mut tally);

        let (wal_bytes_per_op, wal_syncs_per_kop, write_amp) = persistence_costs(before, after);
        let states = store.snapshot();
        let shards = states.states().len() as f64;
        let counts = Exact {
            wal_bytes_per_op,
            wal_syncs_per_kop,
            write_amp,
            snapshot_bytes_per_key,
            rebuilds: store.total_rebuilds() as f64,
            splits: store.total_splits() as f64,
            merges: store.total_merges() as f64,
            runs_per_shard: states
                .states()
                .iter()
                .map(|s| s.delta().run_count())
                .sum::<usize>() as f64
                / shards,
            delta_bytes: states
                .states()
                .iter()
                .map(|s| s.delta().size_bytes())
                .sum::<usize>() as f64,
        };
        drop(states);
        match &exact {
            None => exact = Some(counts),
            Some(first) => tally.check(*first == counts, "an exact count differs between trials"),
        }

        read_layers(
            &store,
            bare,
            &inputs,
            &sizes,
            &mut rec,
            &mut layers,
            &mut tally,
        );
        kernel_duel(bare, &inputs, &sizes, &mut rec, &mut layers, &mut tally);
        scan_merge(&store, &inputs, &mut rec, &mut layers);
        tracing_duel(&store, &inputs, &sizes, &mut rec, &mut layers, &mut tally);
        obs_duel(w, &inputs, &sizes, &mut rec, &mut layers, &mut tally);

        if w.checkpoint_before_reopen() {
            let s = rec.begin("store.persist.snapshot.checkpoint");
            let done = store.checkpoint();
            layers.checkpoint_ms.push(rec.end(s) as f64 / 1e6);
            tally.check(done.is_ok(), "checkpoint before reopen");
        }
        drop(store);

        let s = rec.begin("phase.reopen");
        let reopened = Store::open(scratch.path(), config);
        rec.end(s);
        match reopened {
            Ok(store) => {
                if let Some(b) = store.open_breakdown() {
                    layers.manifest_ms.push(ms(b.manifest));
                    layers.mount_ms.push(ms(b.mount));
                    layers.replay_ms.push(ms(b.replay));
                    layers.retrain_ms.push(ms(b.retrain));
                }
                verify(&store, &inputs, &sizes, "after reopen", &mut tally);
            }
            Err(e) => tally.check(false, &format!("reopen: {e}")),
        }

        // The streaming open beside it: mount cold, then hydrate, apart.
        let phase = rec.begin("phase.cold_open");
        let s = rec.begin("store.persist.recovery.cold_open");
        let cold = Store::open(scratch.path(), config.cold_start(true));
        layers.cold_open_ms.push(rec.end(s) as f64 / 1e6);
        match cold {
            Ok(store) => {
                let s = rec.begin("store.persist.recovery.hydrate");
                let hydrated = store.hydrate();
                layers.hydrate_ms.push(rec.end(s) as f64 / 1e6);
                rec.end(phase);
                tally.check(hydrated.is_ok(), "hydrate");
                verify(&store, &inputs, &sizes, "after cold open", &mut tally);
                write_layers(
                    &store,
                    &inputs,
                    opts.seed,
                    &mut rec,
                    &mut layers,
                    &mut tally,
                );
            }
            Err(e) => {
                rec.end(phase);
                tally.check(false, &format!("cold open: {e}"));
            }
        }
        drop(scratch);
        rec.end(trial_span);
    }

    let mut report = Report::new(w.name, &PER_LAYER);
    for f in facade {
        report.set_beside(f.name, f.raw, f.nominal, f.estimator, f.samples);
    }
    let med = |samples: &[f64]| {
        if samples.is_empty() {
            0.0
        } else {
            median(samples)
        }
    };
    let p25 = |samples: &[f64]| quiet_quartile(samples, Better::Lower);
    {
        let mut timed =
            |name: &str, samples: &[f64]| report.set(name, med(samples), "median", samples.len());
        timed("store.snapshot.pin_ns", &layers.pin_ns);
        timed("store.router.route_ns", &layers.route_ns);
        timed("learned-index.predict_ns", &layers.predict_ns);
        timed("core.table.correct_ns", &layers.correct_ns);
        timed("core.local_search.search_ns", &layers.search_ns);
        timed("core.index.lower_bound_ns", &layers.index_ns);
        timed("algo-index.binary_search_ns", &layers.binary_ns);
        timed("store.facade.lower_bound_ns", &layers.facade_ns);
        timed("store.delta.net_below_ns", &layers.net_below_ns);
        timed(
            "store.shard.scan_merge_ns_per_key",
            &layers.scan_merge_ns_per_key,
        );
        timed("store.txn.commit_ns", &layers.commit_ns);
        timed("store.persist.wal.sync_ms_p50", &layers.sync_ms);
        timed(
            "store.persist.snapshot.checkpoint_ms",
            &layers.checkpoint_ms,
        );
        timed("store.persist.recovery.manifest_ms", &layers.manifest_ms);
        timed("store.persist.recovery.mount_ms", &layers.mount_ms);
        timed("store.persist.recovery.replay_ms", &layers.replay_ms);
        timed("store.persist.recovery.retrain_ms", &layers.retrain_ms);
        timed("store.persist.recovery.cold_open_ms", &layers.cold_open_ms);
        timed("store.persist.recovery.hydrate_ms", &layers.hydrate_ms);
        timed("store.shard.rebuild_ms_p50", &layers.rebuild_ms);
        timed("store.shard.compact_us_p50", &layers.compact_us);
        timed("store.worker.maintain_share", &layers.maintain_share);
        timed("core.build.train_ms", &layers.train_ms);
        timed("core.build.table_ms", &layers.table_ms);
    }
    let n_blocks = layers.index_ns.len();
    let stage_sum = med(&layers.predict_ns) + med(&layers.correct_ns) + med(&layers.search_ns);
    let fused = med(&layers.index_ns);
    report.set(
        "core.index.stage_sum_ratio",
        stage_sum / fused,
        "ratio",
        n_blocks,
    );
    report.set(
        "core.index.speedup_vs_binary",
        med(&layers.binary_ns) / fused,
        "ratio",
        n_blocks,
    );
    report.set(
        "store.facade.overhead_ns",
        med(&layers.facade_ns) - fused,
        "diff",
        n_blocks,
    );
    report.set(
        "store.batch.apply_ns_per_op",
        med(&layers.apply_ns) / APPLY_BATCH as f64,
        "median",
        layers.apply_ns.len(),
    );
    report.set(
        "store.txn.commit_vs_apply",
        med(&layers.commit_ns) / med(&layers.apply_ns),
        "ratio",
        layers.commit_ns.len(),
    );
    // Head-to-head probes alternate their two sides round by round; the
    // median of the per-round ratios pairs each round with its neighbour
    // in time, so a burst that covers some rounds moves neither side.
    let paired =
        |a: &[f64], b: &[f64]| median(&a.iter().zip(b).map(|(a, b)| a / b).collect::<Vec<_>>());
    let duels = layers.kernel_ns_per_key.len();
    report.set(
        "core.kernel.batch_ns_per_key",
        p25(&layers.kernel_ns_per_key),
        "p25",
        duels,
    );
    report.set(
        "core.kernel.speedup_vs_blocked",
        paired(&layers.blocked_ns_per_key, &layers.kernel_ns_per_key),
        "paired",
        duels,
    );
    let pct = |with: &[f64], without: &[f64]| (paired(with, without) - 1.0) * 100.0;
    report.set(
        "obs.overhead_pct",
        pct(&layers.obs_on_ns, &layers.obs_off_ns),
        "paired",
        layers.obs_on_ns.len(),
    );
    report.set(
        "trace.overhead_pct",
        pct(&layers.traced_ns, &layers.untraced_ns),
        "paired",
        layers.traced_ns.len(),
    );
    report.set(
        "noise.round_spread",
        round_spread(&round_means),
        "p75/p25",
        round_means.len(),
    );
    let reference_ns = median(&reference);
    report.set(
        "noise.reference_ns",
        reference_ns,
        "median",
        reference.len(),
    );
    report.set(
        "noise.box_index",
        reference_ns / w.reference_ns,
        "median",
        reference.len(),
    );

    let write_steps = sorted(&layers.write_step_ns);
    report.set(
        "trace.write_p99_us",
        quantile(&write_steps, 0.99) / 1e3,
        "p99",
        write_steps.len(),
    );
    report.set(
        "trace.stall_ms_max",
        write_steps.last().copied().unwrap_or(0.0) / 1e6,
        "max",
        write_steps.len(),
    );

    // Exact counts: window widths over the query set, sizes, counters.
    let table = range_table(bare);
    let windows: Vec<f64> = inputs
        .point
        .q
        .iter()
        .map(|&q| {
            table
                .correct(bare.model().predict_clamped(q))
                .window
                .unwrap_or(0) as f64
        })
        .collect();
    report.set(
        "core.table.window_keys_mean",
        windows.iter().sum::<f64>() / windows.len() as f64,
        "exact",
        windows.len(),
    );
    report.set(
        "core.table.window_keys_p99",
        quantile(&sorted(&windows), 0.99),
        "exact",
        windows.len(),
    );
    report.set(
        "core.table.bytes_per_key",
        table.size_bytes() as f64 / inputs.keys.len() as f64,
        "exact",
        1,
    );
    report.set(
        "learned-index.model_bytes",
        bare.model().size_bytes() as f64,
        "exact",
        1,
    );
    let e = exact.expect("a traced run has at least one trial");
    let trials = traced_trials;
    report.set(
        "store.persist.wal.bytes_per_op",
        e.wal_bytes_per_op,
        "exact",
        trials,
    );
    report.set(
        "store.persist.wal.syncs_per_kop",
        e.wal_syncs_per_kop,
        "exact",
        trials,
    );
    report.set("store.persist.write_amp", e.write_amp, "exact", trials);
    report.set(
        "store.persist.snapshot.bytes_per_key",
        e.snapshot_bytes_per_key,
        "exact",
        trials,
    );
    report.set("store.worker.rebuilds", e.rebuilds, "exact", trials);
    report.set("store.worker.splits", e.splits, "exact", trials);
    report.set("store.worker.merges", e.merges, "exact", trials);
    report.set(
        "store.delta.runs_per_shard_mean",
        e.runs_per_shard,
        "exact",
        trials,
    );
    report.set("store.delta.bytes", e.delta_bytes, "exact", trials);
    report.set("process.peak_rss_mb", env::peak_rss_mb(), "max", 1);
    report.attempted = tally.attempted;
    report.failed = tally.failed;

    report.fingerprint =
        env::fingerprint_json(opts.seed, trials, inputs.keys.len(), inputs.trace_weight);
    let path = env::output_dir().join(format!("trace-{}.json", w.name));
    match std::fs::write(
        &path,
        spans::to_json(w.name, &report.fingerprint, rec.spans()),
    ) {
        Ok(()) => println!(
            "{:<14} wrote {} spans to {}",
            w.name,
            rec.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    report
}
