//! The untraced trials: `setup -> trace replay -> verify -> read cycles ->
//! checkpoint + drop -> reopen -> verify -> delete dir`, each on a fresh
//! store in a fresh scratch directory, reduced to the metrics a caller of
//! the store sees. One client thread, closed loop: every call waits for
//! its reply before the next is issued.

use crate::env;
use crate::json::{num, quote};
use crate::metrics::{self, Report, END_TO_END};
use crate::probe::Meter;
use crate::stats::{median, quantile, quiet_quartile, sorted, Better};
use crate::workload::{
    fold_positions, fold_receipt, fold_scan, pool_slice, Inputs, Op, Sizes, Workload, APPLY_BATCH,
    TRACE_BATCH,
};
use algo_index::RangeIndex;
use shift_store::{ShardedStore, StoreConfig, WriteBatch};
use shift_table::spec::DynCorrectedIndex;
use shift_table::ShiftTableConfig;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Store = ShardedStore<u64>;

/// Lookups per timed block of a point-lookup round.
pub const BLOCK: usize = 16;
/// Chunks a bare-index round is cut into; the layer-on and the layer-off
/// side take turns chunk by chunk (a millisecond or two each), so both see
/// the same box.
const BARE_CHUNKS: usize = 16;
/// What a trace step that returned `Err` records as its result.
const STEP_FAILED: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// Measured seconds per run. The trial and cycle counts are fixed up
    /// front from it (`Sizes::cycles_for`); nothing is cut short or
    /// stretched while the run is under way, so every count repeats.
    pub seconds: f64,
    pub smoke: bool,
}

/// A scratch directory under `benchmark/target/scratch/`, removed when
/// dropped: on success, on a failed check and on a panic alike.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(trial: usize) -> Self {
        let path = env::output_dir()
            .join("scratch")
            .join(format!("{}-{trial}", std::process::id()));
        // A recycled pid may have left a directory behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch directory can be created");
        Self { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Operations attempted and failed. A failure is a wrong answer or an
/// `Err`; either makes the run exit non-zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// One attempt per element; a length mismatch fails every element.
    pub fn compare<T: PartialEq>(&mut self, got: &[T], want: &[T], what: &str) {
        self.attempted += want.len() as u64;
        let wrong = if got.len() == want.len() {
            got.iter().zip(want).filter(|(g, w)| g != w).count()
        } else {
            want.len()
        };
        if wrong > 0 {
            self.failed += wrong as u64;
            eprintln!("FAILED: {what}: {wrong} of {} answers differ", want.len());
        }
    }
}

pub fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// `ShardedStore::open_seeded` from the sorted in-memory keys to ready:
/// train, build the tables, write the seed checkpoint.
pub fn setup(dir: &Path, config: StoreConfig, keys: &[u64]) -> (Store, Duration) {
    let t = Instant::now();
    let store = Store::open_seeded(dir, config, keys).expect("a fresh directory seeds");
    (store, t.elapsed())
}

/// Execute one trace step against the store, returning its result in the
/// oracle's encoding.
#[inline]
pub fn step(store: &Store, inputs: &Inputs, op: Op, positions: &mut [usize; TRACE_BATCH]) -> u64 {
    match op {
        Op::Lookup(q) => store.lower_bound(black_box(q)) as u64,
        Op::Scan(lo, hi) => fold_scan(store.scan(lo, hi).into_iter()),
        Op::Batch(at) => {
            let qs = &inputs.batch_pool[at as usize..at as usize + TRACE_BATCH];
            store.lower_bound_batch(qs, positions);
            fold_positions(positions)
        }
        Op::Insert(k) => store.insert(k).map_or(STEP_FAILED, |()| 0),
        Op::Delete(k) => store.delete(k).map_or(STEP_FAILED, u64::from),
        Op::Rmw { read, write } => {
            let mut txn = store.begin();
            let seen = txn.get(read) as u64;
            txn.insert(write);
            // One client: nothing can invalidate the read set.
            txn.commit().map_or(STEP_FAILED, |_| seen)
        }
        Op::Apply(at) => {
            let mut batch = WriteBatch::with_capacity(APPLY_BATCH);
            batch.extend(
                inputs.apply_pool[at as usize..at as usize + APPLY_BATCH]
                    .iter()
                    .copied(),
            );
            store
                .apply(&batch)
                .map_or(STEP_FAILED, |r| fold_receipt(r.inserted, r.deleted))
        }
        Op::Maintain => store.maintain().map_or(STEP_FAILED, |_| 0),
        Op::Checkpoint => store.checkpoint().map_or(STEP_FAILED, |_| 0),
    }
}

/// Replay the whole trace, inline maintenance included; results land in
/// `results` for comparison after the clock has stopped.
pub fn replay(store: &Store, inputs: &Inputs, results: &mut Vec<u64>) -> Duration {
    results.clear();
    let mut positions = [0usize; TRACE_BATCH];
    let t = Instant::now();
    for &op in &inputs.trace {
        results.push(step(store, inputs, op, &mut positions));
    }
    t.elapsed()
}

/// After the trace and again after the reopen: the store's length, a full
/// scan and sampled lookups must match the oracle. An acknowledged write
/// that did not survive the reopen fails here.
pub fn verify(store: &Store, inputs: &Inputs, sizes: &Sizes, when: &str, tally: &mut Tally) {
    tally.check(
        store.len() == inputs.final_keys.len(),
        &format!(
            "{when}: len {} != oracle {}",
            store.len(),
            inputs.final_keys.len()
        ),
    );
    let all = store.scan(0, u64::MAX);
    tally.check(
        all == inputs.final_keys,
        &format!("{when}: full scan differs from the oracle"),
    );
    let n = sizes.verify_lookups.min(inputs.point.q.len());
    let got: Vec<usize> = inputs.point.q[..n]
        .iter()
        .map(|&q| store.lower_bound(q))
        .collect();
    tally.compare(
        &got,
        &inputs.point.store_expected[..n],
        &format!("{when}: sampled lookups"),
    );
}

/// One point-lookup round: every query once, timed in blocks of `BLOCK`
/// lookups. Returns the per-lookup (p50, p99, mean) in ns.
pub fn point_round(
    store: &Store,
    q: &[u64],
    out: &mut [usize],
    block_ns: &mut Vec<f64>,
) -> (f64, f64, f64) {
    block_ns.clear();
    let round = Instant::now();
    for (qs, os) in q.chunks_exact(BLOCK).zip(out.chunks_exact_mut(BLOCK)) {
        let t = Instant::now();
        for (o, &q) in os.iter_mut().zip(qs) {
            *o = store.lower_bound(black_box(q));
        }
        block_ns.push(elapsed_ns(t));
    }
    let mean = elapsed_ns(round) / (block_ns.len() * BLOCK) as f64;
    block_ns.sort_by(f64::total_cmp);
    let per_lookup = |p: f64| quantile(block_ns, p) / BLOCK as f64;
    (per_lookup(0.5), per_lookup(0.99), mean)
}

/// One call of `lower_bound_batch` over the round's queries; Mkeys/s.
pub fn batch_round(store: &Store, q: &[u64], out: &mut [usize]) -> f64 {
    let t = Instant::now();
    store.lower_bound_batch(black_box(q), out);
    q.len() as f64 / elapsed_ns(t) * 1e3
}

/// Every scan range of the round once; keys returned per second, in
/// Mkeys/s. `keys` is what the ranges return in total.
pub fn scan_round(store: &Store, ranges: &[(u64, u64)], keys: u64, folds: &mut Vec<u64>) -> f64 {
    folds.clear();
    let t = Instant::now();
    for &(lo, hi) in ranges {
        folds.push(fold_scan(store.scan(black_box(lo), hi).into_iter()));
    }
    keys as f64 / elapsed_ns(t) * 1e3
}

/// Scalar lookups on a bare index; total ns.
fn bare_chunk(index: &DynCorrectedIndex<u64>, q: &[u64], out: &mut [usize]) -> f64 {
    let t = Instant::now();
    for (o, &q) in out.iter_mut().zip(q) {
        *o = index.lower_bound(black_box(q));
    }
    elapsed_ns(t)
}

/// One bare-index round with the layer on (`q_on`) and one with it off
/// (`q_off`), cut into `BARE_CHUNKS` chunks that take turns. Returns ns
/// per lookup of either side; the layer is on again afterwards.
pub fn bare_pair_round(
    index: &mut DynCorrectedIndex<u64>,
    q_on: &[u64],
    q_off: &[u64],
    out_on: &mut [usize],
    out_off: &mut [usize],
) -> (f64, f64) {
    let chunk = |n: usize| n.div_ceil(BARE_CHUNKS).max(1);
    let (c_on, c_off) = (chunk(q_on.len()), chunk(q_off.len()));
    let (mut on_ns, mut off_ns) = (0.0, 0.0);
    let on = q_on.chunks(c_on).zip(out_on.chunks_mut(c_on));
    let off = q_off.chunks(c_off).zip(out_off.chunks_mut(c_off));
    for ((q_on, out_on), (q_off, out_off)) in on.zip(off) {
        index.set_layer_enabled(true);
        on_ns += bare_chunk(index, q_on, out_on);
        index.set_layer_enabled(false);
        off_ns += bare_chunk(index, q_off, out_off);
    }
    index.set_layer_enabled(true);
    (on_ns / q_on.len() as f64, off_ns / q_off.len() as f64)
}

/// The bare `CorrectedIndex` over the workload's seed keys and spec.
pub fn build_bare(w: &Workload, keys: &[u64]) -> DynCorrectedIndex<u64> {
    w.index_spec()
        .build_corrected_with(keys.to_vec(), ShiftTableConfig::default(), 1)
        .expect("generated keys are sorted")
}

/// Everything beyond the raw key column, per live key: models, correction
/// layers, fences and delta chains.
pub fn bytes_per_key(store: &Store) -> f64 {
    store.index_size_bytes() as f64 / store.len().max(1) as f64
}

/// One timed sample and the box index that held while it was taken.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw: f64,
    pub index: f64,
}

impl Timed {
    /// The sample at nominal box speed: on a box `index` times slower than
    /// nominal a time is that much too long and a rate that much too low.
    pub fn at_nominal(self, better: Better) -> f64 {
        match better {
            Better::Lower => self.raw / self.index,
            Better::Higher => self.raw * self.index,
        }
    }
}

/// The samples the untraced trials of one run took.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub reopen_ms: Vec<f64>,
    pub trace_kops: Vec<Timed>,
    pub lookup_p50_ns: Vec<Timed>,
    pub lookup_p99_ns: Vec<Timed>,
    /// Mean ns per lookup of every point round, block timers included.
    pub lookup_mean_ns: Vec<f64>,
    pub batch_mkeys: Vec<Timed>,
    pub scan_mkeys: Vec<Timed>,
    /// Per cycle: ns/lookup with the layer off over ns/lookup with it on.
    pub speedup: Vec<f64>,
    pub bytes_per_key: Vec<f64>,
}

/// Wall time of a run by phase, for sizing the workloads.
#[derive(Default)]
pub struct Phases {
    pub setup: Duration,
    pub trace: Duration,
    pub verify: Duration,
    pub cycles: Duration,
    pub reopen: Duration,
}

/// Runs untraced trials and collects their samples.
pub struct Untraced<'a> {
    w: &'static Workload,
    sizes: Sizes,
    inputs: &'a Inputs,
    bare: &'a mut DynCorrectedIndex<u64>,
    pub meter: Meter<'a>,
    pub tally: Tally,
    pub samples: Samples,
    pub phases: Phases,
    /// Read cycles done so far; decides which slice of the pools is next.
    cycle: usize,
    out: Vec<usize>,
    out_off: Vec<usize>,
    block_ns: Vec<f64>,
    folds: Vec<u64>,
    results: Vec<u64>,
}

impl<'a> Untraced<'a> {
    pub fn new(
        w: &'static Workload,
        sizes: Sizes,
        inputs: &'a Inputs,
        bare: &'a mut DynCorrectedIndex<u64>,
    ) -> Self {
        let nq = sizes.round_queries;
        Self {
            w,
            sizes,
            inputs,
            bare,
            meter: Meter::new(&inputs.keys, &inputs.point.q, w.reference_ns),
            tally: Tally::default(),
            samples: Samples::default(),
            phases: Phases::default(),
            cycle: 0,
            out: vec![0; nq],
            out_off: vec![0; sizes.bare_off_queries.min(nq)],
            block_ns: Vec::with_capacity(nq / BLOCK),
            folds: Vec::with_capacity(sizes.scans_per_round),
            results: Vec::with_capacity(inputs.trace.len()),
        }
    }

    /// One trial with `cycles` read cycles.
    pub fn trial(&mut self, trial: usize, cycles: usize) {
        let (w, inputs, sizes) = (self.w, self.inputs, self.sizes);
        let config = w.store_config();
        let scratch = Scratch::new(trial);
        let s = &mut self.samples;

        let (store, setup_time) = setup(scratch.path(), config, &inputs.keys);
        s.setup_s.push(setup_time.as_secs_f64());
        self.phases.setup += setup_time;

        // The replay sits between two samples of the reference kernel.
        self.meter.open();
        let trace_time = replay(&store, inputs, &mut self.results);
        s.trace_kops.push(Timed {
            raw: inputs.trace_weight as f64 / trace_time.as_secs_f64() / 1e3,
            index: self.meter.close(),
        });
        self.phases.trace += trace_time;
        let t = Instant::now();
        self.tally
            .compare(&self.results, &inputs.expected, "trace replay");
        verify(&store, inputs, &sizes, "after trace", &mut self.tally);
        self.phases.verify += t.elapsed();

        // Read cycles: the kinds take turns, so that every metric samples
        // the whole run and a neighbour's burst lands on all kinds alike;
        // every store round sits between two samples of the reference
        // kernel, consecutive rounds sharing the sample between them.
        let t = Instant::now();
        let nq = sizes.round_queries;
        self.meter.open();
        for _ in 0..cycles {
            let r = pool_slice(self.cycle, nq);
            let (p50, p99, mean) = point_round(
                &store,
                &inputs.point.q[r.clone()],
                &mut self.out,
                &mut self.block_ns,
            );
            let index = self.meter.close();
            s.lookup_p50_ns.push(Timed { raw: p50, index });
            s.lookup_p99_ns.push(Timed { raw: p99, index });
            s.lookup_mean_ns.push(mean);
            self.tally.compare(
                &self.out,
                &inputs.point.store_expected[r.clone()],
                "point round",
            );

            let raw = batch_round(&store, &inputs.batch.q[r.clone()], &mut self.out);
            let index = self.meter.close();
            s.batch_mkeys.push(Timed { raw, index });
            self.tally
                .compare(&self.out, &inputs.batch.store_expected[r], "batch round");

            let r = pool_slice(self.cycle, sizes.scans_per_round);
            let keys = inputs.scan_lens[r.clone()]
                .iter()
                .map(|&n| u64::from(n))
                .sum();
            let raw = scan_round(&store, &inputs.scans[r.clone()], keys, &mut self.folds);
            let index = self.meter.close();
            s.scan_mkeys.push(Timed { raw, index });
            self.tally
                .compare(&self.folds, &inputs.scan_expected[r], "scan round");

            // The bare index takes other slices of the point pool than the
            // store did this cycle, and another with the layer off than
            // with it on: no side finds its lines warmed by another.
            let on = pool_slice(self.cycle + 2, nq);
            let off = pool_slice(self.cycle + 3, nq);
            let off = off.start..off.start + self.out_off.len();
            let (on_ns, off_ns) = bare_pair_round(
                self.bare,
                &inputs.point.q[on.clone()],
                &inputs.point.q[off.clone()],
                &mut self.out,
                &mut self.out_off,
            );
            s.speedup.push(off_ns / on_ns);
            self.tally.compare(
                &self.out,
                &inputs.point.bare_expected[on],
                "bare index, layer on",
            );
            self.tally.compare(
                &self.out_off,
                &inputs.point.bare_expected[off],
                "bare index, layer off",
            );
            self.meter.open();
            self.cycle += 1;
        }
        self.phases.cycles += t.elapsed();

        s.bytes_per_key.push(bytes_per_key(&store));
        if w.checkpoint_before_reopen() {
            self.tally
                .check(store.checkpoint().is_ok(), "checkpoint before reopen");
        }
        drop(store);

        let t = Instant::now();
        let reopened = Store::open(scratch.path(), config);
        let reopen_time = t.elapsed();
        s.reopen_ms.push(reopen_time.as_secs_f64() * 1e3);
        self.phases.reopen += reopen_time;
        let t = Instant::now();
        match reopened {
            Ok(store) => verify(&store, inputs, &sizes, "after reopen", &mut self.tally),
            Err(e) => self.tally.check(false, &format!("reopen: {e}")),
        }
        self.phases.verify += t.elapsed();
    }
}

/// The facade metrics, in the order they are reported.
pub const FACADE: [&str; 9] = [
    "setup_s",
    "lookup_p50_ns",
    "lookup_p99_ns",
    "batch_mkeys_per_s",
    "scan_mkeys_per_s",
    "trace_kops_per_s",
    "reopen_ms",
    "bytes_per_key",
    "speedup_vs_model_only",
];

/// One facade metric of a run: the quiet quartile of its samples (p25 of
/// times, p75 of rates), as measured and at nominal box speed.
pub struct Facade {
    pub name: &'static str,
    pub raw: f64,
    pub nominal: Option<f64>,
    pub estimator: &'static str,
    pub samples: usize,
}

fn quiet(name: &'static str, samples: &[Timed], better: Better) -> Facade {
    let estimator = match better {
        Better::Lower => "p25",
        Better::Higher => "p75",
    };
    let of = |f: &dyn Fn(&Timed) -> f64| {
        quiet_quartile(&samples.iter().map(f).collect::<Vec<_>>(), better)
    };
    Facade {
        name,
        raw: of(&|t| t.raw),
        nominal: Some(of(&|t| t.at_nominal(better))),
        estimator,
        samples: samples.len(),
    }
}

impl Samples {
    /// What a caller of the store sees, one value per metric. `setup_s`
    /// and `reopen_ms` train, build and do file I/O, which the search
    /// kernel does not stand for: they have no nominal value.
    pub fn facade(&self) -> Vec<Facade> {
        let plain = |name, samples: &[f64], value: f64, estimator| Facade {
            name,
            raw: value,
            nominal: None,
            estimator,
            samples: samples.len(),
        };
        vec![
            plain("setup_s", &self.setup_s, median(&self.setup_s), "median"),
            quiet("lookup_p50_ns", &self.lookup_p50_ns, Better::Lower),
            quiet("lookup_p99_ns", &self.lookup_p99_ns, Better::Lower),
            quiet("batch_mkeys_per_s", &self.batch_mkeys, Better::Higher),
            quiet("scan_mkeys_per_s", &self.scan_mkeys, Better::Higher),
            quiet("trace_kops_per_s", &self.trace_kops, Better::Higher),
            plain(
                "reopen_ms",
                &self.reopen_ms,
                median(&self.reopen_ms),
                "median",
            ),
            plain(
                "bytes_per_key",
                &self.bytes_per_key,
                self.bytes_per_key[0],
                "exact",
            ),
            // A busy box lowers the ratio (the two dependent misses of a
            // corrected lookup slow down more than the model-only gallop):
            // the quiet quartile is the upper one.
            plain(
                "speedup_vs_model_only",
                &self.speedup,
                quiet_quartile(&self.speedup, Better::Higher),
                "p75",
            ),
        ]
    }

    /// Every raw sample with its box index, as a JSON object: the result
    /// file keeps them so that another estimator can be tried on a
    /// recorded run.
    pub fn to_json(&self) -> String {
        let list = |values: Vec<f64>| values.iter().map(|&v| num(v)).collect::<Vec<_>>().join(",");
        let timed = |name: &str, samples: &[Timed]| {
            format!(
                "{}:{{\"raw\":[{}],\"index\":[{}]}}",
                quote(name),
                list(samples.iter().map(|t| t.raw).collect()),
                list(samples.iter().map(|t| t.index).collect())
            )
        };
        let plain = |name: &str, samples: &[f64]| {
            format!("{}:{{\"raw\":[{}]}}", quote(name), list(samples.to_vec()))
        };
        format!(
            "{{{}}}",
            [
                plain("setup_s", &self.setup_s),
                timed("lookup_p50_ns", &self.lookup_p50_ns),
                timed("lookup_p99_ns", &self.lookup_p99_ns),
                timed("batch_mkeys_per_s", &self.batch_mkeys),
                timed("scan_mkeys_per_s", &self.scan_mkeys),
                timed("trace_kops_per_s", &self.trace_kops),
                plain("reopen_ms", &self.reopen_ms),
                plain("speedup_vs_model_only", &self.speedup),
            ]
            .join(",")
        )
    }

    /// `bytes_per_key` is exact: every trial must report the same.
    pub fn bytes_per_key_repeats(&self) -> bool {
        self.bytes_per_key
            .iter()
            .all(|&b| b == self.bytes_per_key[0])
    }
}

/// p75 / p25 of the run's point-lookup rounds: near 1 on a quiet box,
/// above ~1.25 when a neighbour's burst covered part of the run.
pub fn round_spread(round_means: &[f64]) -> f64 {
    let s = sorted(round_means);
    let low = quantile(&s, 0.25);
    if low > 0.0 {
        quantile(&s, 0.75) / low
    } else {
        1.0
    }
}

pub fn run(w: &'static Workload, opts: RunOptions) -> Report {
    let start = Instant::now();
    let sizes = w.sizes(opts.smoke);
    let inputs = Inputs::generate(w, &sizes, opts.seed);
    let mut bare = build_bare(w, &inputs.keys);
    let generate = start.elapsed();
    let cycles = sizes.cycles_for(opts.seconds / metrics::default_seconds());

    let mut trials = Untraced::new(w, sizes, &inputs, &mut bare);
    for trial in 0..sizes.trials {
        trials.trial(trial, cycles);
    }
    let (s, mut tally, phases) = (&trials.samples, trials.tally, &trials.phases);
    tally.check(
        s.bytes_per_key_repeats(),
        "bytes_per_key differs between trials",
    );

    let mut report = Report::new(w.name, &END_TO_END);
    for f in s.facade() {
        report.set_beside(f.name, f.raw, f.nominal, f.estimator, f.samples);
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.fingerprint = env::fingerprint_json(
        opts.seed,
        sizes.trials,
        inputs.keys.len(),
        inputs.trace_weight,
    );
    report.samples = s.to_json();

    let spread = round_spread(&s.lookup_mean_ns);
    let reference_ns = median(&trials.meter.history);
    let secs = |d: Duration| d.as_secs_f64();
    println!(
        "{:<14} noise.round_spread={spread:.3} noise.box_index={:.3} noise.reference_ns={reference_ns:.1} \
         trials={} cycles={} trace_hash={:016x}",
        w.name,
        reference_ns / w.reference_ns,
        sizes.trials,
        s.speedup.len(),
        inputs.trace_hash(),
    );
    println!(
        "{:<14} wall={:.1}s generate={:.1}s setup={:.1}s trace={:.1}s cycles={:.1}s reopen={:.1}s verify={:.1}s",
        w.name,
        secs(start.elapsed()),
        secs(generate),
        secs(phases.setup),
        secs(phases.trace),
        secs(phases.cycles),
        secs(phases.reopen),
        secs(phases.verify),
    );
    if spread > 1.25 {
        eprintln!(
            "warning: {}: noise.round_spread {spread:.2} > 1.25 — a neighbour was busy during this run",
            w.name
        );
    }
    report
}
