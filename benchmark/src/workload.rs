//! The four workloads: what each one stores, how it is configured, and the
//! inputs (keys, op trace, read-round queries, expected answers) a run
//! derives from `(workload, seed)` before any timing starts.

use crate::oracle::{lower_bounds, Oracle};
use shift_store::{BatchOp, DurabilityConfig, StoreConfig, SyncPolicy};
use shift_table::spec::IndexSpec;
use sosd_data::rng::{Xoshiro256, Zipf};
use sosd_data::{Dataset, SosdName};

/// The seed of every workload's key set. The key set is part of the
/// workload, like its dataset name and size: `--seed` draws the queries and
/// the op trace over it. Were the keys redrawn per seed, the model error
/// and the window widths would move with them, and runs with different
/// seeds — which is how the acceptance check measures spread — would differ
/// by the dataset, not by noise.
const DATASET_SEED: u64 = 42;
/// Keys per `lower_bound_batch` op of a trace.
pub const TRACE_BATCH: usize = 256;
/// Ops per `apply` batch of a trace.
pub const APPLY_BATCH: usize = 32;
/// Keys a trace scan is sized to return.
const TRACE_SCAN_KEYS: usize = 100;
/// Keys a read-round scan is sized to return.
pub const ROUND_SCAN_KEYS: usize = 256;
/// Rounds' worth of queries (and scan ranges) a run generates. Round `r`
/// uses slice `r % POOL_ROUNDS`, so a query comes back only after four
/// cycles (half a gigabyte of other traffic): no round finds its lines
/// left in the shared last-level cache by the round before, which on a
/// quiet box it would and on a busy one it would not.
pub const POOL_ROUNDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StaticNarrow,
    StaticWide,
    StoreMixed,
    DurableIngest,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub dataset: SosdName,
    pub spec: &'static str,
    pub shards: usize,
    /// ns per search of the box-speed reference (binary search over this
    /// workload's keys with its own queries, see `probe.rs`) at the full
    /// size on the calibration box in a quiet minute.
    pub reference_ns: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::StaticNarrow,
        name: "static_narrow",
        dataset: SosdName::Osmc64,
        spec: "rmi:4096+r1",
        shards: 1,
        reference_ns: 310.0,
    },
    Workload {
        kind: Kind::StaticWide,
        name: "static_wide",
        dataset: SosdName::Amzn64,
        spec: "im+r1",
        shards: 1,
        reference_ns: 410.0,
    },
    Workload {
        kind: Kind::StoreMixed,
        name: "store_mixed",
        dataset: SosdName::Face64,
        spec: "im+r1",
        shards: 16,
        reference_ns: 54.0,
    },
    Workload {
        kind: Kind::DurableIngest,
        name: "durable_ingest",
        dataset: SosdName::Wiki64,
        spec: "im+r1",
        shards: 8,
        reference_ns: 270.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work one run does. The full sizes are tuned so that one run
/// fills the default `--seconds` on the calibration box; the smoke sizes
/// exist for the tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub seed_keys: usize,
    /// Logical ops of the trace (an `apply` batch counts its 32). For
    /// `durable_ingest` the schedule below decides; this is ignored.
    pub trace_ops: usize,
    /// Queries per point-lookup round and per `lower_bound_batch` call; the
    /// pools hold `POOL_ROUNDS` times as many.
    pub round_queries: usize,
    pub scans_per_round: usize,
    /// Queries per bare-index round with the layer off; with it on the
    /// round takes `round_queries`.
    pub bare_off_queries: usize,
    /// Trials per untraced run; untraced and traced trials per traced run.
    pub trials: usize,
    pub traced_run_trials: (usize, usize),
    /// Round-robin read cycles per trial at the default run length.
    pub cycles: usize,
    pub verify_lookups: usize,
    /// Queries per layer-probe phase of a traced trial.
    pub probe_queries: usize,
    /// `durable_ingest` only: explicit `maintain()` / `checkpoint()` every
    /// this many ops, this many checkpoints, and the WAL tail left after
    /// the last one.
    pub maintain_every: usize,
    pub checkpoint_every: usize,
    pub checkpoints: usize,
    pub tail_ops: usize,
}

impl Sizes {
    /// Read cycles per trial of a run `scale` times as long as the
    /// default, never fewer than two. Fixed before the run starts: a slow
    /// box makes the run longer, not the sample counts smaller.
    pub fn cycles_for(&self, scale: f64) -> usize {
        ((self.cycles as f64 * scale).round() as usize).max(2)
    }
}

impl Workload {
    pub fn sizes(&self, smoke: bool) -> Sizes {
        if smoke {
            return Sizes {
                seed_keys: 1 << 15,
                trace_ops: 20_000,
                round_queries: 1 << 11,
                scans_per_round: 64,
                bare_off_queries: 1 << 10,
                trials: 2,
                traced_run_trials: (1, 1),
                cycles: 2,
                verify_lookups: 1 << 10,
                probe_queries: 1 << 11,
                maintain_every: 1024,
                checkpoint_every: 4096,
                checkpoints: 3,
                tail_ops: 1000,
            };
        }
        let base = Sizes {
            seed_keys: 4 << 20,
            trace_ops: 1 << 21,
            round_queries: 1 << 18,
            scans_per_round: 1 << 14,
            bare_off_queries: 1 << 18,
            trials: 5,
            traced_run_trials: (2, 2),
            cycles: 4,
            verify_lookups: 1 << 16,
            probe_queries: 1 << 16,
            maintain_every: 16_384,
            checkpoint_every: 65_536,
            checkpoints: 4,
            tail_ops: 20_000,
        };
        match self.kind {
            // osmc64 takes a second per million keys to generate, and
            // seeding or reopening a store with `rmi:4096` a quarter of one.
            Kind::StaticNarrow => Sizes {
                seed_keys: 2 << 20,
                trials: 7,
                cycles: 5,
                ..base
            },
            // Layer-off lookups on amzn64 gallop over ~1000 keys each.
            Kind::StaticWide => Sizes {
                bare_off_queries: 1 << 16,
                trials: 7,
                cycles: 4,
                ..base
            },
            Kind::StoreMixed => Sizes {
                trace_ops: 1_250_000,
                cycles: 6,
                ..base
            },
            Kind::DurableIngest => Sizes {
                seed_keys: 2 << 20,
                maintain_every: 8192,
                checkpoint_every: 32_768,
                cycles: 4,
                ..base
            },
        }
    }

    pub fn index_spec(&self) -> IndexSpec {
        IndexSpec::parse(self.spec).expect("workload specs are literals that parse")
    }

    /// The store configuration of this workload. No background threads and
    /// no timers anywhere: maintenance is inline or an explicit trace op,
    /// so counts repeat exactly.
    pub fn store_config(&self) -> StoreConfig {
        let durability = DurabilityConfig::new().checkpoint_ops(0);
        let config = StoreConfig::new(self.index_spec())
            .shards(self.shards)
            .delta_threshold(4096)
            .build_threads(1)
            .background_maintenance(false)
            .metrics(true);
        match self.kind {
            Kind::StaticNarrow | Kind::StaticWide | Kind::StoreMixed => config
                .auto_rebuild(true)
                .durability(durability.sync(SyncPolicy::Os)),
            Kind::DurableIngest => config.auto_rebuild(false).durability(
                durability
                    .sync(SyncPolicy::EveryN(64))
                    .group_commit(true)
                    .incremental_checkpoints(true),
            ),
        }
    }

    /// `durable_ingest` keeps its WAL tail for the reopen to replay; the
    /// others checkpoint before the store is dropped.
    pub fn checkpoint_before_reopen(&self) -> bool {
        self.kind != Kind::DurableIngest
    }
}

/// One step of an op trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lookup(u64),
    /// `scan(lo, hi)`, inclusive.
    Scan(u64, u64),
    /// `lower_bound_batch` over `batch_pool[i .. i + TRACE_BATCH]`.
    Batch(u32),
    Insert(u64),
    Delete(u64),
    /// `begin -> get(read) -> insert(write) -> commit`.
    Rmw {
        read: u64,
        write: u64,
    },
    /// `apply` of `apply_pool[i .. i + APPLY_BATCH]`.
    Apply(u32),
    Maintain,
    Checkpoint,
}

impl Op {
    /// Logical operations this step stands for.
    pub fn weight(&self) -> usize {
        match self {
            Op::Apply(_) => APPLY_BATCH,
            Op::Maintain | Op::Checkpoint => 0,
            _ => 1,
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Insert(_) | Op::Delete(_) | Op::Rmw { .. } | Op::Apply(_)
        )
    }
}

/// What a scan's result is reduced to for comparison: its length and the
/// wrapping sum of its keys.
pub fn fold_scan(keys: impl Iterator<Item = u64>) -> u64 {
    let (mut n, mut sum) = (0u64, 0u64);
    for k in keys {
        n += 1;
        sum = sum.wrapping_add(k);
    }
    n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sum
}

/// What a batch of positions is reduced to: an order-sensitive sum.
pub fn fold_positions(positions: &[usize]) -> u64 {
    positions.iter().zip(1u64..).fold(0u64, |acc, (&p, i)| {
        acc.wrapping_add((p as u64).wrapping_mul(i))
    })
}

pub fn fold_receipt(inserted: usize, deleted: usize) -> u64 {
    ((inserted as u64) << 32) | deleted as u64
}

/// A pool of read-round queries with the answers expected from the store
/// (after the trace) and from the bare index (over the seed keys).
pub struct Queries {
    pub q: Vec<u64>,
    pub store_expected: Vec<usize>,
    pub bare_expected: Vec<usize>,
}

/// The part of a pool of `POOL_ROUNDS * per_round` items that round
/// `round` uses.
pub fn pool_slice(round: usize, per_round: usize) -> std::ops::Range<usize> {
    let start = (round % POOL_ROUNDS) * per_round;
    start..start + per_round
}

pub struct Inputs {
    /// Sorted seed keys (may hold duplicates).
    pub keys: Vec<u64>,
    pub trace: Vec<Op>,
    pub batch_pool: Vec<u64>,
    pub apply_pool: Vec<BatchOp<u64>>,
    /// The oracle's result of every trace step.
    pub expected: Vec<u64>,
    /// Sum of the steps' weights.
    pub trace_weight: usize,
    /// The oracle's column after the trace.
    pub final_keys: Vec<u64>,
    pub point: Queries,
    pub batch: Queries,
    /// `POOL_ROUNDS * scans_per_round` ranges and the fold of each result.
    pub scans: Vec<(u64, u64)>,
    pub scan_expected: Vec<u64>,
    /// Keys each range returns.
    pub scan_lens: Vec<u32>,
}

/// Where a workload's point queries fall.
enum Dist {
    /// Uniform over the indexed keys.
    Indexed,
    /// Uniform over the gaps between adjacent keys: non-indexed keys (the
    /// endpoints of range queries) that fall where the data is dense, as
    /// the keys themselves do.
    Gaps,
    /// Zipf over the shards' slices, then uniform inside a small window of
    /// the chosen slice: a hot set that fits the private cache.
    Hot { zipf: Zipf, window: usize },
}

impl Dist {
    fn draw(&self, keys: &[u64], rng: &mut Xoshiro256) -> u64 {
        let n = keys.len();
        match self {
            Dist::Indexed => keys[rng.next_below(n as u64) as usize],
            Dist::Gaps => {
                let i = rng.next_below(n as u64 - 1) as usize;
                rng.next_in_range(keys[i], keys[i + 1])
            }
            Dist::Hot { zipf, window } => {
                let slices = zipf.len();
                // Rotated so the hottest slice is not the leftmost one.
                let slice = (zipf.sample(rng) + 3) % slices;
                let slice_len = n / slices;
                let window = (*window).min(slice_len);
                let start = slice * slice_len + (slice_len - window) / 2;
                keys[start + rng.next_below(window as u64) as usize]
            }
        }
    }
}

fn name_salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

impl Inputs {
    pub fn generate(w: &Workload, sizes: &Sizes, seed: u64) -> Inputs {
        let dataset: Dataset<u64> = w.dataset.generate(sizes.seed_keys, DATASET_SEED);
        let keys = dataset.into_keys();
        let mut rng = Xoshiro256::new(seed ^ name_salt(w.name));
        let dist = match w.kind {
            Kind::StaticNarrow | Kind::DurableIngest => Dist::Indexed,
            Kind::StaticWide => Dist::Gaps,
            Kind::StoreMixed => Dist::Hot {
                zipf: Zipf::new(w.shards, 0.99),
                window: 4096,
            },
        };

        let mut gen = TraceGen {
            keys: &keys,
            dist: &dist,
            rng: &mut rng,
            trace: Vec::new(),
            batch_pool: Vec::new(),
            apply_pool: Vec::new(),
        };
        match w.kind {
            Kind::StaticNarrow | Kind::StaticWide => gen.static_reads(sizes.trace_ops),
            Kind::StoreMixed => gen.mixed(sizes.trace_ops),
            Kind::DurableIngest => gen.ingest(sizes),
        }
        let TraceGen {
            trace,
            batch_pool,
            apply_pool,
            ..
        } = gen;

        let mut oracle = Oracle::new(&keys);
        let expected = replay_into_oracle(&mut oracle, &trace, &batch_pool, &apply_pool);
        let final_keys = oracle.to_vec();
        drop(oracle);

        let mut queries = |count: usize| {
            let q: Vec<u64> = (0..count).map(|_| dist.draw(&keys, &mut rng)).collect();
            Queries {
                store_expected: lower_bounds(&final_keys, &q),
                bare_expected: lower_bounds(&keys, &q),
                q,
            }
        };
        let point = queries(sizes.round_queries * POOL_ROUNDS);
        let batch = queries(sizes.round_queries * POOL_ROUNDS);

        // Read-round scans cover `ROUND_SCAN_KEYS` consecutive positions. A
        // range whose endpoints sit in a long run of duplicates returns
        // the whole run; such a draw is redrawn so that a round's size
        // does not hang on how many of them the seed happens to hit.
        let span = ROUND_SCAN_KEYS.min(final_keys.len());
        let count = |lo: u64, hi: u64| {
            let a = final_keys.partition_point(|&k| k < lo);
            (a, final_keys.partition_point(|&k| k <= hi))
        };
        let pool = sizes.scans_per_round * POOL_ROUNDS;
        let mut scans = Vec::with_capacity(pool);
        let mut scan_expected = Vec::with_capacity(pool);
        let mut scan_lens = Vec::with_capacity(pool);
        while scans.len() < pool {
            let i = rng.next_below((final_keys.len() - span + 1) as u64) as usize;
            let (lo, hi) = (final_keys[i], final_keys[i + span - 1]);
            let (a, b) = count(lo, hi);
            if b - a <= 2 * span {
                scans.push((lo, hi));
                scan_expected.push(fold_scan(final_keys[a..b].iter().copied()));
                scan_lens.push((b - a) as u32);
            }
        }

        Inputs {
            trace_weight: trace.iter().map(Op::weight).sum(),
            keys,
            trace,
            batch_pool,
            apply_pool,
            expected,
            final_keys,
            point,
            batch,
            scans,
            scan_expected,
            scan_lens,
        }
    }

    /// FNV-1a over the trace and its pools: equal exactly when two runs
    /// would replay the same operations.
    pub fn trace_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for op in &self.trace {
            match *op {
                Op::Lookup(k) => [1, k, 0],
                Op::Scan(lo, hi) => [2, lo, hi],
                Op::Batch(i) => [3, i as u64, 0],
                Op::Insert(k) => [4, k, 0],
                Op::Delete(k) => [5, k, 0],
                Op::Rmw { read, write } => [6, read, write],
                Op::Apply(i) => [7, i as u64, 0],
                Op::Maintain => [8, 0, 0],
                Op::Checkpoint => [9, 0, 0],
            }
            .into_iter()
            .for_each(&mut eat);
        }
        self.batch_pool.iter().copied().for_each(&mut eat);
        for op in &self.apply_pool {
            match *op {
                BatchOp::Insert(k) => [1, k],
                BatchOp::Delete(k) => [2, k],
            }
            .into_iter()
            .for_each(&mut eat);
        }
        h
    }
}

struct TraceGen<'a> {
    keys: &'a [u64],
    dist: &'a Dist,
    rng: &'a mut Xoshiro256,
    trace: Vec<Op>,
    batch_pool: Vec<u64>,
    apply_pool: Vec<BatchOp<u64>>,
}

impl TraceGen<'_> {
    fn indexed_key(&mut self) -> u64 {
        self.keys[self.rng.next_below(self.keys.len() as u64) as usize]
    }

    fn domain_key(&mut self) -> u64 {
        self.rng
            .next_in_range(self.keys[0], self.keys[self.keys.len() - 1])
    }

    /// A scan over `TRACE_SCAN_KEYS` consecutive seed keys starting inside
    /// `[from, from + len)`.
    fn scan_within(&mut self, from: usize, len: usize) -> Op {
        let span = TRACE_SCAN_KEYS.min(len);
        let i = from + self.rng.next_below((len - span + 1) as u64) as usize;
        Op::Scan(self.keys[i], self.keys[i + span - 1])
    }

    /// 95% lookups inside one hot sixteenth of the column, 5% short scans
    /// there: the serving phase of a store that is never written. The hot
    /// sixteenth is the same for every seed (how dense the keys are there
    /// decides the window widths); the seed draws the queries inside it.
    fn static_reads(&mut self, ops: usize) {
        let n = self.keys.len();
        let hot_len = (n / 16).max(1);
        let hot_start = (n - hot_len) / 3;
        for _ in 0..ops {
            let op = if self.rng.next_below(100) < 95 {
                let i = hot_start + self.rng.next_below(hot_len as u64 - 1) as usize;
                match self.dist {
                    Dist::Gaps => {
                        Op::Lookup(self.rng.next_in_range(self.keys[i], self.keys[i + 1]))
                    }
                    _ => Op::Lookup(self.keys[i]),
                }
            } else {
                self.scan_within(hot_start, hot_len)
            };
            self.trace.push(op);
        }
    }

    /// Reads beside writes: 70% hot lookups, 12% inserts, 4% deletes, 2%
    /// read-modify-write transactions, 10% scans, 2% batch lookups.
    fn mixed(&mut self, ops: usize) {
        for _ in 0..ops {
            let roll = self.rng.next_below(100);
            let op = if roll < 70 {
                Op::Lookup(self.dist.draw(self.keys, self.rng))
            } else if roll < 82 {
                Op::Insert(self.domain_key())
            } else if roll < 86 {
                Op::Delete(self.indexed_key())
            } else if roll < 88 {
                Op::Rmw {
                    read: self.dist.draw(self.keys, self.rng),
                    write: self.domain_key(),
                }
            } else if roll < 98 {
                self.scan_within(0, self.keys.len())
            } else {
                let at = self.batch_pool.len() as u32;
                for _ in 0..TRACE_BATCH {
                    let q = self.dist.draw(self.keys, self.rng);
                    self.batch_pool.push(q);
                }
                Op::Batch(at)
            };
            self.trace.push(op);
        }
    }

    /// Write-first: by op count 80% writes in `apply` batches of 32, 10%
    /// single inserts/deletes, 10% lookups, with an explicit `maintain()`
    /// and `checkpoint()` at fixed op counts and a fixed WAL tail after
    /// the last checkpoint.
    fn ingest(&mut self, sizes: &Sizes) {
        let mut count = 0usize;
        let mut next_maintain = sizes.maintain_every;
        let mut next_checkpoint = sizes.checkpoint_every;
        let mut checkpoints = 0usize;
        let mut end_at = None;
        while end_at != Some(count) {
            let room = end_at.map_or(usize::MAX, |end| end - count);
            // Steps in the ratio 1 batch : 4 singles : 4 lookups carry ops
            // in the ratio 32 : 4 : 4.
            let roll = self.rng.next_below(9);
            let op = if roll == 0 && room >= APPLY_BATCH {
                let at = self.apply_pool.len() as u32;
                for _ in 0..APPLY_BATCH {
                    let op = if self.rng.next_below(4) == 0 {
                        BatchOp::Delete(self.indexed_key())
                    } else {
                        BatchOp::Insert(self.domain_key())
                    };
                    self.apply_pool.push(op);
                }
                Op::Apply(at)
            } else if roll <= 4 {
                if self.rng.next_below(2) == 0 {
                    Op::Insert(self.domain_key())
                } else {
                    Op::Delete(self.indexed_key())
                }
            } else {
                Op::Lookup(self.indexed_key())
            };
            count += op.weight();
            self.trace.push(op);
            if count >= next_maintain {
                self.trace.push(Op::Maintain);
                next_maintain += sizes.maintain_every;
            }
            if checkpoints < sizes.checkpoints && count >= next_checkpoint {
                self.trace.push(Op::Checkpoint);
                next_checkpoint += sizes.checkpoint_every;
                checkpoints += 1;
                if checkpoints == sizes.checkpoints {
                    end_at = Some(count + sizes.tail_ops);
                }
            }
        }
    }
}

/// Replay `trace` into the oracle, returning the result of every step in
/// the encoding the store replay produces.
fn replay_into_oracle(
    oracle: &mut Oracle,
    trace: &[Op],
    batch_pool: &[u64],
    apply_pool: &[BatchOp<u64>],
) -> Vec<u64> {
    let mut positions = vec![0usize; TRACE_BATCH];
    trace
        .iter()
        .map(|op| match *op {
            Op::Lookup(q) => oracle.lower_bound(q) as u64,
            Op::Scan(lo, hi) => fold_scan(oracle.range(lo, hi)),
            Op::Batch(at) => {
                let qs = &batch_pool[at as usize..at as usize + TRACE_BATCH];
                for (p, &q) in positions.iter_mut().zip(qs) {
                    *p = oracle.lower_bound(q);
                }
                fold_positions(&positions)
            }
            Op::Insert(k) => {
                oracle.insert(k);
                0
            }
            Op::Delete(k) => oracle.delete(k) as u64,
            Op::Rmw { read, write } => {
                let seen = oracle.count_of(read) as u64;
                oracle.insert(write);
                seen
            }
            Op::Apply(at) => {
                let (mut inserted, mut deleted) = (0, 0);
                for op in &apply_pool[at as usize..at as usize + APPLY_BATCH] {
                    match *op {
                        BatchOp::Insert(k) => {
                            oracle.insert(k);
                            inserted += 1;
                        }
                        BatchOp::Delete(k) => deleted += oracle.delete(k) as usize,
                    }
                }
                fold_receipt(inserted, deleted)
            }
            Op::Maintain | Op::Checkpoint => 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_pure_function_of_workload_and_seed() {
        for w in &WORKLOADS {
            let sizes = w.sizes(true);
            let a = Inputs::generate(w, &sizes, 7);
            let b = Inputs::generate(w, &sizes, 7);
            let c = Inputs::generate(w, &sizes, 8);
            assert_eq!(a.trace_hash(), b.trace_hash(), "{}", w.name);
            assert_eq!(a.expected, b.expected, "{}", w.name);
            assert_eq!(a.point.q, b.point.q, "{}", w.name);
            assert_ne!(a.trace_hash(), c.trace_hash(), "{}", w.name);
        }
        let hashes: Vec<u64> = WORKLOADS
            .iter()
            .map(|w| Inputs::generate(w, &w.sizes(true), 7).trace_hash())
            .collect();
        for (i, h) in hashes.iter().enumerate() {
            assert!(!hashes[..i].contains(h), "workloads share a trace");
        }
    }

    #[test]
    fn ingest_schedule_ends_a_fixed_tail_after_the_last_checkpoint() {
        let w = find("durable_ingest").unwrap();
        let sizes = w.sizes(true);
        let inputs = Inputs::generate(w, &sizes, 3);
        let last = inputs
            .trace
            .iter()
            .rposition(|op| *op == Op::Checkpoint)
            .unwrap();
        let tail: usize = inputs.trace[last..].iter().map(Op::weight).sum();
        assert_eq!(tail, sizes.tail_ops);
        let checkpoints = inputs
            .trace
            .iter()
            .filter(|op| **op == Op::Checkpoint)
            .count();
        assert_eq!(checkpoints, sizes.checkpoints);
        let writes: usize = inputs
            .trace
            .iter()
            .filter(|op| op.is_write())
            .map(Op::weight)
            .sum();
        let share = writes as f64 / inputs.trace_weight as f64;
        assert!((0.85..0.95).contains(&share), "write share {share}");
    }

    #[test]
    fn cycle_counts_are_fixed_by_the_run_length_alone() {
        let sizes = find("store_mixed").unwrap().sizes(false);
        assert_eq!(sizes.cycles_for(1.0), sizes.cycles);
        assert_eq!(sizes.cycles_for(2.0), 2 * sizes.cycles);
        assert_eq!(sizes.cycles_for(0.0), 2);
    }

    #[test]
    fn static_traces_never_write() {
        for name in ["static_narrow", "static_wide"] {
            let w = find(name).unwrap();
            let inputs = Inputs::generate(w, &w.sizes(true), 5);
            assert!(inputs.trace.iter().all(|op| !op.is_write()));
            assert_eq!(inputs.final_keys, inputs.keys);
            assert_eq!(inputs.trace_weight, inputs.trace.len());
        }
    }
}
