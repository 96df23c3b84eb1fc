//! The metrics scrape: every exported family, assembled from one pinned
//! table at scrape time.

use crate::obs;
use crate::store_core::StoreCore;
use shift_obs::MetricsReport;
use sosd_data::key::Key;
use std::sync::atomic::Ordering;

impl<K: Key> StoreCore<K> {
    /// Assemble the full metrics report: the registry's own families, the
    /// maintenance counters, the topology gauges and per-shard access
    /// counters computed at scrape time from one pinned table, and — for
    /// durable stores — the WAL and checkpoint families. Empty when
    /// [`StoreConfig::metrics`] is off.
    pub(crate) fn metrics_report(&self) -> MetricsReport {
        if !self.obs.enabled() {
            return MetricsReport {
                metrics: Vec::new(),
            };
        }
        let mut metrics = self.obs.own_metrics();
        metrics.push(obs::counter_metric(
            "store_rebuilds_total",
            self.rebuilds.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats read; no synchronising role
        ));
        metrics.push(obs::counter_metric(
            "store_splits_total",
            self.splits.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats read; no synchronising role
        ));
        metrics.push(obs::counter_metric(
            "store_merges_total",
            self.merges.load(Ordering::Relaxed), // lint: ordering(Relaxed) stats read; no synchronising role
        ));
        let (table, live) = self.pin_states();
        let mut keys = 0u64;
        let mut cold = 0u64;
        let mut layer_bytes = 0u64;
        let mut layer_patches = 0u64;
        let mut narrow = 0u64;
        let mut delta_runs = 0u64;
        let mut delta_depth_max = 0u64;
        let mut delta_keys = 0u64;
        for shard in &table.shards {
            keys += shard.len() as u64;
            let snapshot = shard.snapshot();
            cold += u64::from(snapshot.is_cold());
            layer_bytes += snapshot.layer_bytes() as u64;
            layer_patches += snapshot.layer_patches() as u64;
            narrow += u64::from(snapshot.layer_offset_bits() == 6);
            let runs = shard.state().delta().unsealed_run_count() as u64;
            delta_runs += runs;
            delta_depth_max = delta_depth_max.max(runs);
            delta_keys += shard.buffered_ops() as u64;
        }
        metrics.push(obs::gauge_metric("store_shards", table.shards.len() as f64));
        metrics.push(obs::gauge_metric("store_keys", keys as f64));
        metrics.push(obs::gauge_metric("store_cold_shards", cold as f64));
        metrics.push(obs::gauge_metric("store_layer_bytes", layer_bytes as f64));
        metrics.push(obs::gauge_metric(
            "store_layer_patches",
            layer_patches as f64,
        ));
        metrics.push(obs::gauge_metric(
            "store_layer_narrow_shards",
            narrow as f64,
        ));
        metrics.push(obs::gauge_metric("store_delta_runs", delta_runs as f64));
        metrics.push(obs::gauge_metric(
            "store_delta_depth_max",
            delta_depth_max as f64,
        ));
        metrics.push(obs::gauge_metric("store_delta_keys", delta_keys as f64));
        let vs = self.versions.stats(&live);
        metrics.push(obs::gauge_metric(
            "store_retained_versions",
            vs.retained as f64,
        ));
        metrics.push(obs::gauge_metric(
            "store_retained_bytes",
            vs.approx_bytes as f64,
        ));
        // One labelled member per shard; members of a family must stay
        // adjacent for the Prometheus exporter's shared family header.
        for (s, shard) in table.shards.iter().enumerate() {
            metrics.push(
                obs::gauge_metric("store_shard_accesses", shard.accesses() as f64)
                    .with_label("shard", s.to_string()),
            );
        }
        if let Some(p) = &self.persist {
            let d = p.stats();
            metrics.push(obs::counter_metric("wal_records_total", d.wal_ops));
            metrics.push(obs::counter_metric("wal_bytes_total", d.wal_bytes));
            metrics.push(obs::counter_metric("wal_syncs_total", d.wal_syncs));
            metrics.extend(p.obs_metrics());
            metrics.push(obs::counter_metric("checkpoints_total", d.checkpoints));
            metrics.push(obs::counter_metric(
                "checkpoint_shards_written_total",
                d.checkpoint_shards_written,
            ));
            metrics.push(obs::counter_metric(
                "checkpoint_shards_skipped_total",
                d.checkpoint_shards_skipped,
            ));
            metrics.push(obs::counter_metric(
                "checkpoint_bytes_written_total",
                d.snapshot_bytes,
            ));
            metrics.push(obs::counter_metric(
                "checkpoint_bytes_reused_total",
                d.snapshot_bytes_reused,
            ));
        }
        MetricsReport { metrics }
    }
}
