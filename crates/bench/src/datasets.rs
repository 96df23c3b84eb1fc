//! Benchmark configuration and a process-wide dataset cache.
//!
//! Generating a multi-million-key dataset takes longer than measuring it, so
//! the harness caches generated datasets per (name, size, seed) behind a
//! mutex and shares them between experiments via `Arc`.

use sosd_data::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Scale parameters shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Number of keys per dataset.
    pub keys: usize,
    /// Number of lookups measured per configuration.
    pub queries: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            keys: 2_000_000,
            queries: 100_000,
            seed: 42,
        }
    }
}

impl BenchConfig {
    /// Read the configuration from the `SOSD_N`, `SOSD_QUERIES` and
    /// `SOSD_SEED` environment variables, falling back to the defaults for
    /// unset ones.
    ///
    /// # Panics
    /// When a set variable is not a whole number (see [`parse_env_u64`]):
    /// a bad value is never replaced by a default.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(n) = read_env("SOSD_N") {
            cfg.keys = n as usize;
        }
        if let Some(q) = read_env("SOSD_QUERIES") {
            cfg.queries = q as usize;
        }
        if let Some(s) = read_env("SOSD_SEED") {
            cfg.seed = s;
        }
        cfg
    }

    /// A reduced configuration for quick smoke runs and unit tests.
    pub fn smoke() -> Self {
        Self {
            keys: 50_000,
            queries: 2_000,
            seed: 42,
        }
    }
}

fn read_env(name: &str) -> Option<u64> {
    let value = std::env::var(name).ok()?;
    Some(parse_env_u64(name, &value).unwrap_or_else(|e| panic!("{e}")))
}

/// Parse the value of the environment variable `name` as a whole number
/// (`_` separators allowed, as in `2_000_000`), or say which variable held
/// what.
pub fn parse_env_u64(name: &str, value: &str) -> Result<u64, String> {
    value.replace('_', "").parse().map_err(|_| {
        format!("{name}=`{value}` is not a whole number (digits, `_` separators allowed)")
    })
}

type CacheKey = (SosdName, usize, u64);

static CACHE_U64: Mutex<Option<HashMap<CacheKey, Arc<Dataset<u64>>>>> = Mutex::new(None);
static CACHE_U32: Mutex<Option<HashMap<CacheKey, Arc<Dataset<u32>>>>> = Mutex::new(None);

/// Fetch (or generate and cache) a dataset with 64-bit physical keys.
pub fn dataset_u64(name: SosdName, cfg: BenchConfig) -> Arc<Dataset<u64>> {
    let mut guard = CACHE_U64.lock().expect("dataset cache poisoned");
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry((name, cfg.keys, cfg.seed))
        .or_insert_with(|| Arc::new(name.generate(cfg.keys, cfg.seed)))
        .clone()
}

/// Fetch (or generate and cache) a dataset with 32-bit physical keys.
pub fn dataset_u32(name: SosdName, cfg: BenchConfig) -> Arc<Dataset<u32>> {
    let mut guard = CACHE_U32.lock().expect("dataset cache poisoned");
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry((name, cfg.keys, cfg.seed))
        .or_insert_with(|| Arc::new(name.generate(cfg.keys, cfg.seed)))
        .clone()
}

/// Drop all cached datasets (used to bound memory in long `run_all` runs).
pub fn clear_cache() {
    *CACHE_U64.lock().expect("dataset cache poisoned") = None;
    *CACHE_U32.lock().expect("dataset cache poisoned") = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_config_parsing_defaults() {
        let cfg = BenchConfig::default();
        assert_eq!(cfg.keys, 2_000_000);
        assert_eq!(cfg.queries, 100_000);
        assert_eq!(cfg.seed, 42);
        assert!(BenchConfig::smoke().keys < cfg.keys);
    }

    #[test]
    fn env_numbers_parse_or_name_the_variable() {
        assert_eq!(parse_env_u64("SOSD_N", "2_000_000"), Ok(2_000_000));
        assert_eq!(parse_env_u64("SOSD_SEED", "7"), Ok(7));
        for bad in ["2M", "", "-1", "1e6"] {
            let e = parse_env_u64("SOSD_QUERIES", bad).unwrap_err();
            assert!(
                e.contains("SOSD_QUERIES") && e.contains(&format!("`{bad}`")),
                "{e}"
            );
        }
    }

    #[test]
    fn cache_returns_the_same_arc() {
        let cfg = BenchConfig {
            keys: 10_000,
            queries: 100,
            seed: 7,
        };
        let a = dataset_u64(SosdName::Face64, cfg);
        let b = dataset_u64(SosdName::Face64, cfg);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 10_000);
        let c = dataset_u32(SosdName::Face32, cfg);
        assert_eq!(c.len(), 10_000);
        clear_cache();
        let d = dataset_u64(SosdName::Face64, cfg);
        assert_eq!(d.as_slice(), a.as_slice(), "regeneration is deterministic");
    }
}
