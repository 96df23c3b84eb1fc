//! Dataset generators for the 14 SOSD dataset names used in Table 2.
//!
//! The four synthetic families (`uden`, `uspr`, `norm`, `logn`) follow the
//! SOSD definitions directly. The four real-world families (`face`, `amzn`,
//! `osmc`, `wiki`) cannot be downloaded in this environment, so they are
//! *simulated* by generators that reproduce the property the paper identifies
//! as decisive for learned-index performance: micro-level unpredictability
//! (high local variance, spikes, empty regions, duplicate bursts) layered on
//! the matching macro shape. See DESIGN.md §3 for the substitution rationale.

pub mod amazon;
pub mod facebook;
pub mod gaussian;
pub mod osm;
pub mod uniform;
pub mod wiki;

use crate::dataset::Dataset;
use crate::key::Key;

/// The eight dataset families of the SOSD benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetFamily {
    /// Dense uniformly-distributed integers (synthetic, easy).
    Uden,
    /// Sparse uniformly-distributed integers (synthetic).
    Uspr,
    /// Normal distribution (synthetic).
    Norm,
    /// Lognormal(0, 2) distribution (synthetic, heavily skewed).
    Logn,
    /// Facebook user IDs (real-world; simulated here).
    Face,
    /// Amazon book sale popularity (real-world; simulated here).
    Amzn,
    /// OpenStreetMap cell IDs (real-world; simulated here).
    Osmc,
    /// Wikipedia edit timestamps (real-world; simulated here).
    Wiki,
}

impl DatasetFamily {
    /// True for the families SOSD sources from real-world data.
    pub fn is_real_world(self) -> bool {
        matches!(self, Self::Face | Self::Amzn | Self::Osmc | Self::Wiki)
    }

    /// Generate `n` sorted keys of this family inside `[0, domain_max]`.
    pub fn generate_raw(self, n: usize, domain_max: u64, seed: u64) -> Vec<u64> {
        match self {
            Self::Uden => uniform::generate_dense(n, domain_max, seed),
            Self::Uspr => uniform::generate_sparse(n, domain_max, seed),
            Self::Norm => gaussian::generate_normal(n, domain_max, seed),
            Self::Logn => gaussian::generate_lognormal(n, domain_max, seed),
            Self::Face => facebook::generate(n, domain_max, seed),
            Self::Amzn => amazon::generate(n, domain_max, seed),
            Self::Osmc => osm::generate(n, domain_max, seed),
            Self::Wiki => wiki::generate(n, domain_max, seed),
        }
    }

    /// Short lowercase family name (`uden`, `face`, ...).
    pub fn short_name(self) -> &'static str {
        match self {
            Self::Uden => "uden",
            Self::Uspr => "uspr",
            Self::Norm => "norm",
            Self::Logn => "logn",
            Self::Face => "face",
            Self::Amzn => "amzn",
            Self::Osmc => "osmc",
            Self::Wiki => "wiki",
        }
    }
}

/// The 14 dataset names evaluated in Table 2 of the paper
/// (family × key width, minus combinations SOSD does not ship).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SosdName {
    Logn32,
    Norm32,
    Uden32,
    Uspr32,
    Logn64,
    Norm64,
    Uden64,
    Uspr64,
    Amzn32,
    Face32,
    Amzn64,
    Face64,
    Osmc64,
    Wiki64,
}

impl SosdName {
    /// All 14 names in the order Table 2 lists them.
    pub fn all() -> [SosdName; 14] {
        [
            Self::Logn32,
            Self::Norm32,
            Self::Uden32,
            Self::Uspr32,
            Self::Logn64,
            Self::Norm64,
            Self::Uden64,
            Self::Uspr64,
            Self::Amzn32,
            Self::Face32,
            Self::Amzn64,
            Self::Face64,
            Self::Osmc64,
            Self::Wiki64,
        ]
    }

    /// The synthetic-data subset (top half of Table 2).
    pub fn synthetic() -> [SosdName; 8] {
        [
            Self::Logn32,
            Self::Norm32,
            Self::Uden32,
            Self::Uspr32,
            Self::Logn64,
            Self::Norm64,
            Self::Uden64,
            Self::Uspr64,
        ]
    }

    /// The real-world-data subset (bottom half of Table 2).
    pub fn real_world() -> [SosdName; 6] {
        [
            Self::Amzn32,
            Self::Face32,
            Self::Amzn64,
            Self::Face64,
            Self::Osmc64,
            Self::Wiki64,
        ]
    }

    /// The dataset family this name belongs to.
    pub fn family(self) -> DatasetFamily {
        match self {
            Self::Logn32 | Self::Logn64 => DatasetFamily::Logn,
            Self::Norm32 | Self::Norm64 => DatasetFamily::Norm,
            Self::Uden32 | Self::Uden64 => DatasetFamily::Uden,
            Self::Uspr32 | Self::Uspr64 => DatasetFamily::Uspr,
            Self::Amzn32 | Self::Amzn64 => DatasetFamily::Amzn,
            Self::Face32 | Self::Face64 => DatasetFamily::Face,
            Self::Osmc64 => DatasetFamily::Osmc,
            Self::Wiki64 => DatasetFamily::Wiki,
        }
    }

    /// Key width in bits (32 or 64).
    pub fn bits(self) -> u32 {
        match self {
            Self::Logn32
            | Self::Norm32
            | Self::Uden32
            | Self::Uspr32
            | Self::Amzn32
            | Self::Face32 => 32,
            _ => 64,
        }
    }

    /// The lowercase SOSD-style dataset name (e.g. `face64`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Logn32 => "logn32",
            Self::Norm32 => "norm32",
            Self::Uden32 => "uden32",
            Self::Uspr32 => "uspr32",
            Self::Logn64 => "logn64",
            Self::Norm64 => "norm64",
            Self::Uden64 => "uden64",
            Self::Uspr64 => "uspr64",
            Self::Amzn32 => "amzn32",
            Self::Face32 => "face32",
            Self::Amzn64 => "amzn64",
            Self::Face64 => "face64",
            Self::Osmc64 => "osmc64",
            Self::Wiki64 => "wiki64",
        }
    }

    /// Parse a lowercase SOSD dataset name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::all().into_iter().find(|n| n.as_str() == s)
    }

    /// True for datasets sourced from real-world data in SOSD.
    pub fn is_real_world(self) -> bool {
        self.family().is_real_world()
    }

    /// The key-domain ceiling used when generating this dataset for key type
    /// `K`. 32-bit datasets use (nearly) the full 32-bit domain, 64-bit
    /// datasets use a large but `f64`-friendly portion of the 64-bit domain
    /// (the paper's face64/osmc64 keys similarly occupy only part of the
    /// space — see Figure 6's x-axis of ~1e19).
    pub fn domain_max<K: Key>(self) -> u64 {
        if K::BITS == 32 || self.bits() == 32 {
            (u32::MAX - 1) as u64
        } else {
            // Keep below 2^62 so f64 model arithmetic keeps ~9 bits of
            // intra-gap precision at 200M keys.
            1u64 << 62
        }
    }

    /// Generate the dataset with `n` keys using the given seed.
    ///
    /// The key type `K` selects the physical width. Generating a 32-bit name
    /// (e.g. `face32`) as `u64` is allowed — the values stay within the
    /// 32-bit domain, mirroring SOSD's storage of 32-bit data in wider
    /// columns when required.
    pub fn generate<K: Key>(self, n: usize, seed: u64) -> Dataset<K> {
        let domain = self.domain_max::<K>();
        // Mix the dataset name into the seed so e.g. face32 and face64 do not
        // produce byte-identical prefixes.
        let mixed_seed = seed ^ (self as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let raw = self.family().generate_raw(n, domain, mixed_seed);
        let keys: Vec<K> = raw.into_iter().map(K::from_u64_saturating).collect();
        Dataset::from_keys(self.as_str(), keys)
    }
}

impl std::fmt::Display for SosdName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SosdName {
    type Err = String;

    /// The error names the bad token and lists every known name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| {
            let known: Vec<&str> = Self::all().iter().map(|n| n.as_str()).collect();
            format!(
                "unknown SOSD dataset name `{s}` (expected one of: {})",
                known.join(", ")
            )
        })
    }
}

/// Sorted columns no generator draws, for testing builders and trainers
/// at their edges: runs of up to 900 equal keys landing anywhere in a block
/// or a prediction run; one run covering almost the whole column; two far
/// clusters, with every partition between them empty, so a long stretch of
/// empty partitions starts mid-block; and a quadratic column of 4096 keys.
pub fn adversary_columns() -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = crate::rng::SplitMix64::new(0xD095);
    let mut heavy: Vec<u64> = Vec::new();
    while heavy.len() < 10_000 {
        let v = rng.next_below(500);
        let run = 1 + rng.next_below(900) as usize;
        heavy.extend(std::iter::repeat_n(v, run));
    }
    heavy.sort_unstable();
    let mut mega = vec![7u64; 9_000];
    mega.splice(0..0, [1u64, 2, 3]);
    mega.extend([9u64, 10]);
    let mut clusters: Vec<u64> = (0..3_001u64).collect();
    clusters.extend((0..3_002u64).map(|i| 1_000_000_000 + i));
    let quadratic = (0..4096u64).map(|i| i * i / 7).collect();
    vec![
        ("duplicate-heavy", heavy),
        ("mega-run", mega),
        ("two clusters", clusters),
        ("quadratic", quadratic),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_names_match_table2() {
        assert_eq!(SosdName::all().len(), 14);
        assert_eq!(SosdName::synthetic().len(), 8);
        assert_eq!(SosdName::real_world().len(), 6);
        let all: std::collections::HashSet<_> = SosdName::all().into_iter().collect();
        assert_eq!(all.len(), 14, "names must be unique");
    }

    #[test]
    fn name_roundtrip() {
        for name in SosdName::all() {
            assert_eq!(SosdName::parse(name.as_str()), Some(name));
            assert_eq!(name.as_str().parse::<SosdName>().unwrap(), name);
        }
        assert_eq!(SosdName::parse("bogus"), None);
        let err = "bogus".parse::<SosdName>().unwrap_err();
        assert!(err.contains("`bogus`"), "{err}");
        assert!(err.ends_with("(expected one of: logn32, norm32, uden32, uspr32, logn64, norm64, uden64, uspr64, amzn32, face32, amzn64, face64, osmc64, wiki64)"), "{err}");
    }

    #[test]
    fn bits_and_family_are_consistent_with_names() {
        for name in SosdName::all() {
            let s = name.as_str();
            assert!(s.starts_with(name.family().short_name()));
            assert!(s.ends_with(&name.bits().to_string()));
        }
    }

    #[test]
    fn every_generator_produces_sorted_data_of_requested_size() {
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(5_000, 7);
            assert_eq!(d.len(), 5_000, "{name}");
            assert!(d.as_slice().is_sorted(), "{name}");
            assert!(
                d.max_key().unwrap() <= name.domain_max::<u64>(),
                "{name} exceeds domain"
            );
        }
    }

    #[test]
    fn thirty_two_bit_names_fit_in_u32() {
        for name in SosdName::all().into_iter().filter(|n| n.bits() == 32) {
            let d: Dataset<u32> = name.generate(2_000, 3);
            assert_eq!(d.len(), 2_000);
            // Generating the same name as u64 stays in the 32-bit domain.
            let wide: Dataset<u64> = name.generate(2_000, 3);
            assert!(wide.max_key().unwrap() <= u32::MAX as u64);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Dataset<u64> = SosdName::Osmc64.generate(3_000, 11);
        let b: Dataset<u64> = SosdName::Osmc64.generate(3_000, 11);
        let c: Dataset<u64> = SosdName::Osmc64.generate(3_000, 12);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn real_world_flag() {
        assert!(SosdName::Face64.is_real_world());
        assert!(SosdName::Wiki64.is_real_world());
        assert!(!SosdName::Uden32.is_real_world());
        assert!(!SosdName::Logn64.is_real_world());
    }
}
