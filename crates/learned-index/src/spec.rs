//! Runtime model composition: textual model specs resolved to boxed
//! [`CdfModel`] trait objects.
//!
//! A [`ModelSpec`] names one of the workspace's CDF model families plus its
//! tuning parameter, using the compact grammar
//!
//! ```text
//! im | linear | cubic | rmi:<leafs>[:linear|:cubic] | rs:<max_error> | pgm:<epsilon>
//! ```
//!
//! so a model can be chosen from a config file or CLI flag instead of a
//! compile-time generic. [`ModelSpec::build`] trains the model over a sorted
//! key slice and returns it as a `Box<dyn CdfModel<K>>`; the `shift-table`
//! crate combines that with a correction-layer spec into a full
//! `IndexSpec`.

use crate::cubic::CubicModel;
use crate::linear::{InterpolationModel, LinearModel};
use crate::model::CdfModel;
use crate::pgm::PgmModel;
use crate::radix_spline::RadixSplineBuilder;
use crate::rmi::{RmiBuilder, RootModelKind};
use sosd_data::key::Key;

/// Error produced when parsing a model or index spec string.
///
/// Defined here (rather than in the `shift-table` crate) so the model and the
/// layer half of an index spec share one error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecParseError {
    /// The spec string (or one of its parts) was empty.
    Empty,
    /// The model family token was not recognised.
    UnknownModel(String),
    /// The correction-layer token was not recognised.
    UnknownLayer(String),
    /// A parameter was missing, malformed or out of range.
    InvalidParameter {
        /// The offending spec fragment.
        spec: String,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "empty spec string"),
            Self::UnknownModel(s) => write!(
                f,
                "unknown model spec `{s}` (expected im | linear | cubic | rmi:<leafs> | rs:<err> | pgm:<eps>)"
            ),
            Self::UnknownLayer(s) => write!(
                f,
                "unknown layer spec `{s}` (expected none | r1 | s<X> | auto)"
            ),
            Self::InvalidParameter { spec, reason } => {
                write!(f, "invalid parameter in `{spec}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecParseError {}

/// A runtime-selectable CDF model family with its tuning parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelSpec {
    /// Min/max interpolation (the paper's dummy IM model).
    Im,
    /// Least-squares straight line.
    Linear,
    /// Least-squares cubic polynomial.
    Cubic,
    /// Two-level RMI with the given number of leaf models and root family.
    Rmi {
        /// Number of second-level (leaf) models.
        leaves: usize,
        /// Root model family (`rmi:<leafs>` is linear, `rmi:<leafs>:cubic`
        /// selects the cubic root).
        root: RootModelKind,
    },
    /// RadixSpline with the given spline error bound (records).
    RadixSpline {
        /// Hard per-key error bound of the spline.
        max_error: usize,
    },
    /// PGM-style piecewise-linear model with the given epsilon.
    Pgm {
        /// Per-segment error bound.
        epsilon: usize,
    },
}

impl ModelSpec {
    /// Parse a model spec token (see the module docs for the grammar).
    pub fn parse(s: &str) -> Result<Self, SpecParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecParseError::Empty);
        }
        let (family, param) = match s.split_once(':') {
            Some((f, p)) => (f, Some(p)),
            None => (s, None),
        };
        let parse_param = |name: &'static str| -> Result<usize, SpecParseError> {
            let p = param.ok_or(SpecParseError::InvalidParameter {
                spec: s.to_string(),
                reason: "missing parameter",
            })?;
            let v: usize = p.parse().map_err(|_| SpecParseError::InvalidParameter {
                spec: s.to_string(),
                reason: "parameter is not a positive integer",
            })?;
            if v == 0 {
                return Err(SpecParseError::InvalidParameter {
                    spec: s.to_string(),
                    reason: "parameter must be >= 1",
                });
            }
            let _ = name;
            Ok(v)
        };
        match family {
            "im" | "linear" | "cubic" if param.is_some() => Err(SpecParseError::InvalidParameter {
                spec: s.to_string(),
                reason: "this model family takes no parameter",
            }),
            "im" => Ok(Self::Im),
            "linear" => Ok(Self::Linear),
            "cubic" => Ok(Self::Cubic),
            "rmi" => {
                // `rmi:<leafs>` or `rmi:<leafs>:cubic` / `rmi:<leafs>:linear`.
                let p = param.ok_or(SpecParseError::InvalidParameter {
                    spec: s.to_string(),
                    reason: "missing parameter",
                })?;
                let (leafs_str, root) = match p.split_once(':') {
                    None => (p, RootModelKind::Linear),
                    Some((l, "linear")) => (l, RootModelKind::Linear),
                    Some((l, "cubic")) => (l, RootModelKind::Cubic),
                    Some(_) => {
                        return Err(SpecParseError::InvalidParameter {
                            spec: s.to_string(),
                            reason: "rmi root must be `linear` or `cubic`",
                        })
                    }
                };
                let leaves: usize =
                    leafs_str
                        .parse()
                        .map_err(|_| SpecParseError::InvalidParameter {
                            spec: s.to_string(),
                            reason: "parameter is not a positive integer",
                        })?;
                if leaves == 0 {
                    return Err(SpecParseError::InvalidParameter {
                        spec: s.to_string(),
                        reason: "parameter must be >= 1",
                    });
                }
                Ok(Self::Rmi { leaves, root })
            }
            "rs" => Ok(Self::RadixSpline {
                max_error: parse_param("max_error")?,
            }),
            "pgm" => Ok(Self::Pgm {
                epsilon: parse_param("epsilon")?,
            }),
            _ => Err(SpecParseError::UnknownModel(s.to_string())),
        }
    }

    /// Train the specified model over a sorted key slice and box it.
    pub fn build<K: Key>(&self, keys: &[K]) -> Box<dyn CdfModel<K>> {
        match *self {
            Self::Im => Box::new(InterpolationModel::from_sorted_keys(keys)),
            Self::Linear => Box::new(LinearModel::from_sorted_keys(keys)),
            Self::Cubic => Box::new(CubicModel::from_sorted_keys(keys)),
            Self::Rmi { leaves, root } => Box::new(
                RmiBuilder::default()
                    .leaf_count(leaves)
                    .root_model(root)
                    .build_from_sorted_keys(keys),
            ),
            Self::RadixSpline { max_error } => Box::new(
                RadixSplineBuilder::default()
                    .max_error(max_error)
                    .build_from_sorted_keys(keys),
            ),
            Self::Pgm { epsilon } => Box::new(PgmModel::from_sorted_keys(keys, epsilon)),
        }
    }

    /// One representative spec per model family (with small, test-friendly
    /// parameters) — handy for exhaustively exercising the spec machinery.
    pub fn all_families() -> [ModelSpec; 6] {
        [
            Self::Im,
            Self::Linear,
            Self::Cubic,
            Self::Rmi {
                leaves: 64,
                root: RootModelKind::Linear,
            },
            Self::RadixSpline { max_error: 32 },
            Self::Pgm { epsilon: 32 },
        ]
    }
}

// `Display` renders the canonical spec string, so `parse(x.to_string()) == x`.
impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ModelSpec::Im => write!(f, "im"),
            ModelSpec::Linear => write!(f, "linear"),
            ModelSpec::Cubic => write!(f, "cubic"),
            ModelSpec::Rmi {
                leaves,
                root: RootModelKind::Linear,
            } => write!(f, "rmi:{leaves}"),
            ModelSpec::Rmi {
                leaves,
                root: RootModelKind::Cubic,
            } => write!(f, "rmi:{leaves}:cubic"),
            ModelSpec::RadixSpline { max_error } => write!(f, "rs:{max_error}"),
            ModelSpec::Pgm { epsilon } => write!(f, "pgm:{epsilon}"),
        }
    }
}

impl std::str::FromStr for ModelSpec {
    type Err = SpecParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_data::prelude::*;

    #[test]
    fn parse_roundtrips_through_display() {
        for spec in ModelSpec::all_families() {
            let text = spec.to_string();
            assert_eq!(ModelSpec::parse(&text), Ok(spec), "{text}");
        }
        assert_eq!(
            ModelSpec::parse(" rmi:8 "),
            Ok(ModelSpec::Rmi {
                leaves: 8,
                root: RootModelKind::Linear,
            })
        );
        // Explicit roots: `linear` normalises away, `cubic` round-trips.
        assert_eq!(
            ModelSpec::parse("rmi:8:linear").unwrap().to_string(),
            "rmi:8"
        );
        let cubic = ModelSpec::parse("rmi:8:cubic").unwrap();
        assert_eq!(
            cubic,
            ModelSpec::Rmi {
                leaves: 8,
                root: RootModelKind::Cubic,
            }
        );
        assert_eq!(ModelSpec::parse(&cubic.to_string()), Ok(cubic));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert_eq!(ModelSpec::parse(""), Err(SpecParseError::Empty));
        assert!(matches!(
            ModelSpec::parse("btree"),
            Err(SpecParseError::UnknownModel(_))
        ));
        assert!(matches!(
            ModelSpec::parse("rmi"),
            Err(SpecParseError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("rmi:abc"),
            Err(SpecParseError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("rs:0"),
            Err(SpecParseError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("rmi:8:quartic"),
            Err(SpecParseError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("im:3"),
            Err(SpecParseError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn built_models_predict_within_range_on_every_family() {
        let d: Dataset<u64> = SosdName::Face64.generate(4_000, 11);
        for spec in ModelSpec::all_families() {
            let model = spec.build(d.as_slice());
            assert_eq!(model.key_count(), d.len(), "{spec}");
            for &k in d.as_slice().iter().step_by(97) {
                assert!(model.predict_clamped(k) < d.len(), "{spec} key {k}");
            }
            // The boxed model is usable through the object-safe trait.
            let as_dyn: &dyn CdfModel<u64> = model.as_ref();
            assert!(as_dyn.size_bytes() > 0 || matches!(spec, ModelSpec::Im));
        }
    }

    #[test]
    fn predict_clamped_into_equals_predict_clamped_key_by_key() {
        // The contract a table builder leans on: through the box (one
        // virtual call for the run) and through a reference to it, every
        // slot holds what the scalar call returns — on every generator,
        // for the model families a sharded store is built from.
        for name in SosdName::all() {
            let d: Dataset<u64> = name.generate(6_000, 17);
            for spec in ["im", "linear", "rmi:64", "rmi:4096", "rmi:64:cubic"] {
                let model = ModelSpec::parse(spec).unwrap().build(d.as_slice());
                let want: Vec<u32> = d
                    .as_slice()
                    .iter()
                    .map(|&k| model.predict_clamped(k) as u32)
                    .collect();
                let mut got = vec![u32::MAX; d.len()];
                model.predict_clamped_into(d.as_slice(), &mut got);
                assert!(got == want, "{name} {spec}: boxed");
                got.fill(u32::MAX);
                // Runs of uneven length, through `&Box<dyn _>` as the model.
                fn run(model: impl CdfModel<u64>, keys: &[u64], out: &mut [u32]) {
                    model.predict_clamped_into(keys, out);
                }
                for (keys, out) in d.as_slice().chunks(1_000).zip(got.chunks_mut(1_000)) {
                    run(&model, &keys[..993], &mut out[..993]);
                    run(&model, &keys[993..], &mut out[993..]);
                }
                assert!(got == want, "{name} {spec}: by reference, in runs");
            }
        }
        let empty = ModelSpec::Im.build::<u64>(&[]);
        let mut slots = [7u32; 3];
        empty.predict_clamped_into(&[1, 2, 3], &mut slots);
        assert_eq!(slots, [0; 3], "an empty model predicts position 0");
    }

    #[test]
    fn boxed_models_are_send_sync_static() {
        fn assert_owned<T: Send + Sync + 'static>(_: &T) {}
        let d: Dataset<u64> = SosdName::Uden64.generate(500, 3);
        let model = ModelSpec::parse("rmi:16").unwrap().build(d.as_slice());
        assert_owned(&model);
    }
}
