//! The [`CdfModel`] trait: the contract between learned models and the
//! Shift-Table correction layer.

use sosd_data::key::Key;

/// A learned (or hand-built) model of the empirical key CDF.
///
/// Given a key, the model predicts the position of the key's lower bound in
/// the sorted key array the model was trained on. Predictions are clamped to
/// `[0, key_count())`, i.e. a prediction is always a valid record position
/// for non-empty data.
///
/// The Shift-Table layer (§3 of the paper) can correct any such model. Its
/// `<Δ, C>` range windows are exact for a *valid CDF* (§3.8): a model whose
/// predictions never decrease as the key grows, over every key of `K` — not
/// only the trained ones, since a query between two keys, below the first
/// or past the last is predicted too. Every model of this crate is
/// non-decreasing by construction. A model that is not still builds a
/// layer, and the lookups whose window misses the answer are closed by the
/// layer's validating gallop (§3.8 repair) — exact, only slower.
pub trait CdfModel<K: Key>: Send + Sync {
    /// Predicted position (record index) of the lower bound of `key`.
    fn predict(&self, key: K) -> usize;

    /// Number of keys the model was trained on.
    fn key_count(&self) -> usize;

    /// Approximate size of the model parameters in bytes. Used by the
    /// Figure 8 index-size sweeps and the cost model.
    fn size_bytes(&self) -> usize;

    /// Short human-readable model name used in reports (e.g. `"RMI"`).
    fn name(&self) -> &'static str;

    /// Predict and clamp to the valid record range `[0, n-1]`; returns 0 for
    /// an empty model.
    #[inline]
    fn predict_clamped(&self, key: K) -> usize {
        let n = self.key_count();
        if n == 0 {
            0
        } else {
            self.predict(key).min(n - 1)
        }
    }

    /// [`CdfModel::predict_clamped`] for a run of keys:
    /// `out[i] == predict_clamped(keys[i])` for every `i`, nothing more.
    /// It exists so a builder holding a `Box<dyn CdfModel>` pays one
    /// virtual call per run instead of one per key — behind that call the
    /// loop is compiled against the concrete model and `predict` inlines.
    /// Positions are narrowed to `u32`, so this is for models of at most
    /// 2³² keys (a Shift-Table covers 2³¹).
    ///
    /// **A run is non-decreasing.** Its callers are the layer builders,
    /// which walk a sorted column, and an implementation may lean on the
    /// order — [`crate::rmi::RmiIndex`] looks up a leaf once for all the
    /// consecutive keys routed to it, with the stretch walker its trainer
    /// uses. Keys out of order get unspecified (in-range) predictions. It is
    /// the one source of predictions a Shift-Table build reads, a run of
    /// keys at a time into one small buffer, so the build evaluates every
    /// model once per key and needs no `4n`-byte array of predictions.
    ///
    /// # Panics
    /// If `keys` and `out` differ in length.
    fn predict_clamped_into(&self, keys: &[K], out: &mut [u32]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        debug_assert!(keys.is_sorted(), "a run is non-decreasing");
        debug_assert!(self.key_count() as u64 <= 1 << 32);
        for (slot, &key) in out.iter_mut().zip(keys) {
            *slot = self.predict_clamped(key) as u32;
        }
    }
}

/// Blanket implementation so `&M`, `Box<M>` and `Arc<M>` are models too.
impl<K: Key, M: CdfModel<K> + ?Sized> CdfModel<K> for &M {
    fn predict(&self, key: K) -> usize {
        (**self).predict(key)
    }
    fn key_count(&self) -> usize {
        (**self).key_count()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn predict_clamped_into(&self, keys: &[K], out: &mut [u32]) {
        (**self).predict_clamped_into(keys, out)
    }
}

impl<K: Key, M: CdfModel<K> + ?Sized> CdfModel<K> for Box<M> {
    fn predict(&self, key: K) -> usize {
        (**self).predict(key)
    }
    fn key_count(&self) -> usize {
        (**self).key_count()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn predict_clamped_into(&self, keys: &[K], out: &mut [u32]) {
        (**self).predict_clamped_into(keys, out)
    }
}

impl<K: Key, M: CdfModel<K> + ?Sized> CdfModel<K> for std::sync::Arc<M> {
    fn predict(&self, key: K) -> usize {
        (**self).predict(key)
    }
    fn key_count(&self) -> usize {
        (**self).key_count()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn predict_clamped_into(&self, keys: &[K], out: &mut [u32]) {
        (**self).predict_clamped_into(keys, out)
    }
}

/// Verify that a model's predictions are non-decreasing over the given
/// sorted keys. Exhaustive over them, so it is intended for tests and for
/// checking a third-party model before attaching a range-mode Shift-Table:
/// one that fails still gets a layer, but the lookups its windows miss pay
/// the repair gallop.
pub fn verify_monotonic_on<K: Key, M: CdfModel<K> + ?Sized>(model: &M, keys: &[K]) -> bool {
    let mut prev = 0usize;
    let mut first = true;
    for &k in keys {
        let p = model.predict(k);
        if !first && p < prev {
            return false;
        }
        prev = p;
        first = false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial model used to exercise the trait helpers.
    struct Half {
        n: usize,
    }

    impl CdfModel<u64> for Half {
        fn predict(&self, key: u64) -> usize {
            (key / 2) as usize
        }
        fn key_count(&self) -> usize {
            self.n
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "half"
        }
    }

    #[test]
    fn predict_clamped_stays_in_range() {
        let m = Half { n: 10 };
        assert_eq!(m.predict_clamped(0), 0);
        assert_eq!(m.predict_clamped(6), 3);
        assert_eq!(m.predict_clamped(1_000_000), 9);
        let empty = Half { n: 0 };
        assert_eq!(empty.predict_clamped(123), 0);
    }

    #[test]
    fn trait_works_through_reference_box_and_arc() {
        let m = Half { n: 10 };
        let r: &dyn CdfModel<u64> = &m;
        assert_eq!(r.predict(8), 4);
        assert_eq!(r.name(), "half");
        let b: Box<dyn CdfModel<u64>> = Box::new(Half { n: 10 });
        assert_eq!(b.predict_clamped(100), 9);
        let a = std::sync::Arc::new(Half { n: 4 });
        assert_eq!(a.predict(2), 1);
    }

    #[test]
    fn verify_monotonic_detects_violations() {
        struct ZigZag;
        impl CdfModel<u64> for ZigZag {
            fn predict(&self, key: u64) -> usize {
                (key % 3) as usize
            }
            fn key_count(&self) -> usize {
                3
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "zigzag"
            }
        }
        let keys: Vec<u64> = (0..10).collect();
        assert!(verify_monotonic_on(&Half { n: 10 }, &keys));
        assert!(!verify_monotonic_on(&ZigZag, &keys));
        assert!(
            verify_monotonic_on(&ZigZag, &[]),
            "empty input is trivially monotone"
        );
    }
}
