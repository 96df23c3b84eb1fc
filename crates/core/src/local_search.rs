//! Last-mile ("local") search routines.
//!
//! After the model (and optionally the Shift-Table) has produced a position
//! hint, the true lower bound is located by searching the sorted key array
//! around that hint (Figure 1a). The routines match the paper's discussion:
//!
//! * [`linear_in_window`] — forward linear scan inside a known window; best
//!   when the window is only a few keys (Algorithm 1 uses it below the
//!   `linear_to_binary_threshold`),
//! * [`binary_in_window`] — binary search inside a known window; best for
//!   larger bounded windows,
//! * [`exponential_around`] — galloping search from an unbounded hint; used
//!   when only a *position* is known, not a window — the raw prediction when
//!   no layer serves, and the §3.8 repair of a window that missed.
//!
//! All routines return lower-bound positions over the whole array and are
//! correct for any window/hint: if the true position lies outside the given
//! window, the window variants return the window boundary, which the caller
//! ([`crate::index::CorrectedIndex`]) detects and repairs.

use sosd_data::key::Key;

/// Forward linear scan of `keys[start..start + len]`, returning the first
/// position with key `>= q`, or `start + len` if every key in the window is
/// smaller. `start + len` is clamped to the array length.
#[inline]
pub fn linear_in_window<K: Key>(keys: &[K], start: usize, len: usize, q: K) -> usize {
    let start = start.min(keys.len());
    let end = start.saturating_add(len).min(keys.len());
    let mut i = start;
    while i < end && keys[i] < q {
        i += 1;
    }
    i
}

/// Binary search of `keys[start..start + len]`, returning the first position
/// with key `>= q`, or `start + len` if every key in the window is smaller.
/// `start + len` is clamped to the array length.
#[inline]
pub fn binary_in_window<K: Key>(keys: &[K], start: usize, len: usize, q: K) -> usize {
    let start = start.min(keys.len());
    let end = start.saturating_add(len).min(keys.len());
    let mut base = start;
    let mut remaining = end - start;
    while remaining > 1 {
        let half = remaining / 2;
        let mid = base + half - 1;
        if keys[mid] < q {
            base = mid + 1;
            remaining -= half;
        } else {
            remaining = half;
        }
    }
    if remaining == 1 && base < end && keys[base] < q {
        base + 1
    } else {
        base
    }
}

/// Exponential (galloping) search from an unbounded position hint: doubles
/// the step until the lower bound is bracketed, then binary-searches the
/// bracket. Cost is `O(log |hint − result|)`.
///
/// The bracketing probes are not repeated: once the gallop has compared
/// `keys[b]` against `q`, position `b` is excluded from the window handed to
/// [`binary_in_window`], so each boundary key is probed exactly once.
#[inline]
pub fn exponential_around<K: Key>(keys: &[K], hint: usize, q: K) -> usize {
    let n = keys.len();
    if n == 0 {
        return 0;
    }
    let hint = hint.min(n - 1);
    if keys[hint] < q {
        // Gallop right.
        let mut step = 1usize;
        let mut prev = hint;
        loop {
            let next = match prev.checked_add(step) {
                Some(i) if i < n => i,
                _ => return binary_in_window(keys, prev + 1, n - prev - 1, q),
            };
            if keys[next] >= q {
                // `keys[next] >= q` is already known: exclude `next` from the
                // bracket (the search returns `next` when the rest of the
                // bracket is smaller) instead of re-probing it.
                return binary_in_window(keys, prev + 1, next - prev - 1, q);
            }
            prev = next;
            step *= 2;
        }
    } else {
        // Gallop left.
        let mut step = 1usize;
        let mut prev = hint;
        loop {
            if prev == 0 {
                return 0;
            }
            let next = prev.saturating_sub(step);
            if keys[next] < q {
                // `keys[prev] >= q` is already known: exclude `prev`.
                return binary_in_window(keys, next + 1, prev - next - 1, q);
            }
            if next == 0 {
                // `keys[0] >= q` (the branch above did not take), so position
                // 0 is the lower bound — no further search needed.
                return 0;
            }
            prev = next;
            step *= 2;
        }
    }
}

/// Number of probes (array touches) a bounded search of a window of `len`
/// records performs; used by the cost model and the cache-miss proxy.
#[inline]
pub fn window_probe_count(len: usize, linear_threshold: usize) -> usize {
    if len <= 1 {
        1
    } else if len < linear_threshold {
        // Linear scan touches on average half the window but stays within
        // one or two cache lines.
        len.div_ceil(2).max(1)
    } else {
        (usize::BITS - (len - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_data::prelude::*;

    fn reference(keys: &[u64], q: u64) -> usize {
        keys.partition_point(|&k| k < q)
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn window_searches_agree_with_reference_when_window_covers_target() {
        let d: Dataset<u64> = SosdName::Face64.generate(5_000, 1);
        let keys = d.as_slice();
        let w = Workload::uniform_domain(&d, 500, 3);
        for (q, expected) in w.iter() {
            // A window comfortably containing the target.
            let start = expected.saturating_sub(20);
            let len = 40.min(keys.len() - start);
            assert_eq!(linear_in_window(keys, start, len, q), expected);
            assert_eq!(binary_in_window(keys, start, len, q), expected);
        }
    }

    #[test]
    fn window_searches_clamp_when_target_is_outside() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let all = [
            linear_in_window as fn(&[u64], usize, usize, u64) -> usize,
            binary_in_window,
        ];
        for search in all {
            // Target (lower bound of 995 -> index 100) is right of the window.
            assert_eq!(search(&keys, 10, 5, 995), 15);
            // Target (index 0) is to the left of the window.
            assert_eq!(search(&keys, 10, 5, 0), 10);
            // Window beyond the end of the array.
            assert_eq!(search(&keys, 98, 50, 2_000), 100);
            // Degenerate zero-length window.
            assert_eq!(search(&keys, 7, 0, 42), 7);
        }
    }

    #[cfg_attr(miri, ignore = "dataset too large for Miri")]
    #[test]
    fn exponential_matches_reference_from_any_hint() {
        let d: Dataset<u64> = SosdName::Wiki64.generate(5_000, 5);
        let keys = d.as_slice();
        let w = Workload::uniform_domain(&d, 300, 7);
        for (q, expected) in w.iter() {
            for hint in [0usize, 1, 17, 2_500, 4_999, 10_000] {
                assert_eq!(
                    exponential_around(keys, hint, q),
                    expected,
                    "q={q} hint={hint}"
                );
            }
        }
    }

    #[test]
    fn exponential_handles_empty_and_boundaries() {
        let empty: Vec<u64> = vec![];
        assert_eq!(exponential_around(&empty, 0, 9), 0);
        let keys = vec![5u64, 10, 15];
        assert_eq!(exponential_around(&keys, 0, 1), 0);
        assert_eq!(exponential_around(&keys, 2, 1), 0);
        assert_eq!(exponential_around(&keys, 0, 99), 3);
        assert_eq!(exponential_around(&keys, 2, 99), 3);
    }

    #[test]
    fn duplicates_return_first_occurrence() {
        let keys = vec![1u64, 4, 4, 4, 4, 9];
        for hint in 0..keys.len() {
            assert_eq!(exponential_around(&keys, hint, 4), 1);
        }
        assert_eq!(linear_in_window(&keys, 0, 6, 4), 1);
        assert_eq!(binary_in_window(&keys, 0, 6, 4), 1);
    }

    #[test]
    fn probe_count_model_is_monotone() {
        let t = 8;
        assert_eq!(window_probe_count(1, t), 1);
        assert!(window_probe_count(4, t) <= window_probe_count(64, t));
        assert!(window_probe_count(64, t) <= window_probe_count(4096, t));
        assert_eq!(window_probe_count(1024, t), 10);
    }

    #[test]
    fn exhaustive_small_windows_match_reference() {
        let keys = vec![2u64, 4, 4, 6, 8, 8, 8, 10];
        for q in 0..=12u64 {
            let expected = reference(&keys, q);
            assert_eq!(linear_in_window(&keys, 0, keys.len(), q), expected, "q={q}");
            assert_eq!(binary_in_window(&keys, 0, keys.len(), q), expected, "q={q}");
            for hint in 0..keys.len() {
                assert_eq!(
                    exponential_around(&keys, hint, q),
                    expected,
                    "q={q} hint={hint}"
                );
            }
        }
    }

    /// A `u64` wrapper whose comparisons are counted, for probe-accounting
    /// regression tests.
    #[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
    struct CountedKey(u64);

    thread_local! {
        static COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl PartialOrd for CountedKey {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for CountedKey {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            COMPARES.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    impl std::fmt::Display for CountedKey {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    impl Key for CountedKey {
        const BITS: u32 = 64;
        const MIN_KEY: Self = CountedKey(u64::MIN);
        const MAX_KEY: Self = CountedKey(u64::MAX);
        fn to_u64(self) -> u64 {
            self.0
        }
        fn from_u64_saturating(v: u64) -> Self {
            CountedKey(v)
        }
    }

    fn compares_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        COMPARES.with(|c| c.set(0));
        let r = f();
        (r, COMPARES.with(|c| c.get()))
    }

    /// The pre-fix galloping search: its bracket windows include the boundary
    /// position the gallop already probed, so the binary phase re-compares a
    /// key whose ordering against `q` is known.
    fn exponential_around_with_reprobe<K: Key>(keys: &[K], hint: usize, q: K) -> usize {
        let n = keys.len();
        if n == 0 {
            return 0;
        }
        let hint = hint.min(n - 1);
        if keys[hint] < q {
            let mut step = 1usize;
            let mut prev = hint;
            loop {
                let next = match prev.checked_add(step) {
                    Some(i) if i < n => i,
                    _ => return binary_in_window(keys, prev + 1, n - prev - 1, q),
                };
                if keys[next] >= q {
                    return binary_in_window(keys, prev + 1, next - prev, q);
                }
                prev = next;
                step *= 2;
            }
        } else {
            let mut step = 1usize;
            let mut prev = hint;
            loop {
                if prev == 0 {
                    return 0;
                }
                let next = prev.saturating_sub(step);
                if keys[next] < q {
                    return binary_in_window(keys, next + 1, prev - next, q);
                }
                if next == 0 {
                    return binary_in_window(keys, 0, prev, q);
                }
                prev = next;
                step *= 2;
            }
        }
    }

    #[test]
    fn galloping_brackets_skip_the_already_probed_boundary() {
        // Regression for the boundary re-probe micro-fix: the fixed gallop
        // must return the same position as the re-probing variant everywhere
        // while performing strictly fewer key comparisons in aggregate.
        let keys: Vec<CountedKey> = (0..4_096u64).map(|i| CountedKey(i * 3)).collect();
        let mut total_new = 0usize;
        let mut total_old = 0usize;
        for hint in [0usize, 1, 7, 100, 2_048, 4_095, 9_999] {
            for raw in [0u64, 1, 3, 300, 301, 3_000, 6_144, 6_145, 12_285, 20_000] {
                let q = CountedKey(raw);
                let expected = keys.partition_point(|&k| k < q);
                let (got_new, n_new) = compares_during(|| exponential_around(&keys, hint, q));
                let (got_old, n_old) =
                    compares_during(|| exponential_around_with_reprobe(&keys, hint, q));
                assert_eq!(got_new, expected, "hint={hint} q={raw}");
                assert_eq!(got_old, expected, "hint={hint} q={raw}");
                // The shrunken bracket can shift the binary search onto a
                // slightly different halving path, so allow per-case jitter;
                // the aggregate below must still come out ahead.
                assert!(
                    n_new <= n_old + 1,
                    "hint={hint} q={raw}: {n_new} vs {n_old} compares"
                );
                total_new += n_new;
                total_old += n_old;
            }
        }
        assert!(
            total_new < total_old,
            "boundary exclusion must save comparisons: {total_new} vs {total_old}"
        );

        // The `keys[0] >= q` left-gallop exit returns without any binary
        // phase at all: gallop comparisons only (hint probe + log2 steps).
        let (pos, n) = compares_during(|| exponential_around(&keys, 4_095, CountedKey(0)));
        assert_eq!(pos, 0);
        assert!(
            n <= 14,
            "left exit should be gallop-only, took {n} compares"
        );
    }

    #[test]
    fn duplicate_runs_at_gallop_brackets_stay_exact() {
        // Duplicates sitting exactly on a gallop boundary are the case where
        // an off-by-one in the shrunken bracket would surface: the first
        // occurrence must still be found from every hint.
        let mut keys: Vec<u64> = vec![0, 1, 2];
        keys.extend(std::iter::repeat_n(50u64, 37));
        keys.extend([60, 61, 62, 63]);
        for hint in 0..keys.len() + 3 {
            for q in [0u64, 1, 3, 49, 50, 51, 59, 60, 64, 100] {
                let expected = reference(&keys, q);
                assert_eq!(
                    exponential_around(&keys, hint, q),
                    expected,
                    "q={q} hint={hint}"
                );
            }
        }
    }
}
