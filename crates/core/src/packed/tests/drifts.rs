//! Drift arrays the packing tests feed the lines: hand-made steps,
//! spikes and long windows at the column's ends, and random clustered
//! layers.

/// `len` drifts climbing by 1 every fourth partition from `from`: windows
/// of 1 and 2 records, a line exact under its slope.
#[cfg(test)]
pub(super) fn climbing(from: i32, len: usize) -> Vec<i32> {
    (0..len as i32).map(|i| from + i / 4).collect()
}

/// The `n + 1` drifts of one long window: partition `at` starts at `at`
/// and holds `spread + 1` records, so every drift after its own is
/// `spread` — the line holding both climbs `spread`, every other is flat.
#[cfg(test)]
pub(super) fn one_step(n: usize, at: usize, spread: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| if k <= at { 0 } else { spread as i32 })
        .collect()
}

/// The `n + 1` drifts 0 but for drift `at`, `spread`: partition `at − 1`
/// holds `spread + 1` records, and the line holding the spike, whose ends
/// are both 0, keeps slope 0 and spreads `spread`.
#[cfg(test)]
pub(super) fn spike(n: usize, at: usize, spread: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| if k == at { spread as i32 } else { 0 })
        .collect()
}

/// The `n + 1` drifts of a layer whose last partition starts `keys`
/// records before the end: 0 but for its own `1 − keys`. Its short last
/// line, flat at both ends, keeps slope 0 and spreads `keys − 1`.
#[cfg(test)]
pub(super) fn a_long_last_window(n: usize, keys: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| if k == n - 1 { 1 - keys as i32 } else { 0 })
        .collect()
}

/// The drifts of a monotone model's layer over a random column of up to
/// 6 000 keys, crowded into clusters of up to 3 000: lines spreading
/// anywhere from 0 to past what a unit fits.
#[cfg(test)]
pub(super) fn clustered(rng: &mut sosd_data::rng::SplitMix64) -> Vec<i32> {
    let n = 1 + rng.next_below(6_000) as usize;
    let mut predictions: Vec<usize> = Vec::with_capacity(n);
    while predictions.len() < n {
        let at = rng.next_below(n as u64) as usize;
        let keys = 1 + rng.next_below([1, 40, 3_000][predictions.len() % 3]) as usize;
        let keys = keys.min(n - predictions.len());
        predictions.extend(std::iter::repeat_n(at, keys));
    }
    predictions.sort_unstable();
    (0..=n)
        .map(|k| predictions.partition_point(|&p| p < k) as i32 - k as i32)
        .collect()
}

/// `n + 1` drifts whose first `empty` partitions are empty — each starts
/// at position 0, so drift `k ≤ empty` is `−k` — the rest with one key
/// each but for a window of `spread + 1` records at partition 59: a first
/// line that spreads `spread + empty` under slope 0, whose start nearest 0
/// its unit may round below 0.
#[cfg(test)]
pub(super) fn leading_empty(n: usize, empty: usize, spread: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| match k {
            k if k <= empty => -(k as i32),
            60 => spread as i32 - empty as i32,
            _ => -(empty as i32),
        })
        .collect()
}
