//! Tests of the packed lines at both widths, their slopes and the width
//! rule. The helpers that assert carry `#[cfg(test)]` of their own:
//! shift-lint masks test items, not test files.

use super::*;

/// The seven-bit line's drifts and pairs.
const LINE: usize = Line::<7>::LINE;
const PAIRS: usize = Line::<7>::PAIRS;

/// Line `j` of `drifts` — the layer over `drifts.len() − 1` keys — as
/// `i64`, padded to `LINE` drifts with copies of its last one.
#[cfg(test)]
fn padded<const BITS: u32>(drifts: &[i32], j: usize) -> Vec<i64> {
    let (line, pairs) = (Line::<BITS>::LINE, Line::<BITS>::PAIRS);
    let own = &drifts[pairs * j..drifts.len().min(pairs * j + line)];
    (0..line)
        .map(|i| i64::from(own[i.min(own.len() - 1)]))
        .collect()
}

/// The residuals of line `j` under `slope`: drift `i` less
/// `⌊slope·i / 2^F⌋`.
#[cfg(test)]
fn residuals<const BITS: u32>(drifts: &[i32], j: usize, slope: i64) -> Vec<i64> {
    let fraction = Line::<BITS>::FRACTION;
    let line = padded::<BITS>(drifts, j);
    (0..line.len())
        .map(|i| line[i] - ((slope * i as i64) >> fraction))
        .collect()
}

/// The spread of line `j`'s residuals under `slope`.
#[cfg(test)]
fn spread<const BITS: u32>(drifts: &[i32], j: usize, slope: i64) -> i64 {
    let residuals = residuals::<BITS>(drifts, j, slope);
    residuals.iter().max().unwrap() - residuals.iter().min().unwrap()
}

/// How line `j` of `drifts` is stored at `BITS` bits under `slope`:
/// `Some((base, shift, slope))` in place, `None` if it cannot be. The
/// rule, restated from the drifts alone: the base is the least residual,
/// the shift the least `s` with `spread ≤ (2^BITS − 1)·2^s − 1`, and the
/// line cannot be stored when that `s > 3`, when its base does not fit 30
/// bits, or when it is shifted and a window it would serve overhangs the
/// column.
#[cfg(test)]
pub(crate) fn placed<const BITS: u32>(
    drifts: &[i32],
    j: usize,
    slope: i64,
) -> Option<(i32, u32, i32)> {
    let pairs = Line::<BITS>::PAIRS;
    let fraction = Line::<BITS>::FRACTION;
    let residuals = residuals::<BITS>(drifts, j, slope);
    let min = *residuals.iter().min().unwrap();
    let spread = residuals.iter().max().unwrap() - min;
    let units = (1i64 << BITS) - 1;
    let shift = (0u32..).find(|&s| spread < units << s).unwrap();
    if shift > 3 || !(-(1 << 29)..1 << 29).contains(&min) {
        return None;
    }
    let stored = |i: usize| {
        min + ((residuals[i] - min) >> shift << shift) + ((slope * i as i64) >> fraction)
    };
    let column = drifts.len() as i64 - 1;
    let real = drifts.len().min(pairs * j + Line::<BITS>::LINE) - pairs * j;
    let inside = (0..real - 1).all(|i| {
        let k = (pairs * j + i) as i64;
        let start = k + stored(i);
        let end = k + 1 + stored(i + 1) + (1i64 << shift) - 1;
        start >= 0 && start.max(end) <= column
    });
    (shift == 0 || inside).then_some((min as i32, shift, slope as i32))
}

/// The slope line `j` of `drifts` is offered at `BITS` bits: from its
/// first drift to its last (padded) one, `2^F·(Δ_last − Δ_first) / PAIRS`
/// rounded half up, clamped to the field's `−2^(w−1)..=2^(w−1) − 1`.
#[cfg(test)]
fn endpoint_slope<const BITS: u32>(drifts: &[i32], j: usize) -> i64 {
    let line = padded::<BITS>(drifts, j);
    let climb = (line[line.len() - 1] - line[0]) << Line::<BITS>::FRACTION;
    let pairs = Line::<BITS>::PAIRS as i64;
    let field = 1i64 << (Line::<BITS>::SLOPE_BITS - 1);
    (2 * climb + pairs)
        .div_euclid(2 * pairs)
        .clamp(-field, field - 1)
}

/// How line `j` of `drifts`, the layer over `drifts.len() − 1` keys, is
/// stored at `BITS` bits: `Some((base, shift, slope))` in place, `None`
/// escaped. The line keeps its endpoint slope where that leaves its
/// residuals a smaller spread than slope 0 and every drift fits 30 bits,
/// else slope 0; where the kept slope cannot be stored ([`placed`]), slope
/// 0 is tried.
#[cfg(test)]
pub(crate) fn expected_line<const BITS: u32>(drifts: &[i32], j: usize) -> Option<(i32, u32, i32)> {
    let slope = endpoint_slope::<BITS>(drifts, j);
    let in_30_bits = padded::<BITS>(drifts, j)
        .iter()
        .all(|delta| (-(1 << 29)..1 << 29).contains(delta));
    if in_30_bits && spread::<BITS>(drifts, j, slope) < spread::<BITS>(drifts, j, 0) {
        placed::<BITS>(drifts, j, slope).or_else(|| placed::<BITS>(drifts, j, 0))
    } else {
        placed::<BITS>(drifts, j, 0)
    }
}

/// Bit `at` of `line`.
#[cfg(test)]
fn bit<const BITS: u32>(line: &Line<BITS>, at: usize) -> u32 {
    u32::from(line.0[at / 8] >> (at % 8) & 1)
}

/// Offset `slot` of `line`, its slope and its base word, read bit by bit
/// as the layout puts them: offset `i` at bits `BITS·i..BITS·i + BITS`
/// from byte 0 on, LSB first, the slope in the `w` bits up to bit 480, two's
/// complement, and the base word little-endian in bytes `60..64`.
#[cfg(test)]
fn restated<const BITS: u32>(line: &Line<BITS>, slot: usize) -> (u32, i32, u32) {
    let offset = (0..BITS as usize)
        .map(|b| bit(line, BITS as usize * slot + b) << b)
        .sum();
    let width = Line::<BITS>::SLOPE_BITS as usize;
    let field: u32 = (0..width).map(|b| bit(line, 480 - width + b) << b).sum();
    let slope = (field << (32 - width)) as i32 >> (32 - width);
    let word = (0..32).map(|b| bit(line, 480 + b) << b).sum();
    (offset, slope, word)
}

/// Drift `slot` of a line in place, decoded from its bits alone:
/// `base + ⌊slope·slot / 2^F⌋ + (offset << shift)`.
#[cfg(test)]
fn decoded<const BITS: u32>(line: &Line<BITS>, slot: usize) -> i64 {
    let (offset, slope, word) = restated(line, slot);
    let (base, shift) = (i64::from((word as i32) << 2 >> 2), word >> 30);
    base + ((i64::from(slope) * slot as i64) >> Line::<BITS>::FRACTION)
        + (i64::from(offset) << shift)
}

/// `drifts` at `BITS` bits in one call: the layer over
/// `drifts.len() − 1` keys.
#[cfg(test)]
fn lines_of<const BITS: u32>(drifts: &[i32]) -> Lines<BITS> {
    Lines::new(drifts.len().saturating_sub(1)).with(drifts)
}

/// Pack `drifts` at `BITS` bits and check what holds of every packed
/// array: feeding them a line or three lines a call reaches the same
/// array, every offset, slope and base sits at the bits the layout says, a
/// line's last drift is the next line's first, every line takes its slope,
/// base and shift or is escaped by the rule ([`expected_line`]), the
/// patch array holds the escaped lines' drifts, every drift of a line in
/// place, decoded from its bits, is its residual rounded down to the shift
/// plus the line's rise — exact at shift 0 — and every pair serves a
/// window that holds the exact one and overhangs each of its ends by less
/// than `2^s`.
#[cfg(test)]
pub(crate) fn pack<const BITS: u32>(drifts: &[i32]) -> Lines<BITS> {
    let (line_len, pairs) = (Line::<BITS>::LINE, Line::<BITS>::PAIRS);
    let packed = lines_of::<BITS>(drifts);
    for lines_per_call in [1, 3] {
        let mut streamed = Lines::<BITS>::new(drifts.len().saturating_sub(1));
        let mut from = 0;
        loop {
            // Each call repeats the last drift of the one before.
            let to = drifts.len().min(from + lines_per_call * pairs + 1);
            streamed.extend(&drifts[from..to]);
            if to == drifts.len() {
                break;
            }
            from = to - 1;
        }
        streamed.finish();
        assert!(streamed == packed, "{lines_per_call} lines a call");
    }
    assert_eq!(packed.len, drifts.len());
    assert_eq!(packed.lines.len(), Lines::<BITS>::line_count(drifts.len()));
    let (mut escaped_lines, mut shifted_lines) = (0, 0);
    let escape = Line::<BITS>::ESCAPE;
    for (j, line) in packed.lines.iter().enumerate() {
        let own = &drifts[pairs * j..drifts.len().min(pairs * j + line_len)];
        for slot in 0..line_len {
            let (offset, slope, word) = restated(line, slot);
            let read = (line.offset(slot), line.slope(), line.word());
            assert_eq!(read, (offset, slope, word), "line {j} slot {slot}");
            assert_eq!(offset == escape, line.is_escaped(), "line {j} slot {slot}");
        }
        match expected_line::<BITS>(drifts, j) {
            Some((base, shift, slope)) => {
                assert!(!line.is_escaped(), "line {j}");
                let read = (line.base(), line.shift(), line.slope());
                assert_eq!(read, (base, shift, slope), "line {j}");
                shifted_lines += usize::from(shift > 0);
                let unit = 1i64 << shift;
                for (slot, &delta) in own.iter().enumerate() {
                    let served = decoded(line, slot);
                    let delta = i64::from(delta);
                    assert!(
                        served <= delta && delta - served < unit,
                        "line {j} slot {slot}"
                    );
                }
            }
            None => {
                assert!(line.is_escaped(), "line {j}");
                assert_eq!(line.slope(), 0, "line {j}");
                let at = line.patch_slot();
                assert_eq!(packed.patches[at..][..own.len()], *own, "line {j}");
                escaped_lines += 1;
            }
        }
    }
    assert_eq!(packed.patches(), line_len * escaped_lines);
    assert_eq!(packed.shifted_lines(), shifted_lines);
    assert_eq!(packed.inexact, shifted_lines + escaped_lines);
    assert_eq!(
        packed.size_bytes(),
        64 * packed.lines.len() + 4 * line_len * escaped_lines
    );
    // The unit a drift is stored in: `2^s` in a line in place, 1 in an
    // escaped line.
    let unit = |k: usize| 1 << packed.shift(k).unwrap_or(0);
    for (i, &delta) in drifts.iter().enumerate() {
        let stored = packed.delta(i);
        let slot_unit = unit(i.saturating_sub(1));
        assert!(stored <= delta && delta - stored < slot_unit, "drift {i}");
        if i + 1 < drifts.len() {
            // Pair `i` reads line `i / PAIRS`: its start rounded down, its
            // end `Δ_{i+1}` rounded down plus `2^s − 1`, and no window
            // where the end is not past the start.
            let (line, slot) = (&packed.lines[i / pairs], i % pairs);
            let served = |slot: usize| match line.is_escaped() {
                false => decoded(line, slot),
                true => i64::from(drifts[i - i % pairs + slot]),
            };
            let unit = i64::from(unit(i));
            let (start, end) = (served(slot), served(slot + 1) + unit - 1);
            let len = (1 + end - start).max(0) as usize;
            assert_eq!(packed.pair(i), Some((i, start as i32, len)), "pair {i}");
            let delta = i64::from(delta);
            assert!(start <= delta && delta - start < unit, "pair {i}");
            let next = i64::from(drifts[i + 1]);
            assert!(end >= next && end - next < unit, "pair {i}");
        }
    }
    if let Some(last) = drifts.len().checked_sub(2) {
        let pair = packed.pair(last);
        assert_eq!(packed.pair(usize::MAX), pair, "clamped to the last pair");
    } else {
        assert_eq!(packed.pair(0), None);
    }
    packed
}

/// [`pack`] at seven bits, as the array the layer serves.
#[cfg(test)]
pub(crate) fn pack_seven(drifts: &[i32]) -> Packed {
    Packed::Seven(pack::<7>(drifts))
}

/// Assert that the sloped seven-bit lines of `drifts` are, line for line,
/// never worse than plain ones — slope 0 under the same rule: a line
/// shifted or escaped with its slope is so without it, one escaped with
/// its slope is escaped without it, and so the array has no more shifted
/// or escaped lines and is no larger. Returns the lines inexact with and
/// without slopes.
#[cfg(test)]
pub(crate) fn assert_no_wider_than_plain(drifts: &[i32], tag: &str) -> (usize, usize) {
    let sloped = lines_of::<7>(drifts);
    let (mut inexact, mut escaped) = ([0; 2], [0; 2]);
    for (j, line) in sloped.lines.iter().enumerate() {
        let plain = placed::<7>(drifts, j, 0);
        let was = [
            line.is_escaped() || line.shift() > 0,
            plain.is_none_or(|(_, shift, _)| shift > 0),
        ];
        assert!(
            !was[0] || was[1],
            "{tag}: line {j} inexact only with its slope"
        );
        let out = [line.is_escaped(), plain.is_none()];
        assert!(
            !out[0] || out[1],
            "{tag}: line {j} escaped only with its slope"
        );
        for side in 0..2 {
            inexact[side] += usize::from(was[side]);
            escaped[side] += usize::from(out[side]);
        }
    }
    assert_eq!(sloped.inexact, inexact[0], "{tag}");
    let bytes = |escaped: usize| 64 * sloped.lines.len() + 4 * LINE * escaped;
    assert_eq!(sloped.size_bytes(), bytes(escaped[0]), "{tag}");
    assert!(bytes(escaped[0]) <= bytes(escaped[1]), "{tag}");
    (inexact[0], inexact[1])
}

/// `len` drifts climbing by 1 every other partition from `from`: windows
/// of 1 and 2 records, a line exact under its slope at either width.
#[cfg(test)]
fn climbing(from: i32, len: usize) -> Vec<i32> {
    (0..len as i32).map(|i| from + i / 2).collect()
}

/// The `n + 1` drifts of one long window: partition `at` starts at `at`
/// and holds `spread + 1` records, so every drift after its own is
/// `spread` — the line holding both climbs `spread`, every other is flat.
#[cfg(test)]
fn one_step(n: usize, at: usize, spread: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| if k <= at { 0 } else { spread as i32 })
        .collect()
}

/// The `n + 1` drifts 0 but for drift `at`, `spread`: partition `at − 1`
/// holds `spread + 1` records, and the line holding the spike, whose ends
/// are both 0, keeps slope 0 and spreads `spread`.
#[cfg(test)]
fn spike(n: usize, at: usize, spread: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| if k == at { spread as i32 } else { 0 })
        .collect()
}

/// The `n + 1` drifts of a layer whose last partition starts `keys`
/// records before the end: 0 but for its own `1 − keys`. Its short last
/// line, flat at both ends, keeps slope 0 and spreads `keys − 1`.
#[cfg(test)]
fn a_long_last_window(n: usize, keys: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| if k == n - 1 { 1 - keys as i32 } else { 0 })
        .collect()
}

#[test]
fn random_entries_come_back_with_exact_drift_and_a_count_no_shorter() {
    // A window is the difference of two neighbouring drifts: in a line
    // of shift 0 both come back exact, so it is served at its exact
    // length; in a shifted one it is served no shorter. At both widths.
    use sosd_data::rng::SplitMix64;
    let mut rng = SplitMix64::new(0xC0DE);
    for round in 0..40 {
        let n = rng.next_below(700) as usize;
        // Drifts that wander by up to `step` a partition from anywhere
        // in `i32`.
        let step = [2, 4, 300, 100_000][round % 4];
        let mut delta = rng.next_u64() as i32;
        let drifts: Vec<i32> = (0..n)
            .map(|_| {
                delta = delta.wrapping_add(rng.next_below(2 * step + 1) as i32 - step as i32);
                delta
            })
            .collect();
        pack::<7>(&drifts);
        pack::<5>(&drifts);
    }
}

#[test]
fn random_layers_of_clustered_windows_shift_their_wide_lines() {
    // The layers of monotone models over random columns: keys crowd
    // into clusters of up to 3 000, so lines spread anywhere from 0 to
    // past what a shift fits — in place, sloped, shifted and escaped — and
    // every window they serve lies inside the column, at both widths. A
    // sloped seven-bit line is never worse than a plain one.
    use sosd_data::rng::SplitMix64;
    let mut rng = SplitMix64::new(0x5A1F7);
    let (mut shifted, mut sloped) = ([0; 2], [0; 2]);
    for round in 0..30 {
        let n = 1 + rng.next_below(6_000) as usize;
        let mut predictions: Vec<usize> = Vec::with_capacity(n);
        while predictions.len() < n {
            let at = rng.next_below(n as u64) as usize;
            let keys = 1 + rng.next_below([1, 40, 3_000][predictions.len() % 3]) as usize;
            let keys = keys.min(n - predictions.len());
            predictions.extend(std::iter::repeat_n(at, keys));
        }
        predictions.sort_unstable();
        let drifts: Vec<i32> = (0..=n)
            .map(|k| predictions.partition_point(|&p| p < k) as i32 - k as i32)
            .collect();
        assert_no_wider_than_plain(&drifts, &format!("round {round}"));
        let seven = pack::<7>(&drifts);
        let five = pack::<5>(&drifts);
        sloped[0] += seven.lines.iter().filter(|l| l.slope() != 0).count();
        sloped[1] += five.lines.iter().filter(|l| l.slope() != 0).count();
        for (width, packed) in [Packed::Seven(seven), Packed::Five(five)]
            .iter()
            .enumerate()
        {
            shifted[width] += packed.shifted_lines();
            for k in 0..n {
                let (_, delta, len) = packed.pair(k).unwrap();
                let start = k as i64 + i64::from(delta);
                assert!(
                    0 <= start && start + len as i64 <= n as i64,
                    "pair {k} of {n}"
                );
            }
        }
    }
    assert!(shifted.iter().all(|&s| s > 10), "{shifted:?} shifted lines");
    assert!(sloped.iter().all(|&s| s > 10), "{sloped:?} sloped lines");
}

/// A line of `BITS` holds `LINE` drifts in 64 bytes, however far they
/// sit; one drift more is a second line, `PAIRS` more still is; an
/// escaped line costs `4·LINE` bytes more, a shifted one nothing.
#[cfg(test)]
fn a_line_is_64_bytes<const BITS: u32>() {
    let (line, pairs) = (Line::<BITS>::LINE, Line::<BITS>::PAIRS);
    assert_eq!(pack::<BITS>(&vec![1; line]).size_bytes(), 64);
    assert_eq!(pack::<BITS>(&vec![1_000_000; line]).size_bytes(), 64);
    assert_eq!(pack::<BITS>(&vec![1; line + 1]).size_bytes(), 128);
    assert_eq!(pack::<BITS>(&vec![1; line + pairs]).size_bytes(), 128);
    assert_eq!(pack::<BITS>(&vec![1; line + pairs + 1]).size_bytes(), 192);
    let mut drifts = vec![1; line + 1];
    drifts[9] = 1_017;
    assert_eq!(pack::<BITS>(&drifts).size_bytes(), 128 + 4 * line);
    let shifted = pack::<BITS>(&one_step(1_000, 70, 200));
    assert_eq!(shifted.shifted_lines(), 1);
    assert_eq!(shifted.size_bytes(), 64 * Lines::<BITS>::line_count(1_001));
}

#[test]
fn a_line_is_64_bytes_for_67_pairs() {
    // 67 pairs are 68 drifts and a slope in the 4 bits left: one line.
    // An escaped line, spreading past 1 015, costs 272 bytes more.
    assert_eq!((LINE, PAIRS, Line::<7>::SLOPE_BITS), (68, 67, 4));
    a_line_is_64_bytes::<7>();
    assert_eq!(pack::<7>(&one_step(1_000, 70, 600)).size_bytes(), 64 * 15);
}

#[test]
fn a_five_bit_line_is_64_bytes_for_92_pairs() {
    // 92 pairs are 93 drifts and a slope in the 15 bits left: one line.
    // An escaped line, spreading past 247, costs 372 bytes more.
    assert_eq!((Line::<5>::LINE, Line::<5>::PAIRS), (93, 92));
    assert_eq!((Line::<5>::SLOPE_BITS, Line::<5>::FRACTION), (15, 6));
    a_line_is_64_bytes::<5>();
    assert_eq!(pack::<5>(&one_step(1_000, 70, 200)).size_bytes(), 64 * 11);
}

/// Pairs either side of the first two seams and every seam of a
/// climbing array come from one line, the seam's drift stored in both.
#[cfg(test)]
fn seams<const BITS: u32>() {
    let pairs = Line::<BITS>::PAIRS;
    let drifts = climbing(-40, 5 * pairs + 1);
    let packed = pack::<BITS>(&drifts);
    assert_eq!(packed.lines.len(), 5);
    let window = |k: usize| Some((k, drifts[k], (1 + drifts[k + 1] - drifts[k]) as usize));
    for k in [
        pairs - 1,
        pairs,
        pairs + 1,
        2 * pairs - 1,
        2 * pairs,
        2 * pairs + 1,
    ] {
        assert_eq!(packed.pair(k), window(k), "pair {k}");
    }
    // Pair `PAIRS − 1` is line 0's last, pair `PAIRS` line 1's first;
    // drift `PAIRS` is in both, each under its own slope.
    for seam in (pairs..drifts.len() - 1).step_by(pairs) {
        let (line, next) = (&packed.lines[seam / pairs - 1], &packed.lines[seam / pairs]);
        let shared = i64::from(drifts[seam]);
        assert_eq!(
            (line.drift(pairs), next.drift(0)),
            (shared, shared),
            "seam {seam}"
        );
        for k in [seam - 1, seam] {
            assert_eq!(packed.pair(k), window(k), "seam {seam}");
        }
    }
}

#[test]
fn pairs_at_66_67_68_133_134_135_and_every_seam_come_from_one_line() {
    seams::<7>();
}

#[test]
fn five_bit_pairs_at_91_92_93_183_184_185_and_every_seam_come_from_one_line() {
    seams::<5>();
}

/// Pair `PAIRS − 1` of a line loads the last offsets' bytes, with the
/// slope's bits above them and, at seven bits, the base's low ones. A
/// slope of −1 and a base of −1 set every one of those, and the fetch
/// still reads the two offsets alone — at every shift, `edges` giving each
/// one's largest residual spread, in place beside an escaped line and
/// from the escaped line's own last slot.
#[cfg(test)]
fn the_last_slot_drops_the_base_bytes<const BITS: u32>(edges: [(usize, u32); 4]) {
    let pairs = Line::<BITS>::PAIRS;
    let at = 2 * pairs - 1;
    let rise = |slot: usize| Line::<BITS>::rise(-1, slot);
    for (spread, shift) in edges {
        // Line 1 falls under slope −1 from residual `spread − 1` at its
        // first drift to −1 and back to `spread − 1` at its last: its
        // endpoint slope is −1 and its residuals spread `spread`. Line 0
        // is −1 between two drifts of `spread − 1`, and a spike escapes
        // line 2.
        let n = at + 1_100 + pairs;
        let mut drifts = vec![0; n + 1];
        for slot in 0..=pairs {
            let residual = if slot % pairs == 0 {
                spread as i32 - 1
            } else {
                -1
            };
            drifts[pairs + slot] = residual + rise(slot);
        }
        drifts[0] = spread as i32 - 1;
        drifts[1..pairs].fill(-1);
        let last = drifts[2 * pairs];
        drifts[2 * pairs..].fill(last);
        drifts[2 * pairs + 30] = 8_000_000;
        let packed = pack::<BITS>(&drifts);
        let tag = format!("spread {spread}");
        let line = &packed.lines[1];
        assert_eq!((line.base(), line.slope()), (-1, -1), "{tag}");
        assert_eq!(line.0[OFFSET_BYTES], 0xFF, "{tag}");
        let field = u32::MAX << (32 - Line::<BITS>::SLOPE_BITS);
        assert_eq!(
            Line::<BITS>::word_at(&line.0, SLOPE_WORD) & field,
            field,
            "{tag}"
        );
        assert_eq!(packed.shift(at), Some(shift), "{tag}");
        assert_eq!(packed.shift(at + 1), None, "{tag}");
        assert_eq!(packed.patches(), Line::<BITS>::LINE, "{tag}");
        // The long window: its start exact, its end rounded up to a whole
        // unit past the line's fall across the pair.
        let fall = rise(pairs) - rise(pairs - 1);
        let len = fall + (((spread >> shift) + 1) << shift) as i32;
        let start = -1 + rise(pairs - 1);
        assert_eq!(packed.pair(at), Some((at, start, len as usize)), "{tag}");
        // The last slot of the escaped line: two patches.
        let last = 3 * pairs - 1;
        let len = (1 + drifts[last + 1] - drifts[last]) as usize;
        assert_eq!(packed.pair(last), Some((last, drifts[last], len)), "{tag}");
    }
}

#[test]
fn a_fetch_from_slot_66_drops_the_base_bytes_at_every_shift_and_beside_an_escape() {
    // Slot 66 loads bytes 57..61: offsets 66 and 67, the slope's 4 bits
    // and the base's low byte.
    the_last_slot_drops_the_base_bytes::<7>([(126, 0), (253, 1), (507, 2), (1_015, 3)]);
}

#[test]
fn a_fetch_from_slot_91_drops_the_slope_bits_at_every_shift_and_beside_an_escape() {
    // Slot 91 loads bytes 56..60: offsets 91 and 92 and the slope's 15
    // bits, up to the base.
    the_last_slot_drops_the_base_bytes::<5>([(30, 0), (61, 1), (123, 2), (247, 3)]);
}

#[test]
fn slopes_at_the_fields_edges_decode_every_drift_and_clamped_ones_shift_or_escape() {
    // Line 0 climbs `rate` records a partition and every line after it is
    // flat. A rate the field holds is one slope and the line is exact; a
    // rate past it is clamped to the field's edge, and the residuals climb
    // by the rest: a line exact, shifted or — past what a shift fits, as
    // it is without the slope — escaped. `pack` decodes every drift bit by
    // bit.
    fn at_width<const BITS: u32>(cases: &[(i32, i32, Option<u32>)]) {
        let pairs = Line::<BITS>::PAIRS as i32;
        let n = 30_000;
        for &(rate, slope, shift) in cases {
            // Drifts that fall start high enough to keep every start in
            // the column.
            let from = (-rate * pairs).max(0);
            let drifts: Vec<i32> = (0..=n).map(|k: i32| from + rate * k.min(pairs)).collect();
            let packed = pack::<BITS>(&drifts);
            let tag = format!("rate {rate}");
            assert_eq!(packed.shift(0), shift, "{tag}");
            if shift.is_some() {
                assert_eq!(packed.lines[0].slope(), slope, "{tag}");
            }
            assert!(packed.lines[1..].iter().all(|line| line.slope() == 0));
        }
    }
    assert_eq!(Line::<7>::SLOPES, (-8, 7));
    at_width::<7>(&[
        (7, 7, Some(0)),
        (-8, -8, Some(0)),
        // Residuals climbing 1 or falling 1 a partition: 67 over a line.
        (8, 7, Some(0)),
        (-9, -8, Some(0)),
        (9, 7, Some(1)),
        (-10, -8, Some(1)),
        (23, 7, None),
    ]);
    assert_eq!(Line::<5>::SLOPES, (-(1 << 14), (1 << 14) - 1));
    at_width::<5>(&[
        (-256, -(1 << 14), Some(0)),
        // 256 a partition is one unit past the field: the residuals
        // climb `⌈i/64⌉`, 2 over a line.
        (256, (1 << 14) - 1, Some(0)),
        (200, 200 << 6, Some(0)),
        (257, (1 << 14) - 1, Some(2)),
        (-257, -(1 << 14), Some(2)),
        (258, (1 << 14) - 1, Some(3)),
        (260, (1 << 14) - 1, None),
    ]);
}

#[test]
fn a_short_last_line_of_every_length() {
    fn at_width<const BITS: u32>() {
        let (line, pairs) = (Line::<BITS>::LINE, Line::<BITS>::PAIRS);
        // Two whole lines and a last one of 1 to `PAIRS` pairs — `PAIRS` is
        // whole. Its padding is copies of its last drift, and its slope
        // runs to the last of them.
        for last in 1..=pairs {
            let drifts = climbing(7, 2 * pairs + last + 1);
            let packed = pack::<BITS>(&drifts);
            assert_eq!(packed.lines.len(), 3, "{last} pairs");
            assert_eq!(packed.size_bytes(), 192, "{last} pairs");
            assert_eq!(packed.shifted_lines(), 0, "{last} pairs");
            // Escaped by its last drift, past what a shift fits: `LINE`
            // patches, the padding included.
            let mut spiked = drifts.clone();
            *spiked.last_mut().unwrap() += 3_000;
            let packed = pack::<BITS>(&spiked);
            assert_eq!(packed.patches(), line, "{last} pairs");
            assert!(packed.patches[last..]
                .iter()
                .all(|&delta| delta == spiked[spiked.len() - 1]));
        }
        // Arrays of no, one and two drifts.
        assert_eq!(pack::<BITS>(&[]).len, 0);
        assert_eq!(pack::<BITS>(&[]).size_bytes(), 0);
        assert_eq!(pack::<BITS>(&[5]).size_bytes(), 64);
        assert_eq!(pack::<BITS>(&[5, 0]).size_bytes(), 64);
        assert_eq!(pack::<BITS>(&[i32::MAX, 0]).patches(), line);
    }
    at_width::<7>();
    at_width::<5>();
}

#[test]
fn a_short_padded_last_line_takes_the_slope_to_its_last_drift() {
    // A last line of 10 pairs climbing 3 a partition, then copies of its
    // last drift: its slope runs from its first drift to the padding's
    // 30 across all `PAIRS` pairs, not across its 10. At seven bits that
    // rounds to 0, at five to 21/64, and under either the line is exact
    // and serves its windows of 4 records.
    fn at_width<const BITS: u32>(slope: i32) {
        let pairs = Line::<BITS>::PAIRS;
        let n = 2 * pairs + 10;
        let drifts: Vec<i32> = (0..=n)
            .map(|k| 3 * k.saturating_sub(2 * pairs) as i32)
            .collect();
        let packed = pack::<BITS>(&drifts);
        assert_eq!(Line::<BITS>::endpoint_slope(0, 30), slope);
        assert_eq!(
            (packed.lines[2].slope(), packed.shift(n - 1)),
            (slope, Some(0))
        );
        for (k, &delta) in drifts.iter().enumerate().take(n).skip(2 * pairs) {
            assert_eq!(packed.pair(k), Some((k, delta, 4)), "pair {k}");
        }
    }
    at_width::<7>(0);
    at_width::<5>(21);
}

#[test]
fn a_shifted_short_last_line_ends_at_the_column() {
    // The last window of a layer ends at the end's drift of 0. A spread
    // of `(2^b − 1)·2^s − 1` rounds that drift down by `2^s − 1`, and the
    // window, widened by as much, ends exactly at `n`: the short last
    // line is shifted. One record more rounds it down by `2^s` under the
    // next shift, the window would end past `n`, and the line is escaped.
    fn at_width<const BITS: u32>(keys_at_shift: [(usize, u32); 3]) {
        let pairs = Line::<BITS>::PAIRS;
        let n = 40 * pairs + 30;
        for (keys, shift) in keys_at_shift {
            let packed = pack::<BITS>(&a_long_last_window(n, keys));
            let last = packed.lines.len() - 1;
            assert_eq!(packed.shift(n - 1), Some(shift), "{keys} keys");
            assert_eq!(packed.lines[last].slope(), 0, "{keys} keys");
            assert_eq!(packed.patches(), 0, "{keys} keys");
            let (_, delta, len) = packed.pair(n - 1).unwrap();
            let start = (n - 1).wrapping_add_signed(delta as isize);
            assert_eq!((start, start + len), (n - keys, n), "{keys} keys");
            assert!(packed.lines[..last].iter().all(|line| line.shift() == 0));
            let packed = pack::<BITS>(&a_long_last_window(n, keys + 1));
            assert_eq!(packed.shift(n - 1), None, "{} keys", keys + 1);
            assert_eq!(packed.patches(), Line::<BITS>::LINE, "{} keys", keys + 1);
        }
        // A spread of `2^b − 2` needs no shift.
        let keys = Line::<BITS>::ESCAPE as usize;
        assert_eq!(
            pack::<BITS>(&a_long_last_window(n, keys)).shift(n - 1),
            Some(0)
        );
    }
    at_width::<7>([(254, 1), (508, 2), (1_016, 3)]);
    at_width::<5>([(62, 1), (124, 2), (248, 3)]);
}

/// One long window in line 1 spreads it `spread`: at most
/// `(2^b − 1)·2^s − 1` fits shift `s`, one more takes the next, and past
/// `(2^b − 1)·8 − 1` the line is escaped. Every other line keeps shift 0.
#[cfg(test)]
fn the_least_shift_that_fits<const BITS: u32>(edges: [(usize, Option<u32>); 8]) {
    let at = Line::<BITS>::PAIRS + 20;
    for (spread, shift) in edges {
        let n = at + spread + 200;
        let drifts = spike(n, at, spread);
        let packed = pack::<BITS>(&drifts);
        assert_eq!(packed.shift(at), shift, "spread {spread}");
        let shifted = usize::from(shift.is_some_and(|s| s > 0));
        assert_eq!(packed.shifted_lines(), shifted, "spread {spread}");
        let escaped = usize::from(shift.is_none());
        assert_eq!(
            packed.patches(),
            Line::<BITS>::LINE * escaped,
            "spread {spread}"
        );
        // The long window of `spread + 1` records: its start is exact,
        // its end rounded up to less than one unit of the shift past it.
        let unit = 1 << shift.unwrap_or(0);
        let (_, start, len) = packed.pair(at - 1).unwrap();
        assert_eq!(start, 0, "spread {spread}");
        assert!((0..unit).contains(&(len - spread - 1)), "spread {spread}");
    }
}

#[test]
fn spreads_at_each_shifts_edge_take_the_least_shift_that_fits() {
    the_least_shift_that_fits::<7>([
        (126, Some(0)),
        (127, Some(1)),
        (253, Some(1)),
        (254, Some(2)),
        (507, Some(2)),
        (508, Some(3)),
        (1_015, Some(3)),
        (1_016, None),
    ]);
}

#[test]
fn five_bit_spreads_at_each_shifts_edge_take_the_least_shift_that_fits() {
    the_least_shift_that_fits::<5>([
        (30, Some(0)),
        (31, Some(1)),
        (61, Some(1)),
        (62, Some(2)),
        (123, Some(2)),
        (124, Some(3)),
        (247, Some(3)),
        (248, None),
    ]);
}

#[test]
fn patches_in_the_first_a_middle_and_the_short_last_block() {
    fn at_width<const BITS: u32>() {
        let (line_len, pairs) = (Line::<BITS>::LINE, Line::<BITS>::PAIRS);
        // Three lines, the last of 30 pairs.
        let len = 2 * pairs + 31;
        let clean = climbing(-100, len);
        for line in 0..3 {
            // A spike off the seams escapes its own line only; its drifts
            // go to the patch array — the short last line's padded with
            // copies of its last — and its base says where.
            let mut drifts = clean.clone();
            drifts[line * pairs + 20] = 8_000_000;
            let packed = pack::<BITS>(&drifts);
            let own = &drifts[line * pairs..len.min(line * pairs + line_len)];
            assert_eq!(packed.patches[..own.len()], *own, "line {line}");
            assert_eq!(packed.patches(), line_len, "line {line}");
            assert_eq!(packed.lines[line].patch_slot(), 0, "line {line}");
            let at = line * pairs + 19;
            let len = (1 + 8_000_000 - drifts[at]) as usize;
            assert_eq!(packed.pair(at), Some((at, drifts[at], len)), "line {line}");
        }
        // All three, each spreading past what a shift fits with no window
        // inside the column to shift: each base is its first slot.
        let mut drifts = clean.clone();
        for line in 0..3 {
            drifts[line * pairs + 1] = -300;
        }
        let packed = pack::<BITS>(&drifts);
        let bases: Vec<usize> = packed.lines.iter().map(Line::patch_slot).collect();
        assert_eq!(bases, [0, line_len, 2 * line_len]);
        // A spike on a seam escapes both lines that hold it.
        let mut drifts = clean;
        drifts[2 * pairs] = 1 << 30;
        let packed = pack::<BITS>(&drifts);
        assert_eq!(packed.patches[..line_len], drifts[pairs..][..line_len]);
        assert_eq!(packed.patches[line_len..][..31], drifts[2 * pairs..]);
    }
    at_width::<7>();
    at_width::<5>();
}

#[test]
fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
    // A drift `2^b − 2` past the rest is stored in place, unshifted and
    // exact — and with it the window it ends or starts, however long. At
    // the array's first and last drift one line holds it, at a seam two
    // do. These drifts start no window inside the column, so a line
    // spreading `2^b − 1` under either slope is not shifted but escaped.
    fn at_width<const BITS: u32>() {
        let (pairs, top) = (Line::<BITS>::PAIRS, Line::<BITS>::ESCAPE as i32 - 1);
        let base = -7_000;
        let len = 3 * pairs + 1;
        let ends: [(usize, &[usize]); 3] = [(0, &[0]), (pairs, &[0, 1]), (len - 1, &[2])];
        for (at, lines) in ends {
            let mut drifts = vec![base; len];
            drifts[at] = base + top;
            let packed = pack::<BITS>(&drifts);
            assert_eq!(packed.patches(), 0, "{at}");
            assert_eq!(packed.delta(at), base + top, "{at}");
            for &line in lines {
                assert_eq!(packed.lines[line].shift(), 0, "{at}");
                let slot = at - line * pairs;
                assert_eq!(packed.lines[line].drift(slot), (base + top).into(), "{at}");
            }
            let escaped = Line::<BITS>::LINE * lines.len();
            drifts[at] = base + top + 1;
            assert_eq!(pack::<BITS>(&drifts).patches(), escaped, "{at}");
            // The spread measured from the other end: a drift below.
            drifts[at] = base - top - 1;
            assert_eq!(pack::<BITS>(&drifts).patches(), escaped, "{at}");
        }
    }
    at_width::<7>();
    at_width::<5>();
}

#[test]
fn a_low_outlier_is_the_base_and_patches_its_block() {
    // The base is the line's least residual: one drift far below the rest
    // pushes the others past an offset, and the line — starting no
    // window inside the column — is escaped.
    let mut drifts = vec![500; 2 * PAIRS + 1];
    drifts[2] = 100;
    let packed = pack::<7>(&drifts);
    assert_eq!(packed.lines[0].patch_slot(), 0);
    assert_eq!(packed.lines[1].base(), 500);
    assert_eq!(packed.patches, drifts[..LINE]);
    assert_eq!(packed.delta(2), 100);
    // Within an offset of the rest, it is the base of a line in place.
    drifts[2] = 400;
    let packed = pack::<7>(&drifts);
    assert_eq!(packed.lines[0].base(), 400);
    let offsets = [0, 1, 2].map(|slot| packed.lines[0].offset(slot));
    assert_eq!(offsets, [100, 100, 0]);
}

#[test]
fn bases_reach_both_ends_of_i32() {
    fn at_width<const BITS: u32>() {
        let top = Line::<BITS>::ESCAPE as i32 - 1;
        // A base in place has 30 bits: both of their ends are stored in
        // place, shift 0 beside them.
        let (min, max) = (-(1 << 29), (1 << 29) - 1);
        let drifts = [min, min + top, min + 3];
        let packed = pack::<BITS>(&drifts);
        assert_eq!((packed.lines[0].base(), packed.lines[0].shift()), (min, 0));
        assert_eq!(packed.patches(), 0);
        assert_eq!(pack::<BITS>(&[max, max - top]).patches(), 0);
        // One past them, and the ends of `i32`, are escaped and exact.
        let escaped = |drifts: &[i32]| pack::<BITS>(drifts).patches[..drifts.len()].to_vec();
        assert_eq!(escaped(&[min - 1, min + 3]), [min - 1, min + 3]);
        assert_eq!(escaped(&[max + 1, max + 5]), [max + 1, max + 5]);
        let drifts = [i32::MIN, i32::MIN + top, i32::MIN + 3];
        assert_eq!(escaped(&drifts), drifts);
        // A line spanning the whole of `i32`: the spread is taken without
        // overflow, and does not fit.
        let drifts = [i32::MIN, i32::MAX, -1];
        assert_eq!(escaped(&drifts), drifts);
        // Drifts climbing past 30 bits keep slope 0: their residuals would
        // wrap.
        let climb: Vec<i32> = (0..4).map(|i| i32::MAX - 3 + i).collect();
        assert_eq!(escaped(&climb), climb);
        // The extremes a layer over `MAX_KEYS` keys can hold come back as
        // they are.
        let max = crate::entry::MAX_KEYS as i32;
        let drifts = [max, -max, 0, max];
        assert_eq!(escaped(&drifts), drifts);
        let drifts = [-max, -max + top, -max];
        assert_eq!(pack::<BITS>(&drifts).lines[0].base(), -max);
    }
    at_width::<7>();
    at_width::<5>();
}

#[test]
fn five_bits_are_kept_up_to_one_inexact_line_in_16() {
    // 64 five-bit lines of climbing drifts, exact under their slopes at
    // both widths: a budget of 4 inexact lines. Raising one drift inside
    // a line by 70 spreads its residuals past 30, so that line is shifted
    // at five bits and exact at seven.
    let pairs = Line::<5>::PAIRS;
    let len = 64 * pairs + 1;
    let clean = climbing(-50, len);
    for spiked in 0..=5 {
        let mut drifts = clean.clone();
        for line in 0..spiked {
            drifts[(10 * line + 3) * pairs + 40] += 70;
        }
        let packed = Packed::from_drifts(&drifts);
        let bits = if spiked <= 4 { 5 } else { 7 };
        assert_eq!(packed.offset_bits(), bits, "{spiked} spiked");
        let inexact = if bits == 5 { spiked } else { 0 };
        let five = lines_of::<5>(&drifts);
        assert_eq!(five.inexact, spiked, "{spiked} spiked");
        assert_eq!(packed.shifted_lines() + packed.patches() / 93, inexact);
    }
    // A layer of fewer than 16 lines has no budget: one inexact line
    // keeps seven bits, none five.
    let drifts = climbing(0, 15 * pairs + 1);
    assert_eq!(Packed::from_drifts(&drifts).offset_bits(), 5);
    let mut spiked = drifts;
    spiked[500] += 70;
    assert_eq!(Packed::from_drifts(&spiked).offset_bits(), 7);
    // The empty array and the array of one drift.
    assert_eq!(Packed::from_drifts(&[]).offset_bits(), 5);
    assert_eq!(Packed::from_drifts(&[3]).size_bytes(), 64);
}

#[test]
fn the_budget_is_spent_at_the_first_inexact_line_past_it() {
    // Every 40th drift raised by 70: every five-bit line inexact, a budget
    // of 4 over 64 lines. The fifth line spends it, whole lines appended
    // one at a time or all at once.
    let pairs = Line::<5>::PAIRS;
    let drifts = climbing(0, 64 * pairs + 1)
        .iter()
        .enumerate()
        .map(|(k, &delta)| delta + if k % 40 == 20 { 70 } else { 0 })
        .collect::<Vec<_>>();
    let mut five = Lines::<5>::budgeted(drifts.len() - 1);
    for line in 0..5 {
        assert!(!five.spent(), "{line} inexact lines are in the budget");
        five.extend(&drifts[pairs * line..=pairs * (line + 1)]);
    }
    assert!(five.spent(), "the fifth is past it");
    let all = Lines::<5>::budgeted(drifts.len() - 1).with(&drifts);
    assert!(all.spent() && all.lines == lines_of::<5>(&drifts).lines);
    assert!(Packed::from_drifts(&drifts) == Packed::Seven(lines_of::<7>(&drifts)));
}
