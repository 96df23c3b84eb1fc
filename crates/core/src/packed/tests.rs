//! Tests of the packed lines at both widths and of the width rule. The
//! helpers that assert carry `#[cfg(test)]` of their own: shift-lint masks
//! test items, not test files.

use super::*;

/// The seven-bit line's drifts and pairs.
const LINE: usize = Line::<7>::LINE;
const PAIRS: usize = Line::<7>::PAIRS;

/// How line `j` of `drifts`, the layer over `drifts.len() − 1` keys, is
/// stored at `BITS` bits: `Some((base, shift))` in place, `None` escaped.
/// The shift rule, restated from the drifts alone: the least `s` with
/// `spread ≤ (2^BITS − 1)·2^s − 1`, and the line is escaped exactly when
/// that `s > 3`, when a window it would serve overhangs the column, or
/// when its minimum does not fit 30 bits.
#[cfg(test)]
pub(crate) fn expected_line<const BITS: u32>(drifts: &[i32], j: usize) -> Option<(i32, u32)> {
    let (line, pairs) = (Line::<BITS>::LINE, Line::<BITS>::PAIRS);
    let own = &drifts[pairs * j..drifts.len().min(pairs * j + line)];
    let (min, max) = (*own.iter().min().unwrap(), *own.iter().max().unwrap());
    let spread = i64::from(max) - i64::from(min);
    let units = (1i64 << BITS) - 1;
    let shift = (0u32..).find(|&s| spread < units << s).unwrap();
    if shift > 3 || !(-(1 << 29)..1 << 29).contains(&min) {
        return None;
    }
    let stored = |i: usize| {
        let offset = (i64::from(own[i]) - i64::from(min)) >> shift << shift;
        i64::from(min) + offset
    };
    let column = drifts.len() as i64 - 1;
    let inside = (0..own.len() - 1).all(|i| {
        let k = (pairs * j + i) as i64;
        let start = k + stored(i);
        let end = k + 1 + stored(i + 1) + (1i64 << shift) - 1;
        start >= 0 && start.max(end) <= column
    });
    (shift == 0 || inside).then_some((min, shift))
}

/// Offset `slot` of `line` and its base word, read bit by bit as the
/// layout puts them: offset `i` at bits `BITS·i..BITS·i + BITS` from byte 0
/// on, LSB first, the base word little-endian in bytes `60..64`.
#[cfg(test)]
fn restated<const BITS: u32>(line: &Line<BITS>, slot: usize) -> (u32, u32) {
    let bit = |at: usize| u32::from(line.0[at / 8] >> (at % 8) & 1);
    let offset = (0..BITS as usize)
        .map(|b| bit(BITS as usize * slot + b) << b)
        .sum();
    let word = (0..32).map(|b| bit(480 + b) << b).sum();
    (offset, word)
}

/// `drifts` at `BITS` bits in one call: the layer over
/// `drifts.len() − 1` keys.
#[cfg(test)]
fn lines_of<const BITS: u32>(drifts: &[i32]) -> Lines<BITS> {
    Lines::new(drifts.len().saturating_sub(1)).with(drifts)
}

/// Pack `drifts` at `BITS` bits and check what holds of every packed
/// array: feeding them a line or three lines a call reaches the same array, every
/// offset and base sits at the bits the layout says and the bits past the
/// last offset are clear, a line's last drift is the next line's first,
/// every line is shifted or escaped by the shift rule
/// ([`expected_line`]), the patch array holds the escaped lines' drifts,
/// every drift of a line in place is its offset rounded down to its shift
/// — exact at shift 0 — and every pair serves a window that holds the
/// exact one and overhangs each of its ends by less than `2^s`.
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
            let (offset, word) = restated(line, slot);
            assert_eq!((line.offset(slot), line.word()), (offset, word), "line {j}");
            assert_eq!(offset == escape, line.is_escaped(), "line {j} slot {slot}");
        }
        let bit = |at: usize| line.0[at / 8] >> (at % 8) & 1;
        let padding = BITS as usize * line_len..8 * OFFSET_BYTES;
        assert!(padding.clone().all(|at| bit(at) == 0), "line {j}: padding");
        match expected_line::<BITS>(drifts, j) {
            Some((base, shift)) => {
                assert!(!line.is_escaped(), "line {j}");
                assert_eq!((line.base(), line.shift()), (base, shift), "line {j}");
                shifted_lines += usize::from(shift > 0);
            }
            None => {
                assert!(line.is_escaped(), "line {j}");
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
            let unit = unit(i);
            let rounded = |delta: i32| match expected_line::<BITS>(drifts, i / pairs) {
                Some((base, shift)) => base + ((delta - base) >> shift << shift),
                None => delta,
            };
            let start = rounded(delta);
            let end = i64::from(rounded(drifts[i + 1])) + i64::from(unit) - 1;
            let len = (1 + end - i64::from(start)).max(0) as usize;
            assert_eq!(packed.pair(i), Some((i, start, len)), "pair {i}");
            assert!(start <= delta && delta - start < unit, "pair {i}");
            let next = i64::from(drifts[i + 1]);
            assert!(end >= next && end - next < i64::from(unit), "pair {i}");
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

/// `len` drifts climbing by 1 every other partition from `from`: windows
/// of 1 and 2 records, a line spreading under 62 at either width.
#[cfg(test)]
fn climbing(from: i32, len: usize) -> Vec<i32> {
    (0..len as i32).map(|i| from + i / 2).collect()
}

/// The `n + 1` drifts of one long window: partition `at` starts at `at`
/// and holds `spread + 1` records, so every drift after its own is
/// `spread` — the line holding both spreads `spread`, every other none.
#[cfg(test)]
fn one_step(n: usize, at: usize, spread: usize) -> Vec<i32> {
    (0..=n)
        .map(|k| if k <= at { 0 } else { spread as i32 })
        .collect()
}

/// The drifts of a layer over `n` keys whose last partition holds
/// `keys` of them, the partitions before it one key each while they
/// last and empty after: its last line spreads `keys − 1`, from the
/// last partition's `1 − keys` to the end's 0.
#[cfg(test)]
fn a_long_last_window(n: usize, keys: usize) -> Vec<i32> {
    let last = n - keys;
    (0..=n)
        .map(|k| match k {
            k if k < last => 0,
            k if k < n => last as i32 - k as i32,
            _ => 0,
        })
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
        pack::<6>(&drifts);
    }
}

#[test]
fn random_layers_of_clustered_windows_shift_their_wide_lines() {
    // The layers of monotone models over random columns: keys crowd
    // into clusters of up to 3 000, so lines spread anywhere from 0 to
    // past what a shift fits — in place, shifted and escaped — and every
    // window they serve lies inside the column, at both widths.
    use sosd_data::rng::SplitMix64;
    let mut rng = SplitMix64::new(0x5A1F7);
    let mut shifted = [0; 2];
    for _ in 0..30 {
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
        for (width, packed) in [pack_seven(&drifts), Packed::Six(pack::<6>(&drifts))]
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
    let shifted = pack::<BITS>(&one_step(1_000, 70, 300));
    assert_eq!(shifted.shifted_lines(), 1);
    assert_eq!(shifted.size_bytes(), 64 * Lines::<BITS>::line_count(1_001));
}

#[test]
fn a_line_is_64_bytes_for_67_pairs() {
    // 67 pairs are 68 drifts: one line. An escaped line, spreading past
    // 1 015, costs 272 bytes more.
    assert_eq!((LINE, PAIRS), (68, 67));
    a_line_is_64_bytes::<7>();
    assert_eq!(pack::<7>(&one_step(1_000, 70, 600)).size_bytes(), 64 * 15);
}

#[test]
fn a_six_bit_line_is_64_bytes_for_79_pairs() {
    // 79 pairs are 80 drifts, all 480 bits in front of the base. An
    // escaped line, spreading past 503, costs 320 bytes more.
    assert_eq!((Line::<6>::LINE, Line::<6>::PAIRS), (80, 79));
    a_line_is_64_bytes::<6>();
    assert_eq!(pack::<6>(&one_step(1_000, 70, 300)).size_bytes(), 64 * 13);
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
    // drift `PAIRS` is in both.
    assert_eq!(packed.lines[0].offset(pairs), (pairs / 2) as u32);
    assert_eq!(packed.lines[1].base(), drifts[pairs]);
    assert_eq!(packed.lines[1].offset(0), 0);
    for seam in (pairs..drifts.len() - 1).step_by(pairs) {
        let (line, next) = (&packed.lines[seam / pairs - 1], &packed.lines[seam / pairs]);
        let shared = line.base() + line.offset(pairs) as i32;
        assert_eq!(
            (shared, next.base()),
            (drifts[seam], drifts[seam]),
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
fn six_bit_pairs_at_78_79_80_157_158_159_and_every_seam_come_from_one_line() {
    seams::<6>();
}

/// Pair `PAIRS − 1` of a line loads the last offsets' bytes and the
/// base's low ones. A base of −1 sets every bit of those, and the fetch
/// still reads the two offsets alone — at every shift, `edges` giving
/// each one's largest spread, in place beside an escaped line and from
/// the escaped line's own last slot.
#[cfg(test)]
fn the_last_slot_drops_the_base_bytes<const BITS: u32>(edges: [(usize, u32); 4]) {
    let pairs = Line::<BITS>::PAIRS;
    let at = 2 * pairs - 1;
    for (spread, shift) in edges {
        // Partition `at`, line 1's last slot, holds `spread + 1` keys,
        // every partition from 1 on starts one record early, and a spike
        // escapes line 2.
        let n = at + 1_100 + pairs;
        let mut drifts = one_step(n, at, spread);
        drifts[1..].iter_mut().for_each(|delta| *delta -= 1);
        drifts[2 * pairs + 30] = 8_000_000;
        let packed = pack::<BITS>(&drifts);
        let tag = format!("spread {spread}");
        assert_eq!(packed.lines[1].0[OFFSET_BYTES], 0xFF, "{tag}");
        assert_eq!(packed.lines[1].base(), -1, "{tag}");
        assert_eq!(packed.shift(at), Some(shift), "{tag}");
        assert_eq!(packed.shift(at + 1), None, "{tag}");
        assert_eq!(packed.patches(), Line::<BITS>::LINE, "{tag}");
        // The long window, its end rounded up to a whole unit.
        let len = ((spread >> shift) + 1) << shift;
        assert_eq!(packed.pair(at), Some((at, -1, len)), "{tag}");
        // The last slot of the escaped line: two patches.
        let last = 3 * pairs - 1;
        let len = (1 + drifts[last + 1] - drifts[last]) as usize;
        assert_eq!(packed.pair(last), Some((last, drifts[last], len)), "{tag}");
    }
}

#[test]
fn a_fetch_from_slot_66_drops_the_base_bytes_at_every_shift_and_beside_an_escape() {
    // Slot 66 loads bytes 57..61.
    the_last_slot_drops_the_base_bytes::<7>([(126, 0), (253, 1), (507, 2), (1_015, 3)]);
}

#[test]
fn a_fetch_from_slot_78_drops_the_base_bytes_at_every_shift_and_beside_an_escape() {
    // Slot 78 loads bytes 58..62: the base's two low bytes.
    the_last_slot_drops_the_base_bytes::<6>([(62, 0), (125, 1), (251, 2), (503, 3)]);
}

#[test]
fn a_short_last_line_of_every_length() {
    fn at_width<const BITS: u32>() {
        let (line, pairs) = (Line::<BITS>::LINE, Line::<BITS>::PAIRS);
        // Two whole lines and a last one of 1 to `PAIRS` pairs — `PAIRS` is
        // whole.
        for last in 1..=pairs {
            let drifts = climbing(7, 2 * pairs + last + 1);
            let packed = pack::<BITS>(&drifts);
            assert_eq!(packed.lines.len(), 3, "{last} pairs");
            assert_eq!(packed.size_bytes(), 192, "{last} pairs");
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
    at_width::<6>();
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
            assert_eq!(packed.patches(), 0, "{keys} keys");
            let (_, delta, len) = packed.pair(n - 1).unwrap();
            let start = (n - 1).wrapping_add_signed(delta as isize);
            assert_eq!((start, start + len), (n - keys, n), "{keys} keys");
            // At six bits the run of empty partitions before it spreads
            // each line it fills 79, shifting it.
            if BITS == 7 {
                assert!(packed.lines[..last].iter().all(|line| line.shift() == 0));
            }
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
    at_width::<6>([(126, 1), (252, 2), (504, 3)]);
}

/// One long window in line 1 spreads it `spread`: at most
/// `(2^b − 1)·2^s − 1` fits shift `s`, one more takes the next, and past
/// `(2^b − 1)·8 − 1` the line is escaped. Every other line keeps shift 0.
#[cfg(test)]
fn the_least_shift_that_fits<const BITS: u32>(edges: [(usize, Option<u32>); 8]) {
    let at = Line::<BITS>::PAIRS + 20;
    for (spread, shift) in edges {
        let n = at + spread + 200;
        let drifts = one_step(n, at, spread);
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
        let (_, start, len) = packed.pair(at).unwrap();
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
fn six_bit_spreads_at_each_shifts_edge_take_the_least_shift_that_fits() {
    the_least_shift_that_fits::<6>([
        (62, Some(0)),
        (63, Some(1)),
        (125, Some(1)),
        (126, Some(2)),
        (251, Some(2)),
        (252, Some(3)),
        (503, Some(3)),
        (504, None),
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
    at_width::<6>();
}

#[test]
fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
    // An offset of `2^b − 2` is stored in place, unshifted — and with it
    // the window it ends or starts, however long. At the array's first
    // and last drift one line holds it, at a seam two do. These drifts
    // start no window inside the column, so a line spreading `2^b − 1` is
    // not shifted but escaped.
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
            for &line in lines {
                assert_eq!(packed.lines[line].base(), base, "{at}");
                assert_eq!(packed.lines[line].shift(), 0, "{at}");
                let slot = at - line * pairs;
                assert_eq!(packed.lines[line].offset(slot), top as u32, "{at}");
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
    at_width::<6>();
}

#[test]
fn a_low_outlier_is_the_base_and_patches_its_block() {
    // The base is the line's minimum: one drift far below the rest
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
        // The extremes a layer over `MAX_KEYS` keys can hold come back as
        // they are.
        let max = crate::entry::MAX_KEYS as i32;
        let drifts = [max, -max, 0, max];
        assert_eq!(escaped(&drifts), drifts);
        let drifts = [-max, -max + top, -max];
        assert_eq!(pack::<BITS>(&drifts).lines[0].base(), -max);
    }
    at_width::<7>();
    at_width::<6>();
}

#[test]
fn six_bits_are_kept_up_to_one_inexact_line_in_32() {
    // 64 six-bit lines of climbing drifts, exact at both widths: a budget
    // of 2 inexact lines. Raising one drift of a line by 70 spreads it
    // past 62, so that line is shifted at six bits and exact at seven.
    let pairs = Line::<6>::PAIRS;
    let len = 64 * pairs + 1;
    let clean = climbing(-50, len);
    for spiked in 0..=3 {
        let mut drifts = clean.clone();
        for line in 0..spiked {
            drifts[(10 * line + 3) * pairs + 40] += 70;
        }
        let packed = Packed::from_drifts(&drifts);
        let bits = if spiked <= 2 { 6 } else { 7 };
        assert_eq!(packed.offset_bits(), bits, "{spiked} spiked");
        let inexact = if bits == 6 { spiked } else { 0 };
        let six = lines_of::<6>(&drifts);
        assert_eq!(six.inexact, spiked, "{spiked} spiked");
        assert_eq!(packed.shifted_lines() + packed.patches() / 80, inexact);
    }
    // A layer of fewer than 32 lines has no budget: one inexact line
    // keeps seven bits, none six.
    let drifts = climbing(0, 31 * pairs + 1);
    assert_eq!(Packed::from_drifts(&drifts).offset_bits(), 6);
    let mut spiked = drifts;
    spiked[500] += 70;
    assert_eq!(Packed::from_drifts(&spiked).offset_bits(), 7);
    // The empty array and the array of one drift.
    assert_eq!(Packed::from_drifts(&[]).offset_bits(), 6);
    assert_eq!(Packed::from_drifts(&[3]).size_bytes(), 64);
}

#[test]
fn the_budget_is_spent_at_the_first_inexact_line_past_it() {
    // Every 40th drift raised by 70: every six-bit line inexact, a budget
    // of 2 over 64 lines. The third line spends it, whole lines appended
    // one at a time or all at once.
    let pairs = Line::<6>::PAIRS;
    let drifts = climbing(0, 64 * pairs + 1)
        .iter()
        .enumerate()
        .map(|(k, &delta)| delta + if k % 40 == 20 { 70 } else { 0 })
        .collect::<Vec<_>>();
    let mut six = Lines::<6>::budgeted(drifts.len() - 1);
    for line in 0..3 {
        assert!(!six.spent(), "{line} inexact lines are in the budget");
        six.extend(&drifts[pairs * line..=pairs * (line + 1)]);
    }
    assert!(six.spent(), "the third is past it");
    let all = Lines::<6>::budgeted(drifts.len() - 1).with(&drifts);
    assert!(all.spent() && all.lines == lines_of::<6>(&drifts).lines);
    assert!(Packed::from_drifts(&drifts) == Packed::Seven(lines_of::<7>(&drifts)));
}
