//! Tests of the packed lines, their slopes and the near-end guard on
//! shifted lines. The packing rule they check against is restated in
//! `rule`, the drift arrays they feed in `drifts`. The helpers that assert
//! carry `#[cfg(test)]` of their own: shift-lint masks test items, not
//! test files.

use super::*;

mod drifts;
mod rule;

use drifts::*;
use rule::*;
pub(crate) use rule::{assert_no_wider_than_plain, pack};

/// A line's drifts and pairs.
const LINE: usize = Line::LINE;
const PAIRS: usize = Line::PAIRS;

#[test]
fn random_entries_come_back_with_exact_drift_and_a_count_no_shorter() {
    // A window is the difference of two neighbouring drifts: in a line
    // of unit 1 both come back exact, so it is served at its exact
    // length; in a shifted one it is served no shorter.
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
        pack(&drifts);
    }
}

#[test]
fn random_layers_of_clustered_windows_shift_their_wide_lines() {
    // The layers of monotone models over random columns: lines in place,
    // sloped, shifted and escaped, and every window they serve lies inside
    // the column. A sloped line is never worse than a plain one.
    let mut rng = sosd_data::rng::SplitMix64::new(0x5A1F7);
    let (mut shifted, mut sloped) = (0, 0);
    for round in 0..30 {
        let drifts = clustered(&mut rng);
        let n = drifts.len() - 1;
        assert_no_wider_than_plain(&drifts, &format!("round {round}"));
        let packed = pack(&drifts);
        sloped += packed.lines.iter().filter(|l| l.slope() != 0).count();
        shifted += packed.shifted_lines();
        for k in 0..n {
            let (_, delta, len) = packed.pair(k).unwrap();
            let start = k as i64 + i64::from(delta);
            assert!(
                0 <= start && start + len as i64 <= n as i64,
                "pair {k} of {n}"
            );
        }
    }
    assert!(shifted > 10, "{shifted} shifted lines");
    assert!(sloped > 10, "{sloped} sloped lines");
}

#[test]
fn the_near_end_guard_never_changes_a_line() {
    // A shifted line is packed without decoding its windows wherever its
    // first pair plus its least drift and its last pair plus its greatest
    // lie `u − 1` or more inside the column: every line
    // comes out bit for bit as when each shifted line's windows are
    // checked one by one — on random clustered layers, and where a first
    // or a last line is shifted next to position 0 or `N`, kept where its
    // rounded windows stay in the column and escaped where they would
    // leave it, at both ends.
    let mut rng = sosd_data::rng::SplitMix64::new(0x6A4D);
    let mut shifted = 0;
    for round in 0..40 {
        let drifts = clustered(&mut rng);
        let packed = lines_of(&drifts);
        assert!(packed == unguarded(&drifts), "round {round}");
        shifted += packed.shifted_lines();
    }
    assert!(shifted > 10, "{shifted} shifted lines");
    // Escaped by overhang: a unit fits the line's spread under slope 0.
    let overhang = |drifts: &[i32], j: usize, packed: &Lines| {
        packed.lines[j].is_escaped() && spread(drifts, j, 0) <= 239
    };
    // [first line kept shifted, first line escaped by overhang, last line
    // kept shifted, last line escaped by overhang]
    let mut seen = [0; 4];
    let n = 10 * PAIRS + 30;
    for empty in 0..12 {
        for spread in [31, 40, 70, 130, 200] {
            let drifts = leading_empty(n, empty, spread);
            let packed = lines_of(&drifts);
            let tag = format!("{empty} empty, spread {spread}");
            assert!(packed == unguarded(&drifts), "{tag}");
            seen[0] += usize::from(packed.unit(0).is_some_and(|u| u > 1));
            seen[1] += usize::from(overhang(&drifts, 0, &packed));
        }
    }
    for keys in 32..260 {
        let drifts = a_long_last_window(n, keys);
        let packed = lines_of(&drifts);
        assert!(packed == unguarded(&drifts), "{keys} keys");
        let last = packed.lines.len() - 1;
        seen[2] += usize::from(packed.unit(n - 1).is_some_and(|u| u > 1));
        seen[3] += usize::from(overhang(&drifts, last, &packed));
    }
    assert!(seen.iter().all(|&seen| seen > 0), "{seen:?}");
}

#[test]
fn a_four_bit_line_is_64_bytes_for_115_pairs() {
    // 115 pairs are 116 drifts, and two bits of the unit and a slope in
    // the 16 bits left: one line, however far they sit; one drift more is
    // a second line, `PAIRS` more still is. An escaped line, spreading past
    // 239, costs 236 bytes more — 464 where its drifts spread past
    // 65 535 — a shifted one nothing.
    assert_eq!((LINE, PAIRS), (116, 115));
    assert_eq!((Line::SLOPE_BITS, Line::FRACTION), (14, 6));
    let (line, pairs) = (LINE, PAIRS);
    assert_eq!(pack(&vec![1; line]).size_bytes(), 64);
    assert_eq!(pack(&vec![1_000_000; line]).size_bytes(), 64);
    assert_eq!(pack(&vec![1; line + 1]).size_bytes(), 128);
    assert_eq!(pack(&vec![1; line + pairs]).size_bytes(), 128);
    assert_eq!(pack(&vec![1; line + pairs + 1]).size_bytes(), 192);
    let mut drifts = vec![1; line + 1];
    drifts[9] = 1_017;
    assert_eq!(pack(&drifts).size_bytes(), 128 + 4 * SHORT_PATCH);
    assert_eq!(SHORT_PATCH, 59);
    drifts[9] = 65_537;
    assert_eq!(pack(&drifts).size_bytes(), 128 + 4 * line);
    let shifted = pack(&one_step(1_000, 70, 200));
    assert_eq!((shifted.shifted_lines(), shifted.unit(70)), (1, Some(14)));
    assert_eq!(shifted.size_bytes(), 64 * Lines::line_count(1_001));
    assert_eq!(shifted.size_bytes(), 64 * 9);
}

#[test]
fn a_line_is_64_bytes_for_67_pairs() {
    // 67 pairs, the 68 drifts a line of seven-bit offsets held, take 68 of
    // a line's 116 slots: one 64-byte line however far they sit, and the
    // pairs of fifteen such lines are nine. A spread of 126, which seven
    // bits held exactly, is one line of unit 9 and the same 64 bytes.
    for drifts in [vec![1; 68], vec![1_000_000; 68], climbing(-40, 68)] {
        let packed = pack(&drifts);
        assert_eq!((packed.lines.len(), packed.size_bytes()), (1, 64));
        assert_eq!((packed.shifted_lines(), packed.patches()), (0, 0));
    }
    assert_eq!(Lines::line_count(15 * 67 + 1), 9);
    assert_eq!(pack(&climbing(-40, 15 * 67 + 1)).size_bytes(), 64 * 9);
    let shifted = pack(&spike(15 * 67, 20, 126));
    assert_eq!(shifted.unit(20), Some(9));
    assert_eq!((shifted.shifted_lines(), shifted.size_bytes()), (1, 64 * 9));
    // A step of 600, which seven bits held exactly, spreads past 239
    // under either slope: the line escapes to a short patch.
    let escaped = pack(&one_step(1_000, 70, 600));
    assert_eq!(escaped.unit(70), None);
    assert_eq!(escaped.size_bytes(), 64 * 9 + 4 * SHORT_PATCH);
}

#[test]
fn four_bit_pairs_at_114_115_116_229_230_231_and_every_seam_come_from_one_line() {
    // Pairs either side of the first two seams and every seam of a
    // climbing array come from one line, the seam's drift stored in both.
    let pairs = Line::PAIRS;
    let drifts = climbing(-40, 5 * pairs + 1);
    let packed = pack(&drifts);
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
    // 67 and 134, the seams of lines of 67 pairs, sit inside lines 0 and
    // 1 of 115 pairs: both drifts of pairs 66..=68 are slots of line 0 and
    // those of 133..=135 slots of line 1, and every seam of 115 is still
    // served from one line.
    let drifts = climbing(-40, 5 * PAIRS + 1);
    let packed = pack(&drifts);
    let window = |k: usize| Some((k, drifts[k], (1 + drifts[k + 1] - drifts[k]) as usize));
    for (k, j) in [(66, 0), (67, 0), (68, 0), (133, 1), (134, 1), (135, 1)] {
        assert_eq!(k / PAIRS, j, "pair {k}");
        let (line, slot) = (&packed.lines[j], k % PAIRS);
        assert!(slot < PAIRS, "pair {k}");
        assert_eq!(
            (line.drift(slot), line.drift(slot + 1)),
            (i64::from(drifts[k]), i64::from(drifts[k + 1])),
            "pair {k}"
        );
        assert_eq!(packed.pair(k), window(k), "pair {k}");
    }
    for seam in (PAIRS..drifts.len() - 1).step_by(PAIRS) {
        for k in [seam - 1, seam] {
            assert_eq!(packed.pair(k), window(k), "seam {seam}");
        }
    }
}

#[test]
fn a_fetch_from_slot_114_drops_the_slope_bits_at_every_unit_and_beside_an_escape() {
    // Slot 114 loads bytes 57..61: offsets 114 and 115, the unit code's
    // two high bits, the slope's 14 bits and the base's low byte. A slope
    // of −1 and a base of −1 set every bit but the unit code's, which
    // units 5 to 16 set, and the fetch still reads the two offsets alone —
    // at units 1, 2, 4, 8 and 16, `edges` giving each one's largest
    // residual spread, in place beside an escaped line and from the
    // escaped line's own last slot.
    assert_eq!(BITS as usize * 114 / 8, 57);
    let edges: [(usize, u32); 5] = [(14, 1), (29, 2), (59, 4), (119, 8), (239, 16)];
    let pairs = Line::PAIRS;
    let at = 2 * pairs - 1;
    let rise = |slot: usize| Line::rise(-1, slot);
    for (spread, unit) in edges {
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
        let packed = pack(&drifts);
        let tag = format!("spread {spread}");
        let line = &packed.lines[1];
        assert_eq!((line.base(), line.slope()), (-1, -1), "{tag}");
        assert_eq!(line.0[OFFSET_BYTES], 0xFF, "{tag}");
        let field = u32::MAX << (32 - Line::SLOPE_BITS);
        assert_eq!(Line::word_at(&line.0, SLOPE_WORD) & field, field, "{tag}");
        let high = (unit - 1) >> 2;
        assert_eq!(
            (bit(line, 464), bit(line, 465)),
            (high & 1, high >> 1),
            "{tag}"
        );
        assert_eq!(packed.unit(at), Some(unit), "{tag}");
        assert_eq!(packed.unit(at + 1), None, "{tag}");
        assert_eq!(packed.patches(), Line::LINE, "{tag}");
        // The long window: its start exact, its end rounded up to a whole
        // unit past the line's fall across the pair.
        let fall = rise(pairs) - rise(pairs - 1);
        let len = fall + ((spread as u32 / unit + 1) * unit) as i32;
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
    // Slot 66, the last of a seven-bit line, whose load reached the base's
    // low byte, sits mid-line at four bits: it loads bytes 33..37, offsets
    // 66 and 67 below offsets 68..=73, short of the slope's and the base's
    // bytes. Line 1's residuals are −1 at slot 66 and `spread − 1`
    // everywhere else under slope −1, so every offset but slot 66's is
    // 14 — its bits set above the pair's — the slope field and the base
    // are −1, and the fetch still reads the two offsets alone: at units 1,
    // 2, 4, 8 and 16, in place beside an escaped line and from the escaped
    // line's own slot 66.
    let load = BITS as usize * 66 / 8;
    assert_eq!((load, BITS as usize * 66 % 8), (33, 0));
    assert!(load + 4 <= SLOPE_WORD);
    let at = PAIRS + 66;
    let rise = |slot: usize| Line::rise(-1, slot);
    for (spread, unit) in [(14, 1), (29, 2), (59, 4), (119, 8), (239, 16)] {
        let n = 3 * PAIRS + 1_100;
        let mut drifts = vec![0; n + 1];
        for slot in 0..=PAIRS {
            let residual = if slot == 66 { -1 } else { spread - 1 };
            drifts[PAIRS + slot] = residual + rise(slot);
        }
        drifts[0] = spread - 1;
        drifts[1..PAIRS].fill(-1);
        let last = drifts[2 * PAIRS];
        drifts[2 * PAIRS..].fill(last);
        drifts[2 * PAIRS + 30] = 8_000_000;
        let packed = pack(&drifts);
        let tag = format!("spread {spread}");
        let line = &packed.lines[1];
        assert_eq!((line.base(), line.slope()), (-1, -1), "{tag}");
        assert_eq!(line.0[OFFSET_BYTES], 0xFF, "{tag}");
        let word = Line::word_at(&line.0, load);
        assert_eq!(word & 0xFF, 14 << BITS, "{tag}");
        assert_eq!(word >> 8, 0xEE_EEEE, "{tag}");
        assert_eq!(packed.unit(at), Some(unit), "{tag}");
        assert_eq!(packed.unit(at + PAIRS), None, "{tag}");
        assert_eq!(packed.patches(), Line::LINE, "{tag}");
        for k in [at, at + PAIRS] {
            let len = (1 + drifts[k + 1] - drifts[k]) as usize;
            assert_eq!(packed.pair(k), Some((k, drifts[k], len)), "{tag} pair {k}");
        }
    }
}

#[test]
fn slopes_at_the_fields_edges_decode_every_drift_and_clamped_ones_shift_or_escape() {
    // Line 0 climbs `rate` records a partition and every line after it is
    // flat. A rate the field holds is one slope and the line is exact; a
    // rate past it is clamped to the field's edge, and the residuals climb
    // by the rest: a line exact, shifted or — past what a unit fits, as
    // it is without the slope — escaped. `pack` decodes every drift bit by
    // bit.
    let pairs = PAIRS as i32;
    let n = 30_000;
    assert_eq!(Line::SLOPES, (-(1 << 13), (1 << 13) - 1));
    let cases = [
        (-128, -(1 << 13), Some(1)),
        // 128 a partition is one 1/64 past the field: the residuals
        // climb `⌈i/64⌉`, 2 over a line.
        (128, (1 << 13) - 1, Some(1)),
        (100, 100 << 6, Some(1)),
        // 129 climbs `i + ⌈i/64⌉`, 117 over a line; −129 falls by `i`.
        (129, (1 << 13) - 1, Some(8)),
        (-129, -(1 << 13), Some(8)),
        (130, (1 << 13) - 1, Some(16)),
        (-130, -(1 << 13), Some(16)),
        (131, (1 << 13) - 1, None),
    ];
    for (rate, slope, unit) in cases {
        // Drifts that fall start high enough to keep every start in
        // the column.
        let from = (-rate * pairs).max(0);
        let drifts: Vec<i32> = (0..=n).map(|k: i32| from + rate * k.min(pairs)).collect();
        let packed = pack(&drifts);
        let tag = format!("rate {rate}");
        assert_eq!(packed.unit(0), unit, "{tag}");
        if unit.is_some() {
            assert_eq!(packed.lines[0].slope(), slope, "{tag}");
        }
        assert!(packed.lines[1..].iter().all(|line| line.slope() == 0));
    }
}

#[test]
fn a_short_last_line_of_every_length() {
    let (line, pairs) = (Line::LINE, Line::PAIRS);
    // Two whole lines and a last one of 1 to `PAIRS` pairs — `PAIRS` is
    // whole. Its padding is copies of its last drift, and its slope
    // runs to the last of them.
    for last in 1..=pairs {
        let drifts = climbing(7, 2 * pairs + last + 1);
        let packed = pack(&drifts);
        assert_eq!(packed.lines.len(), 3, "{last} pairs");
        assert_eq!(packed.size_bytes(), 192, "{last} pairs");
        assert_eq!(packed.shifted_lines(), 0, "{last} pairs");
        // Escaped by its last drift, past what a unit fits: a short
        // patch, the padding included.
        let mut spiked = drifts.clone();
        *spiked.last_mut().unwrap() += 3_000;
        let packed = pack(&spiked);
        assert_eq!(packed.patches(), SHORT_PATCH, "{last} pairs");
        let padding = (last..line).map(|slot| packed.patched(&packed.lines[2], slot));
        assert!(padding
            .clone()
            .all(|delta| delta == spiked[spiked.len() - 1]));
    }
    // Arrays of no, one and two drifts.
    assert_eq!(pack(&[]).len, 0);
    assert_eq!(pack(&[]).size_bytes(), 0);
    assert_eq!(pack(&[5]).size_bytes(), 64);
    assert_eq!(pack(&[5, 0]).size_bytes(), 64);
    assert_eq!(pack(&[i32::MAX, 0]).patches(), line);
}

#[test]
fn a_short_padded_last_line_takes_the_slope_to_its_last_drift() {
    // A last line of 100 pairs climbing 1 every fourth partition, then
    // copies of its last drift: its slope runs from its first drift to the
    // padding's 25 across all `PAIRS` pairs, not across its 100 — 14/64 —
    // and under it the line, which spreads 25 under slope 0, is exact and
    // serves its windows of 1 and 2 records.
    let n = 2 * PAIRS + 100;
    let drifts: Vec<i32> = (0..=n)
        .map(|k| k.saturating_sub(2 * PAIRS) as i32 / 4)
        .collect();
    let packed = pack(&drifts);
    assert_eq!(Line::endpoint_slope(0, 25), 14);
    assert_eq!((packed.lines[2].slope(), packed.unit(n - 1)), (14, Some(1)));
    for (k, &delta) in drifts.iter().enumerate().take(n).skip(2 * PAIRS) {
        let len = (1 + drifts[k + 1] - delta) as usize;
        assert_eq!(packed.pair(k), Some((k, delta, len)), "pair {k}");
    }
}

#[test]
fn a_shifted_short_last_line_ends_at_the_column() {
    // The last window of a layer ends at the end's drift of 0. A spread
    // of `15·u − 1` rounds that drift down by `u − 1`, and the window,
    // widened by as much, ends exactly at `n`: the short last line is
    // shifted. One record more takes unit `u + 1`, which rounds the drift
    // down by less than `u` (or no unit fits past 16): the window would
    // end past `n`, and the line is escaped.
    let n = 40 * PAIRS + 30;
    for (keys, unit) in [(30, 2), (45, 3), (60, 4), (120, 8), (240, 16)] {
        let packed = pack(&a_long_last_window(n, keys));
        let last = packed.lines.len() - 1;
        assert_eq!(packed.unit(n - 1), Some(unit), "{keys} keys");
        assert_eq!(packed.lines[last].slope(), 0, "{keys} keys");
        assert_eq!(packed.patches(), 0, "{keys} keys");
        let (_, delta, len) = packed.pair(n - 1).unwrap();
        let start = (n - 1).wrapping_add_signed(delta as isize);
        assert_eq!((start, start + len), (n - keys, n), "{keys} keys");
        assert!(packed.lines[..last].iter().all(|line| line.unit() == 1));
        let packed = pack(&a_long_last_window(n, keys + 1));
        assert_eq!(packed.unit(n - 1), None, "{} keys", keys + 1);
        assert_eq!(packed.patches(), SHORT_PATCH, "{} keys", keys + 1);
    }
    // A spread of 14 needs no unit past 1.
    let keys = Line::ESCAPE as usize;
    assert_eq!(pack(&a_long_last_window(n, keys)).unit(n - 1), Some(1));
}

#[test]
fn four_bit_spreads_at_each_units_edge_take_the_least_unit_that_fits() {
    // One long window in line 1 spreads it `spread`: at most `15·u − 1`
    // fits unit `u`, one more takes the next, and past `15·16 − 1` the
    // line is escaped. Every other line keeps unit 1.
    let mut edges: Vec<(usize, Option<u32>)> = (1..=16)
        .flat_map(|unit| {
            [
                (15 * unit as usize - 1, Some(unit)),
                (15 * unit as usize, Some(unit + 1)),
            ]
        })
        .collect();
    edges.pop();
    edges.push((240, None));
    assert_eq!(
        edges[..4],
        [(14, Some(1)), (15, Some(2)), (29, Some(2)), (30, Some(3))]
    );
    assert!(edges.contains(&(59, Some(4))) && edges.contains(&(60, Some(5))));
    assert!(edges.contains(&(119, Some(8))) && edges.contains(&(120, Some(9))));
    let at = PAIRS + 20;
    for (spread, unit) in edges {
        let n = at + spread + 200;
        let drifts = spike(n, at, spread);
        let packed = pack(&drifts);
        assert_eq!(packed.unit(at), unit, "spread {spread}");
        let shifted = usize::from(unit.is_some_and(|u| u > 1));
        assert_eq!(packed.shifted_lines(), shifted, "spread {spread}");
        let escaped = usize::from(unit.is_none());
        assert_eq!(packed.patches(), SHORT_PATCH * escaped, "spread {spread}");
        // The long window of `spread + 1` records: its start is exact,
        // its end rounded up to less than one unit past it.
        let unit = unit.unwrap_or(1) as usize;
        let (_, start, len) = packed.pair(at - 1).unwrap();
        assert_eq!(start, 0, "spread {spread}");
        assert!((0..unit).contains(&(len - spread - 1)), "spread {spread}");
    }
}

#[test]
fn spreads_at_each_shifts_edge_take_the_least_shift_that_fits() {
    // Every spread up to 1 016, one past the last edge of a seven-bit
    // line's shifts, takes the least unit `u` with `spread ≤ 15·u − 1` —
    // so five bits' edges 30, 61 and 123 take units 3, 5 and 9, and seven
    // bits' 126 unit 9 — and past 239 an escape to a short patch, five
    // bits' 247 and seven bits' 253 and 507 included.
    let at = PAIRS + 20;
    for spread in 0..=1_016usize {
        let unit = (1..=MAX_UNIT).find(|&u| spread < 15 * u as usize);
        let packed = pack(&spike(at + spread + 200, at, spread));
        assert_eq!(packed.unit(at), unit, "spread {spread}");
        let shifted = usize::from(unit.is_some_and(|u| u > 1));
        assert_eq!(packed.shifted_lines(), shifted, "spread {spread}");
        let escaped = usize::from(unit.is_none());
        assert_eq!(packed.patches(), SHORT_PATCH * escaped, "spread {spread}");
        let unit = unit.unwrap_or(1) as usize;
        let (_, start, len) = packed.pair(at - 1).unwrap();
        assert_eq!(start, 0, "spread {spread}");
        assert!((0..unit).contains(&(len - spread - 1)), "spread {spread}");
    }
}

#[test]
fn patches_in_the_first_a_middle_and_the_short_last_block() {
    // Three lines, the last of 30 pairs.
    let len = 2 * PAIRS + 31;
    let clean = climbing(-100, len);
    for line in 0..3 {
        // A spike off the seams escapes its own line only; its drifts go
        // to the patch array — the short last line's padded with copies of
        // its last — and its base says where.
        let mut drifts = clean.clone();
        drifts[line * PAIRS + 20] = 8_000_000;
        let packed = pack(&drifts);
        let own = &drifts[line * PAIRS..len.min(line * PAIRS + LINE)];
        assert_eq!(packed.patches[..own.len()], *own, "line {line}");
        assert_eq!(packed.patches(), LINE, "line {line}");
        assert_eq!(packed.lines[line].patch_slot(), 0, "line {line}");
        let at = line * PAIRS + 19;
        let len = (1 + 8_000_000 - drifts[at]) as usize;
        assert_eq!(packed.pair(at), Some((at, drifts[at], len)), "line {line}");
    }
    // All three, each spreading past what a unit fits with no window
    // inside the column to shift: each base is its short patch's first
    // slot.
    let mut drifts = clean.clone();
    for line in 0..3 {
        drifts[line * PAIRS + 1] = -300;
    }
    let packed = pack(&drifts);
    let bases: Vec<usize> = packed.lines.iter().map(Line::patch_slot).collect();
    assert_eq!(bases, [0, SHORT_PATCH, 2 * SHORT_PATCH]);
    // A spike on a seam escapes both lines that hold it.
    let mut drifts = clean;
    drifts[2 * PAIRS] = 1 << 30;
    let packed = pack(&drifts);
    assert_eq!(packed.patches[..LINE], drifts[PAIRS..][..LINE]);
    assert_eq!(packed.patches[LINE..][..31], drifts[2 * PAIRS..]);
}

#[test]
fn offsets_and_counts_are_stored_in_place_up_to_the_width() {
    // A drift 14 past the rest is stored in place, unshifted and exact —
    // and with it the window it ends or starts, however long. At the
    // array's first and last drift one line holds it, at a seam two do.
    // These drifts start no window inside the column, so a line spreading
    // 15 under either slope is not shifted but escaped. A drift 15 above
    // the rest as a line's first is in place still: under the line's
    // endpoint slope, rounded down, the rest fall to 14 below it. As a
    // line's last it escapes: there they fall by up to 15.
    let top = Line::ESCAPE as i32 - 1;
    let base = -7_000;
    let len = 3 * PAIRS + 1;
    let ends: [(usize, &[usize]); 3] = [(0, &[0]), (PAIRS, &[0, 1]), (len - 1, &[2])];
    for (at, lines) in ends {
        let mut drifts = vec![base; len];
        drifts[at] = base + top;
        let packed = pack(&drifts);
        assert_eq!(packed.patches(), 0, "{at}");
        assert_eq!(packed.delta(at), base + top, "{at}");
        for &line in lines {
            assert_eq!(packed.lines[line].unit(), 1, "{at}");
            let slot = at - line * PAIRS;
            assert_eq!(packed.lines[line].drift(slot), (base + top).into(), "{at}");
        }
        drifts[at] = base + top + 1;
        let packed = pack(&drifts);
        let last = lines.iter().filter(|&&line| at > line * PAIRS).count();
        assert_eq!(packed.patches(), SHORT_PATCH * last, "{at}");
        assert_eq!(packed.delta(at), base + top + 1, "{at}");
        if at.is_multiple_of(PAIRS) && at < len - 1 {
            let first = &packed.lines[at / PAIRS];
            assert_eq!((first.unit(), first.slope()), (1, -8), "{at}");
        }
        let escaped = SHORT_PATCH * lines.len();
        drifts[at] = base + top + 2;
        assert_eq!(pack(&drifts).patches(), escaped, "{at}");
        // The spread measured from the other end: a drift below.
        drifts[at] = base - top - 1;
        assert_eq!(pack(&drifts).patches(), escaped, "{at}");
    }
}

#[test]
fn a_low_outlier_is_the_base_and_patches_its_block() {
    // The base is the line's least residual: one drift far below the rest
    // pushes the others past an offset, and the line — starting no
    // window inside the column — is escaped.
    let mut drifts = vec![500; 2 * PAIRS + 1];
    drifts[2] = 100;
    let packed = pack(&drifts);
    assert_eq!(packed.lines[0].patch_slot(), 0);
    assert_eq!(packed.lines[1].base(), 500);
    let patched = (0..LINE).map(|slot| packed.patched(&packed.lines[0], slot));
    assert!(patched.eq(drifts[..LINE].iter().copied()));
    assert_eq!(packed.delta(2), 100);
    // Within an offset of the rest, it is the base of a line in place.
    drifts[2] = 490;
    let packed = pack(&drifts);
    assert_eq!(packed.lines[0].base(), 490);
    let offsets = [0, 1, 2].map(|slot| packed.lines[0].offset(slot));
    assert_eq!(offsets, [10, 10, 0]);
}

#[test]
fn bases_reach_both_ends_of_i32() {
    let top = Line::ESCAPE as i32 - 1;
    // A base in place has 30 bits: both of their ends are stored in place,
    // unit 1 beside them.
    let (min, max) = (-(1 << 29), (1 << 29) - 1);
    let drifts = [min, min + top, min + 3];
    let packed = pack(&drifts);
    assert_eq!((packed.lines[0].base(), packed.lines[0].unit()), (min, 1));
    assert_eq!(packed.patches(), 0);
    assert_eq!(pack(&[max, max - top]).patches(), 0);
    // One past them, and the ends of `i32`, are escaped and exact.
    let escaped = |drifts: &[i32]| {
        let packed = pack(drifts);
        let line = &packed.lines[0];
        assert!(line.is_escaped());
        (0..drifts.len())
            .map(|slot| packed.patched(line, slot))
            .collect::<Vec<_>>()
    };
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
    // The extremes a layer over `MAX_KEYS` keys can hold come back as they
    // are.
    let max = crate::entry::MAX_KEYS as i32;
    let drifts = [max, -max, 0, max];
    assert_eq!(escaped(&drifts), drifts);
    let drifts = [-max, -max + top, -max];
    assert_eq!(pack(&drifts).lines[0].base(), -max);
}

#[test]
fn a_short_patchs_last_pair_reads_no_word_past_its_59_words() {
    // The last pair of an escaped line, slot 114, is its patch's last word
    // whole: with that patch the last of the array, a fetch reading one
    // word past it would fail. Slot 113 takes the word before too.
    let mut drifts = vec![0; LINE];
    drifts[50] = 1_000;
    drifts[113] = -5;
    drifts[114] = -3;
    let packed = pack(&drifts);
    assert_eq!((packed.lines.len(), packed.unit(0)), (1, None));
    assert_eq!(packed.patches.len(), SHORT_PATCH);
    assert_eq!(SHORT_PATCH, 59);
    assert_eq!(packed.pair(PAIRS - 1), Some((114, -3, 4)));
    assert_eq!(packed.pair(PAIRS - 2), Some((113, -5, 3)));
    assert_eq!(packed.pair(usize::MAX), Some((114, -3, 4)));
}

#[test]
fn a_unit_16_lines_windows_overhang_by_at_most_15_and_stay_inside_the_column() {
    // Every window a shifted line serves holds the exact one, starts at
    // most `u − 1` records before it, ends at most `u − 1` past it and lies
    // inside the column — on lines climbing 120 to 239 by one long window,
    // whose drift falls back to 0 through empty partitions at the column's
    // end, and on random clustered layers. A window of 240 records takes
    // unit 16 and rounds the start after it down by the whole 15.
    let at = PAIRS + 20;
    let long_window = |spread: usize| {
        let n = at + spread + 3 * PAIRS;
        (0..=n)
            .map(|k| if k <= at { 0 } else { spread.min(n - k) as i32 })
            .collect()
    };
    let mut layers: Vec<Vec<i32>> = [120, 180, 239].map(long_window).into();
    let mut rng = sosd_data::rng::SplitMix64::new(0x5EF4);
    layers.extend((0..40).map(|_| clustered(&mut rng)));
    let (mut sixteens, mut widest) = (0, 0);
    for (round, drifts) in layers.iter().enumerate() {
        let packed = lines_of(drifts);
        let n = drifts.len() - 1;
        let sixteen = |line: &&Line| !line.is_escaped() && line.unit() == 16;
        sixteens += packed.lines.iter().filter(sixteen).count();
        for k in 0..n {
            let Some(unit) = packed.unit(k).filter(|&u| u > 1) else {
                continue;
            };
            let (_, delta, len) = packed.pair(k).unwrap();
            let (start, end) = (
                k as i64 + i64::from(delta),
                (k + len) as i64 + i64::from(delta),
            );
            let exact = (
                k as i64 + i64::from(drifts[k]),
                (k + 1) as i64 + i64::from(drifts[k + 1]),
            );
            let tag = format!("round {round} pair {k}");
            assert!(0 <= start && end <= n as i64, "{tag}");
            let overhang = i64::from(unit) - 1;
            assert!((0..=overhang).contains(&(exact.0 - start)), "{tag}");
            assert!((0..=overhang).contains(&(end - exact.1)), "{tag}");
            widest = widest.max(exact.0 - start).max(end - exact.1);
        }
    }
    assert!(sixteens > 0, "{sixteens} lines of unit 16");
    assert_eq!(widest, 15);
}
