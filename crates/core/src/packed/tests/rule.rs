//! The packing rule restated from the drifts alone — which slope, base
//! and unit a line takes, or whether it is escaped, and where its bits sit
//! — and the checks built on it that every packed array must pass.

use super::*;

/// Line `j` of `drifts` — the layer over `drifts.len() − 1` keys — as
/// `i64`, padded to `LINE` drifts with copies of its last one.
#[cfg(test)]
pub(super) fn padded(drifts: &[i32], j: usize) -> Vec<i64> {
    let (line, pairs) = (Line::LINE, Line::PAIRS);
    let own = &drifts[pairs * j..drifts.len().min(pairs * j + line)];
    (0..line)
        .map(|i| i64::from(own[i.min(own.len() - 1)]))
        .collect()
}

/// The residuals of line `j` under `slope`: drift `i` less
/// `⌊slope·i / 2^F⌋`.
#[cfg(test)]
pub(super) fn residuals(drifts: &[i32], j: usize, slope: i64) -> Vec<i64> {
    let fraction = Line::FRACTION;
    let line = padded(drifts, j);
    (0..line.len())
        .map(|i| line[i] - ((slope * i as i64) >> fraction))
        .collect()
}

/// The spread of line `j`'s residuals under `slope`.
#[cfg(test)]
pub(super) fn spread(drifts: &[i32], j: usize, slope: i64) -> i64 {
    let residuals = residuals(drifts, j, slope);
    residuals.iter().max().unwrap() - residuals.iter().min().unwrap()
}

/// How line `j` of `drifts` is stored under `slope`:
/// `Some((base, unit, slope))` in place, `None` if it cannot be. The
/// rule, restated from the drifts alone: the base is the least residual,
/// the unit the least `u` with `spread ≤ 15·u − 1`, and the
/// line cannot be stored when that `u > 16`, when its base does not fit 30
/// bits, or when it is shifted (`u > 1`) and a window it would serve
/// overhangs the column.
#[cfg(test)]
pub(super) fn placed(drifts: &[i32], j: usize, slope: i64) -> Option<(i32, u32, i32)> {
    let pairs = Line::PAIRS;
    let fraction = Line::FRACTION;
    let residuals = residuals(drifts, j, slope);
    let min = *residuals.iter().min().unwrap();
    let spread = residuals.iter().max().unwrap() - min;
    let levels = (1i64 << BITS) - 1;
    let unit = (1i64..).find(|&u| spread < levels * u).unwrap();
    if unit > 16 || !(-(1 << 29)..1 << 29).contains(&min) {
        return None;
    }
    let stored =
        |i: usize| min + (residuals[i] - min) / unit * unit + ((slope * i as i64) >> fraction);
    let column = drifts.len() as i64 - 1;
    let real = drifts.len().min(pairs * j + Line::LINE) - pairs * j;
    let inside = (0..real - 1).all(|i| {
        let k = (pairs * j + i) as i64;
        let start = k + stored(i);
        let end = k + 1 + stored(i + 1) + unit - 1;
        start >= 0 && start.max(end) <= column
    });
    (unit == 1 || inside).then_some((min as i32, unit as u32, slope as i32))
}

/// The slope line `j` of `drifts` is offered: from its
/// first drift to its last (padded) one, `2^F·(Δ_last − Δ_first) / PAIRS`
/// rounded half up, clamped to the field's `−2^(w−1)..=2^(w−1) − 1`.
#[cfg(test)]
pub(super) fn endpoint_slope(drifts: &[i32], j: usize) -> i64 {
    let line = padded(drifts, j);
    let climb = (line[line.len() - 1] - line[0]) << Line::FRACTION;
    let pairs = Line::PAIRS as i64;
    let field = 1i64 << (Line::SLOPE_BITS - 1);
    (2 * climb + pairs)
        .div_euclid(2 * pairs)
        .clamp(-field, field - 1)
}

/// How line `j` of `drifts`, the layer over `drifts.len() − 1` keys, is
/// stored: `Some((base, unit, slope))` in place, `None`
/// escaped. The line keeps its endpoint slope where that leaves its
/// residuals a smaller spread than slope 0 and every drift fits 30 bits,
/// else slope 0; where the kept slope cannot be stored ([`placed`]), slope
/// 0 is tried.
#[cfg(test)]
pub(super) fn expected_line(drifts: &[i32], j: usize) -> Option<(i32, u32, i32)> {
    let slope = endpoint_slope(drifts, j);
    let in_30_bits = padded(drifts, j)
        .iter()
        .all(|delta| (-(1 << 29)..1 << 29).contains(delta));
    if in_30_bits && spread(drifts, j, slope) < spread(drifts, j, 0) {
        placed(drifts, j, slope).or_else(|| placed(drifts, j, 0))
    } else {
        placed(drifts, j, 0)
    }
}

/// Bit `at` of `line`.
#[cfg(test)]
pub(super) fn bit(line: &Line, at: usize) -> u32 {
    u32::from(line.0[at / 8] >> (at % 8) & 1)
}

/// Offset `slot` of `line`, its slope, its base word and its unit, read
/// bit by bit as the layout puts them: offset `i` at bits
/// `BITS·i..BITS·i + BITS` from byte 0 on, LSB first, the unit code's high
/// half at bits 464 and 465, the slope in the `w` bits above them up to
/// bit 480, two's complement, and the base word little-endian in bytes
/// `60..64`, the unit code's low half its top two bits. The unit is 1
/// more than its code.
#[cfg(test)]
pub(super) fn restated(line: &Line, slot: usize) -> (u32, i32, u32, u32) {
    let offset = (0..BITS as usize)
        .map(|b| bit(line, BITS as usize * slot + b) << b)
        .sum();
    let width = Line::SLOPE_BITS as usize;
    assert_eq!(BITS as usize * LINE, 464);
    let field: u32 = (0..width).map(|b| bit(line, 480 - width + b) << b).sum();
    let slope = (field << (32 - width)) as i32 >> (32 - width);
    let word: u32 = (0..32).map(|b| bit(line, 480 + b) << b).sum();
    let unit = 1 + (word >> 30 | bit(line, 464) << 2 | bit(line, 465) << 3);
    (offset, slope, word, unit)
}

/// Drift `slot` of a line in place, decoded from its bits alone:
/// `base + ⌊slope·slot / 2^F⌋ + offset·unit`.
#[cfg(test)]
pub(super) fn decoded(line: &Line, slot: usize) -> i64 {
    let (offset, slope, word, unit) = restated(line, slot);
    let base = i64::from((word as i32) << 2 >> 2);
    base + ((i64::from(slope) * slot as i64) >> Line::FRACTION) + i64::from(offset * unit)
}

/// Words of line `j`'s patch if it is escaped: a short patch where its
/// drifts spread at most 65 535, else all `LINE` of them.
#[cfg(test)]
pub(super) fn patch_words(drifts: &[i32], j: usize) -> usize {
    match spread(drifts, j, 0) {
        0..=65_535 => SHORT_PATCH,
        _ => LINE,
    }
}

/// `drifts` in one call: the layer over
/// `drifts.len() − 1` keys.
#[cfg(test)]
pub(super) fn lines_of(drifts: &[i32]) -> Lines {
    Lines::new(drifts.len().saturating_sub(1)).with(drifts)
}

/// Pack `drifts` and check what holds of every packed
/// array: feeding them a line or three lines a call reaches the same
/// array, every offset, slope and base sits at the bits the layout says, a
/// line's last drift is the next line's first, every line takes its slope,
/// base and unit or is escaped by the rule ([`expected_line`]), the
/// patch array holds the escaped lines' drifts — their least and 16-bit
/// offsets from it where they spread at most 65 535 — every drift of a line in
/// place, decoded from its bits, is its residual rounded down to the unit
/// plus the line's rise — exact at unit 1 — and every pair serves a
/// window that holds the exact one and overhangs each of its ends by less
/// than the unit.
#[cfg(test)]
pub(crate) fn pack(drifts: &[i32]) -> Lines {
    let (line_len, pairs) = (Line::LINE, Line::PAIRS);
    let packed = lines_of(drifts);
    for lines_per_call in [1, 3] {
        let mut streamed = Lines::new(drifts.len().saturating_sub(1));
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
    assert_eq!(packed.lines.len(), Lines::line_count(drifts.len()));
    let (mut patch_words_in, mut shifted_lines) = (0, 0);
    let escape = Line::ESCAPE;
    for (j, line) in packed.lines.iter().enumerate() {
        let own = &drifts[pairs * j..drifts.len().min(pairs * j + line_len)];
        for slot in 0..line_len {
            let (offset, slope, word, unit) = restated(line, slot);
            let read = (line.offset(slot), line.slope(), line.word());
            assert_eq!(read, (offset, slope, word), "line {j} slot {slot}");
            assert_eq!(line.unit(), unit, "line {j} slot {slot}");
            assert_eq!(offset == escape, line.is_escaped(), "line {j} slot {slot}");
        }
        match expected_line(drifts, j) {
            Some((base, unit, slope)) => {
                assert!(!line.is_escaped(), "line {j}");
                let read = (line.base(), line.unit(), line.slope());
                assert_eq!(read, (base, unit, slope), "line {j}");
                shifted_lines += usize::from(unit > 1);
                let unit = i64::from(unit);
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
                let words = patch_words(drifts, j);
                let short = words == SHORT_PATCH;
                assert_eq!(line.slope(), -i32::from(short), "line {j}");
                let at = line.patch_slot();
                assert_eq!(at, patch_words_in, "line {j}");
                let own = padded(drifts, j);
                let patched = (0..line_len).map(|slot| i64::from(packed.patched(line, slot)));
                assert!(patched.eq(own.iter().copied()), "line {j}");
                if short {
                    // The least drift, then the offsets, two a word: the
                    // last word holds the last two.
                    let least = own.iter().min().copied();
                    assert_eq!(Some(i64::from(packed.patches[at])), least, "line {j}");
                    let last = packed.patches[at + words - 1] as u32;
                    let ends = [own[line_len - 2], own[line_len - 1]].map(|d| d - least.unwrap());
                    assert_eq!([last & 0xFFFF, last >> 16].map(i64::from), ends, "line {j}");
                }
                patch_words_in += words;
            }
        }
    }
    assert_eq!(packed.patches(), patch_words_in);
    assert_eq!(packed.shifted_lines(), shifted_lines);
    assert_eq!(
        packed.size_bytes(),
        64 * packed.lines.len() + 4 * patch_words_in
    );
    // The unit a drift is stored in: the line's in a line in place, 1 in
    // an escaped line.
    let unit = |k: usize| packed.unit(k).unwrap_or(1) as i32;
    for (i, &delta) in drifts.iter().enumerate() {
        let stored = packed.delta(i);
        let slot_unit = unit(i.saturating_sub(1));
        assert!(stored <= delta && delta - stored < slot_unit, "drift {i}");
        if i + 1 < drifts.len() {
            // Pair `i` reads line `i / PAIRS`: its start rounded down, its
            // end `Δ_{i+1}` rounded down plus `u − 1`, and no window
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

/// Assert that the sloped lines of `drifts` are, line for line,
/// never worse than plain ones — slope 0 under the same rule: a line
/// shifted or escaped with its slope is so without it, one escaped with
/// its slope is escaped without it, and so the array has no more shifted
/// or escaped lines and is no larger. Returns the lines inexact with and
/// without slopes.
#[cfg(test)]
pub(crate) fn assert_no_wider_than_plain(drifts: &[i32], tag: &str) -> (usize, usize) {
    let sloped = lines_of(drifts);
    let (mut inexact, mut escaped, mut words) = ([0; 2], [0; 2], [0; 2]);
    for (j, line) in sloped.lines.iter().enumerate() {
        let plain = placed(drifts, j, 0);
        let was = [
            line.is_escaped() || line.unit() > 1,
            plain.is_none_or(|(_, unit, _)| unit > 1),
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
            words[side] += if out[side] { patch_words(drifts, j) } else { 0 };
        }
    }
    assert_eq!(sloped.shifted_lines() + escaped[0], inexact[0], "{tag}");
    let bytes = |words: usize| 64 * sloped.lines.len() + 4 * words;
    assert_eq!(sloped.size_bytes(), bytes(words[0]), "{tag}");
    assert!(bytes(words[0]) <= bytes(words[1]), "{tag}");
    (inexact[0], inexact[1])
}

/// `drifts` packed as [`Lines::extend`] packs them, but with every
/// shifted line's windows checked one by one ([`Lines::inside_column`]):
/// the near-end guard ([`Lines::stays_inside`]) left out.
#[cfg(test)]
pub(super) fn unguarded(drifts: &[i32]) -> Lines {
    let mut packed = Lines::new(drifts.len().saturating_sub(1));
    for j in 0..Lines::line_count(drifts.len()) {
        let own: Vec<i32> = padded(drifts, j).iter().map(|&d| d as i32).collect();
        // The base and the spread of the residuals under `slope`.
        let fit = |slope: i32| {
            let residuals = own
                .iter()
                .enumerate()
                .map(|(i, &delta)| delta.wrapping_sub(Line::rise(slope, i)));
            let (low, high) = (residuals.clone().min().unwrap(), residuals.max().unwrap());
            (low, offset_from(low, high), slope)
        };
        let (sloped, plain) = (fit(Line::endpoint_slope(own[0], own[LINE - 1])), fit(0));
        let fits = match sloped.1 < plain.1 && own.iter().all(|&delta| fits_30_bits(delta)) {
            true => vec![sloped, plain],
            false => vec![plain],
        };
        let line = fits.into_iter().find_map(|(base, spread, slope)| {
            let unit = spread / Line::ESCAPE + 1;
            let fits = unit <= MAX_UNIT && fits_30_bits(base);
            let line = fits.then(|| Line::in_place(&own, base, unit, slope))?;
            (unit == 1 || packed.inside_column(&line)).then_some(line)
        });
        match line {
            Some(line) => packed.lines.push(line),
            None => packed.push_escaped(&own),
        }
    }
    packed.len = drifts.len();
    packed.finish();
    packed
}
