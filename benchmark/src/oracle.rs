//! The reference every answer is checked against: a sorted multiset of
//! keys answered with `partition_point`. It is the plain sorted `Vec` cut
//! into chunks, so that replaying a write-heavy trace into it moves a few
//! KiB per write instead of the whole column.

const CHUNK: usize = 2048;

pub struct Oracle {
    /// Non-empty ascending chunks; concatenated they are the sorted column.
    chunks: Vec<Vec<u64>>,
    /// `starts[i]` = number of keys before chunk `i`.
    starts: Vec<usize>,
    len: usize,
}

impl Oracle {
    pub fn new(sorted_keys: &[u64]) -> Self {
        debug_assert!(sorted_keys.is_sorted());
        let mut oracle = Self {
            chunks: sorted_keys.chunks(CHUNK).map(<[u64]>::to_vec).collect(),
            starts: Vec::new(),
            len: sorted_keys.len(),
        };
        oracle.restart();
        oracle
    }

    fn restart(&mut self) {
        self.starts.clear();
        let mut before = 0;
        for c in &self.chunks {
            self.starts.push(before);
            before += c.len();
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// First chunk whose last key is `>= q` (`chunks.len()` if none).
    fn chunk_for(&self, q: u64) -> usize {
        self.chunks.partition_point(|c| c[c.len() - 1] < q)
    }

    /// Position of the first key `>= q`.
    pub fn lower_bound(&self, q: u64) -> usize {
        let c = self.chunk_for(q);
        match self.chunks.get(c) {
            Some(chunk) => self.starts[c] + chunk.partition_point(|&k| k < q),
            None => self.len,
        }
    }

    pub fn count_of(&self, k: u64) -> usize {
        match k.checked_add(1) {
            Some(next) => self.lower_bound(next) - self.lower_bound(k),
            None => self.len - self.lower_bound(k),
        }
    }

    pub fn insert(&mut self, k: u64) {
        self.len += 1;
        if self.chunks.is_empty() {
            self.chunks.push(vec![k]);
            self.starts.push(0);
            return;
        }
        let c = self.chunk_for(k).min(self.chunks.len() - 1);
        let chunk = &mut self.chunks[c];
        let at = chunk.partition_point(|&x| x < k);
        chunk.insert(at, k);
        if chunk.len() > 2 * CHUNK {
            let tail = chunk.split_off(CHUNK);
            self.chunks.insert(c + 1, tail);
            self.restart();
        } else {
            for s in &mut self.starts[c + 1..] {
                *s += 1;
            }
        }
    }

    /// Remove one occurrence of `k`; false when there is none.
    pub fn delete(&mut self, k: u64) -> bool {
        let c = self.chunk_for(k);
        let Some(chunk) = self.chunks.get_mut(c) else {
            return false;
        };
        let at = chunk.partition_point(|&x| x < k);
        if chunk[at] != k {
            return false;
        }
        chunk.remove(at);
        self.len -= 1;
        if chunk.is_empty() {
            self.chunks.remove(c);
            self.restart();
        } else {
            for s in &mut self.starts[c + 1..] {
                *s -= 1;
            }
        }
        true
    }

    /// Every key in `lo ..= hi`, ascending.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        let c = self.chunk_for(lo);
        let skip = self
            .chunks
            .get(c)
            .map_or(0, |chunk| chunk.partition_point(|&k| k < lo));
        self.chunks[c.min(self.chunks.len())..]
            .iter()
            .flatten()
            .copied()
            .skip(skip)
            .take_while(move |&k| k <= hi)
    }

    pub fn to_vec(&self) -> Vec<u64> {
        self.chunks.iter().flatten().copied().collect()
    }
}

/// `column.partition_point(|k| k < q)` for every query, computed in query
/// order with a gallop from the previous answer: a million answers over a
/// cold 32 MiB column cost a sort and one pass, not a million cache-missing
/// binary searches.
pub fn lower_bounds(column: &[u64], queries: &[u64]) -> Vec<usize> {
    let mut order: Vec<u32> = (0..queries.len() as u32).collect();
    order.sort_unstable_by_key(|&i| queries[i as usize]);
    let mut out = vec![0usize; queries.len()];
    // Every key before `pos` is below the current query.
    let mut pos = 0;
    for i in order {
        let q = queries[i as usize];
        let (mut hi, mut step) = (pos, 1);
        while hi < column.len() && column[hi] < q {
            pos = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(column.len());
        pos += column[pos..hi].partition_point(|&k| k < q);
        out[i as usize] = pos;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sosd_data::rng::Xoshiro256;

    #[test]
    fn lower_bounds_match_partition_point() {
        let mut rng = Xoshiro256::new(5);
        let mut column: Vec<u64> = (0..5000).map(|_| rng.next_below(3000)).collect();
        column.sort_unstable();
        let mut queries: Vec<u64> = (0..4000).map(|_| rng.next_below(3200)).collect();
        queries.extend([0, 1, 2999, 3000, u64::MAX, column[0], column[4999]]);
        let want: Vec<usize> = queries
            .iter()
            .map(|&q| column.partition_point(|&k| k < q))
            .collect();
        assert_eq!(lower_bounds(&column, &queries), want);
        assert_eq!(lower_bounds(&[], &[7]), vec![0]);
        assert_eq!(lower_bounds(&column, &[]), Vec::<usize>::new());
    }

    #[test]
    fn agrees_with_a_plain_sorted_vec_under_churn() {
        let mut rng = Xoshiro256::new(11);
        let mut plain: Vec<u64> = (0..6000).map(|_| rng.next_below(5000)).collect();
        plain.sort_unstable();
        let mut oracle = Oracle::new(&plain);
        for step in 0..20_000 {
            let k = rng.next_below(5200);
            match rng.next_below(3) {
                0 => {
                    let at = plain.partition_point(|&x| x < k);
                    plain.insert(at, k);
                    oracle.insert(k);
                }
                1 => {
                    let at = plain.partition_point(|&x| x < k);
                    let present = plain.get(at) == Some(&k);
                    if present {
                        plain.remove(at);
                    }
                    assert_eq!(oracle.delete(k), present, "step {step}");
                }
                _ => {
                    assert_eq!(oracle.lower_bound(k), plain.partition_point(|&x| x < k));
                    let count = plain.iter().filter(|&&x| x == k).count();
                    assert_eq!(oracle.count_of(k), count);
                }
            }
            assert_eq!(oracle.len(), plain.len());
        }
        assert_eq!(oracle.to_vec(), plain);
        let got: Vec<u64> = oracle.range(100, 140).collect();
        let want: Vec<u64> = plain
            .iter()
            .copied()
            .filter(|k| (100..=140).contains(k))
            .collect();
        assert_eq!(got, want);
        assert_eq!(oracle.range(u64::MAX - 1, u64::MAX).count(), 0);
        assert_eq!(oracle.lower_bound(u64::MAX), plain.len());
    }

    #[test]
    fn drains_to_empty_and_refills() {
        let mut oracle = Oracle::new(&[5, 5, 9]);
        assert!(oracle.delete(5) && oracle.delete(5) && oracle.delete(9));
        assert!(!oracle.delete(9));
        assert_eq!((oracle.len(), oracle.lower_bound(1)), (0, 0));
        assert_eq!(oracle.range(0, u64::MAX).count(), 0);
        oracle.insert(3);
        assert_eq!((oracle.count_of(3), oracle.to_vec()), (1, vec![3]));
    }
}
