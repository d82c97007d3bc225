//! A fixed-size set of line indices: one bit per 64 B cache line (dirty,
//! pending) or per 256 B XPLine (poison) of a [`Region`](crate::region::Region).
//!
//! Range updates touch whole 64-bit words, so a store covering `n` lines
//! costs `n / 64` word operations. The set also remembers the span of
//! words it may hold bits in since it was last drained; draining (an
//! `sfence` or a crash) scans only that span, so a fence after a small
//! store costs a few words however large the region is.

/// One bit per line of a region. Lines at or past the capacity are never
/// members: updates clamp their ranges to it.
#[derive(Debug)]
pub(crate) struct LineSet {
    words: Vec<u64>,
    /// Lines the set can hold.
    capacity: u64,
    /// Lines currently in the set.
    count: u64,
    /// Every set bit lies in `words[lo..hi]` (empty when `lo >= hi`).
    lo: usize,
    hi: usize,
}

/// The words covering the inclusive line range `first..=last`, each with
/// the mask of its bits inside the range.
pub(crate) fn word_masks(first: u64, last: u64) -> impl Iterator<Item = (usize, u64)> {
    let (w0, w1) = (first / 64, last / 64);
    (w0..=w1).map(move |w| {
        let lo = if w == w0 { first % 64 } else { 0 };
        let hi = if w == w1 { last % 64 } else { 63 };
        let mask = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
        (w as usize, mask)
    })
}

impl LineSet {
    /// An empty set of `capacity` lines.
    pub(crate) fn new(capacity: u64) -> Self {
        LineSet {
            words: vec![0; capacity.div_ceil(64) as usize],
            capacity,
            count: 0,
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `first..=last` clamped to the capacity, or `None` when nothing of
    /// it lies inside.
    fn clamp(&self, first: u64, last: u64) -> Option<(u64, u64)> {
        let last = last.min(self.capacity.checked_sub(1)?);
        (first <= last).then_some((first, last))
    }

    /// Add the lines `first..=last`; returns how many were not yet members.
    pub(crate) fn insert(&mut self, first: u64, last: u64) -> u64 {
        let Some((first, last)) = self.clamp(first, last) else {
            return 0;
        };
        let mut fresh = 0;
        for (w, mask) in word_masks(first, last) {
            fresh += u64::from((mask & !self.words[w]).count_ones());
            self.words[w] |= mask;
        }
        self.count += fresh;
        self.lo = self.lo.min((first / 64) as usize);
        self.hi = self.hi.max((last / 64) as usize + 1);
        fresh
    }

    /// Remove the lines `first..=last`; returns how many were members.
    pub(crate) fn remove(&mut self, first: u64, last: u64) -> u64 {
        let Some((first, last)) = self.clamp(first, last) else {
            return 0;
        };
        if self.count == 0 {
            return 0;
        }
        let mut gone = 0;
        for (w, mask) in word_masks(first, last) {
            gone += u64::from((mask & self.words[w]).count_ones());
            self.words[w] &= !mask;
        }
        self.count -= gone;
        gone
    }

    /// Move the members among `first..=last` into `to` (which must have
    /// the same capacity): `clwb` of dirty lines.
    pub(crate) fn move_into(&mut self, to: &mut LineSet, first: u64, last: u64) {
        let Some((first, last)) = self.clamp(first, last) else {
            return;
        };
        if self.count == 0 {
            return;
        }
        for (w, mask) in word_masks(first, last) {
            let moved = self.words[w] & mask;
            if moved == 0 {
                continue;
            }
            let n = u64::from(moved.count_ones());
            self.words[w] &= !moved;
            self.count -= n;
            to.count += u64::from((moved & !to.words[w]).count_ones());
            to.words[w] |= moved;
            to.lo = to.lo.min(w);
            to.hi = to.hi.max(w + 1);
        }
    }

    /// Whether `line` is a member.
    pub(crate) fn contains(&self, line: u64) -> bool {
        line < self.capacity && self.words[(line / 64) as usize] & (1 << (line % 64)) != 0
    }

    /// The lowest member among `first..=last`.
    pub(crate) fn first_in(&self, first: u64, last: u64) -> Option<u64> {
        let (first, last) = self.clamp(first, last)?;
        if self.count == 0 {
            return None;
        }
        word_masks(first, last).find_map(|(w, mask)| {
            let hit = self.words[w] & mask;
            (hit != 0).then(|| w as u64 * 64 + u64::from(hit.trailing_zeros()))
        })
    }

    /// Every member, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some(w as u64 * 64 + u64::from(bit))
            })
        })
    }

    /// Empty the set, calling `run(start, end)` once per maximal run of
    /// consecutive members `start..end`, ascending. Scans only the words
    /// touched since the last drain. Returns how many lines were drained.
    pub(crate) fn drain_runs(&mut self, run: impl FnMut(u64, u64)) -> u64 {
        let drained = self.count;
        let words = &mut self.words;
        let span = self.lo..self.hi.min(words.len());
        for_each_run(span.map(|w| (w, std::mem::take(&mut words[w]))), run);
        self.count = 0;
        self.lo = usize::MAX;
        self.hi = 0;
        drained
    }

    /// Call `run(start, end)` once per maximal run `start..end` of the
    /// lines among `first..=last` (clamped to the capacity) that are
    /// members of neither this set nor `other`, ascending. An empty set's
    /// words are not read.
    pub(crate) fn runs_outside(
        &self,
        other: &LineSet,
        first: u64,
        last: u64,
        run: impl FnMut(u64, u64),
    ) {
        let Some((first, last)) = self.clamp(first, last) else {
            return;
        };
        let word = |set: &LineSet, w: usize| if set.is_empty() { 0 } else { set.words[w] };
        let outside =
            word_masks(first, last).map(|(w, mask)| (w, mask & !(word(self, w) | word(other, w))));
        for_each_run(outside, run);
    }
}

/// Call `run(start, end)` once per maximal run `start..end` of set bits in
/// `words`, `(word index, bits)` pairs in ascending word order; a run
/// spanning adjacent words is one run.
fn for_each_run(words: impl Iterator<Item = (usize, u64)>, mut run: impl FnMut(u64, u64)) {
    let mut open: Option<(u64, u64)> = None;
    for (w, mut bits) in words {
        while bits != 0 {
            let bit = bits.trailing_zeros();
            let stop = bit + (bits >> bit).trailing_ones();
            // Clear bits `bit..stop`; a run reaching bit 63 ends the word
            // (shifting by 64 would overflow).
            bits = if stop == 64 {
                0
            } else {
                bits & (u64::MAX << stop)
            };
            let start = w as u64 * 64 + u64::from(bit);
            let end = w as u64 * 64 + u64::from(stop);
            open = match open {
                Some((s, e)) if e == start => Some((s, end)),
                Some((s, e)) => {
                    run(s, e);
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
    }
    if let Some((s, e)) = open {
        run(s, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(set: &mut LineSet) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        set.drain_runs(|s, e| out.push((s, e)));
        out
    }

    #[test]
    fn ranges_cross_word_boundaries() {
        let mut s = LineSet::new(300);
        assert_eq!(s.insert(60, 130), 71);
        assert_eq!(s.insert(0, 61), 60, "60 and 61 were already members");
        assert_eq!(s.iter().count(), 131);
        assert!(s.contains(0) && s.contains(64) && s.contains(130));
        assert!(!s.contains(131));
        assert_eq!(s.remove(63, 65), 3);
        assert_eq!(s.first_in(63, 299), Some(66));
        let mut other = LineSet::new(300);
        other.insert(140, 149);
        let outside = |a: &LineSet, b: &LineSet, first, last| {
            let mut out = Vec::new();
            a.runs_outside(b, first, last, |s, e| out.push((s, e)));
            out
        };
        let clamped = vec![(63, 66), (131, 140), (150, 300)];
        assert_eq!(outside(&s, &other, 50, 400), clamped);
        assert_eq!(
            outside(&LineSet::new(300), &other, 130, 160),
            vec![(130, 140), (150, 161)]
        );
        assert_eq!(runs(&mut s), vec![(0, 63), (66, 131)]);
        assert!(s.is_empty());
        assert_eq!(runs(&mut s), vec![]);
    }

    #[test]
    fn full_words_drain_as_one_run() {
        let mut s = LineSet::new(64 * 4);
        s.insert(0, 64 * 4 - 1);
        assert_eq!(runs(&mut s), vec![(0, 256)]);
        s.insert(63, 63);
        s.insert(64, 64);
        assert_eq!(runs(&mut s), vec![(63, 65)]);
    }
}
