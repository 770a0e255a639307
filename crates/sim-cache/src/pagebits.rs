//! A set of pages as one bit per page: the residency and run-start maps
//! of both halves of the cache.

/// A set of pages as one bit per page, grown on demand. The words are
/// open to the cache modules, which walk them directly.
#[derive(Debug, Default)]
pub(crate) struct PageBits(pub(crate) Vec<u64>);

impl PageBits {
    pub(crate) fn get(&self, page: u64) -> bool {
        self.0
            .get((page >> 6) as usize)
            .is_some_and(|w| w >> (page & 63) & 1 != 0)
    }

    /// Set or clear the bit of `page`.
    pub(crate) fn set(&mut self, page: u64, on: bool) {
        let w = (page >> 6) as usize;
        if self.0.len() <= w {
            self.0.resize(w + 1, 0);
        }
        let bit = 1 << (page & 63);
        self.0[w] = if on {
            self.0[w] | bit
        } else {
            self.0[w] & !bit
        };
    }

    /// Set (`on`) or clear the bits of `[a, b)`, a word at a time.
    pub(crate) fn fill(&mut self, a: u64, b: u64, on: bool) {
        if on && a < b && self.0.len() <= ((b - 1) >> 6) as usize {
            self.0.resize(((b - 1) >> 6) as usize + 1, 0);
        }
        let mut p = a;
        while p < b {
            let n = (b - p).min(64 - (p & 63));
            let mask = (u64::MAX >> (64 - n)) << (p & 63);
            let w = &mut self.0[(p >> 6) as usize];
            *w = if on { *w | mask } else { *w & !mask };
            p += n;
        }
    }

    /// The last set bit at or below `page`, looking no lower than word
    /// `low`.
    pub(crate) fn last_at_or_below(&self, page: u64, low: usize) -> Option<u64> {
        let top = (page >> 6) as usize;
        let mut w = top.min(self.0.len().checked_sub(1)?);
        let mut mask = if w == top {
            u64::MAX >> (63 - (page & 63))
        } else {
            u64::MAX
        };
        loop {
            let m = self.0[w] & mask;
            if m != 0 {
                return Some(w as u64 * 64 + 63 - u64::from(m.leading_zeros()));
            }
            if w <= low {
                return None;
            }
            w -= 1;
            mask = u64::MAX;
        }
    }

    /// The first page in `[from, to)` whose bit is `on`; `to` if none.
    pub(crate) fn first_from(&self, from: u64, to: u64, on: bool) -> u64 {
        let mut p = from;
        while p < to {
            let Some(&word) = self.0.get((p >> 6) as usize) else {
                // Past the last word every bit is clear.
                return if on { to } else { p };
            };
            let m = (if on { word } else { !word }) >> (p & 63);
            if m != 0 {
                return (p + u64::from(m.trailing_zeros())).min(to);
            }
            p = (p | 63) + 1;
        }
        to
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}
