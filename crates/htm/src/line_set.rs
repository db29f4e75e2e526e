//! Gap-coded line sets: the compact form of a read/write set kept
//! across commits.

use crate::ids::LineAddr;

/// An ascending, duplicate-free set of cache lines, stored as LEB128
/// gaps in one byte buffer.
///
/// Each line is written as its distance past the line after the
/// previous one (the first as its distance from line 0): seven bits a
/// byte, low bits first, with the top bit set on every byte but a
/// value's last. A run of consecutive lines costs one byte a line, a
/// gap under 2¹⁴ two, and a gap of 2⁶³ or more ten. The read/write sets
/// of the Fig. 4 presets cost 1.1–2.5 bytes a line where a
/// `Vec<LineAddr>` costs 8 (DESIGN.md §11).
///
/// [`LineSet::assign`] re-encodes in place. The buffer grows only to
/// the exact length of an encoding longer than any it held and never
/// shrinks, so re-assigning an encoding no longer than the longest one
/// held allocates nothing. The set is read by iteration, ascending, or
/// by the merge of [`LineSet::intersection_len`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineSet {
    bytes: Vec<u8>,
}

impl LineSet {
    /// An empty set that holds no allocation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the set with `lines`, reusing the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not strictly ascending: the gaps would not
    /// decode back to it.
    pub fn assign(&mut self, lines: &[LineAddr]) {
        assert!(
            lines.windows(2).all(|w| w[0] < w[1]),
            "a line set must be strictly ascending"
        );
        let encoded = gaps(lines).map(encoded_len).sum();
        self.bytes.clear();
        self.bytes.reserve_exact(encoded);
        for mut gap in gaps(lines) {
            while gap >= 0x80 {
                self.bytes.push(gap as u8 | 0x80);
                gap >>= 7;
            }
            self.bytes.push(gap as u8);
        }
    }

    /// The lines, ascending.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LineAddr> + '_ {
        Lines {
            bytes: self.bytes.iter(),
            next: 0,
            remaining: self.len(),
        }
    }

    /// Number of lines in the set: one value ends at each byte whose
    /// top bit is clear.
    pub fn len(&self) -> usize {
        self.bytes.iter().filter(|&&b| b < 0x80).count()
    }

    /// True if the set holds no line.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes the encoding takes (the buffer's capacity can be larger).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Size of the intersection with `other`, which must be ascending
    /// without duplicates, by one merge pass.
    pub fn intersection_len(&self, other: &[LineAddr]) -> usize {
        debug_assert!(
            other.windows(2).all(|w| w[0] < w[1]),
            "the other set must be ascending without duplicates"
        );
        let (mut shared, mut j) = (0, 0);
        let (mut bytes, mut next) = (self.bytes.iter(), 0);
        while let Some(line) = decode(&mut bytes, &mut next) {
            while other.get(j).is_some_and(|&o| o < line) {
                j += 1;
            }
            match other.get(j) {
                None => break,
                Some(&o) if o == line => {
                    shared += 1;
                    j += 1;
                }
                Some(_) => {}
            }
        }
        shared
    }
}

/// The value each of `lines`, strictly ascending, is stored as: its
/// distance past the line after its predecessor.
fn gaps(lines: &[LineAddr]) -> impl Iterator<Item = u64> + '_ {
    let mut next = 0u64;
    lines.iter().map(move |line| {
        let gap = line.get() - next;
        // Only the last line of a set can be u64::MAX.
        next = line.get().wrapping_add(1);
        gap
    })
}

/// LEB128 bytes of `value`: one per started group of seven bits, and
/// one for zero.
fn encoded_len(value: u64) -> usize {
    1 + (63 - (value | 1).leading_zeros() as usize) / 7
}

/// Decoder behind [`LineSet::iter`].
struct Lines<'a> {
    bytes: std::slice::Iter<'a, u8>,
    /// The line after the last one returned.
    next: u64,
    /// Lines not yet returned.
    remaining: usize,
}

impl Iterator for Lines<'_> {
    type Item = LineAddr;

    #[inline]
    fn next(&mut self) -> Option<LineAddr> {
        let line = decode(&mut self.bytes, &mut self.next)?;
        self.remaining -= 1;
        Some(line)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Lines<'_> {}

/// Decodes the line after `next` from `bytes` and moves `next` past it.
#[inline]
fn decode(bytes: &mut std::slice::Iter<'_, u8>, next: &mut u64) -> Option<LineAddr> {
    let (mut gap, mut shift) = (0u64, 0);
    loop {
        let byte = *bytes.next()?;
        gap |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
        shift += 7;
    }
    let line = *next + gap;
    *next = line.wrapping_add(1);
    Some(LineAddr(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u64]) -> LineSet {
        let lines: Vec<LineAddr> = v.iter().map(|&x| LineAddr(x)).collect();
        let mut s = LineSet::new();
        s.assign(&lines);
        s
    }

    #[test]
    fn gaps_cost_what_leb128_says() {
        assert_eq!(set(&[]).encoded_len(), 0);
        assert_eq!(set(&[0, 1, 2, 3]).encoded_len(), 4, "a run: a byte a line");
        assert_eq!(set(&[127]).encoded_len(), 1);
        assert_eq!(set(&[128]).encoded_len(), 2);
        assert_eq!(set(&[0, 1 << 14]).encoded_len(), 1 + 2);
        assert_eq!(set(&[0, (1 << 14) + 1]).encoded_len(), 1 + 3);
        assert_eq!(set(&[u64::MAX]).encoded_len(), 10);
        assert_eq!(set(&[0, u64::MAX]).encoded_len(), 1 + 10);
        assert_eq!(set(&[u64::MAX - 1, u64::MAX]).len(), 2);
    }

    #[test]
    fn the_merge_counts_the_shared_lines() {
        let lines = |v: &[u64]| v.iter().map(|&x| LineAddr(x)).collect::<Vec<_>>();
        let inter = |a: &[u64], b: &[u64]| set(a).intersection_len(&lines(b));
        assert_eq!(inter(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(inter(&[], &[1, 2]), 0);
        assert_eq!(inter(&[1, 2], &[]), 0);
        assert_eq!(inter(&[4, 5], &[4, 5]), 2);
        assert_eq!(inter(&[1, 2], &[3, 4]), 0);
        assert_eq!(inter(&[0, u64::MAX], &[u64::MAX]), 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_repeated_line_is_rejected() {
        set(&[3, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_line_after_the_last_is_rejected() {
        set(&[u64::MAX, 0]);
    }
}
