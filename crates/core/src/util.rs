//! Small utilities: a fixed-size bitset for dense graph reachability, and
//! the name truncation report columns share.

/// The longest prefix of `s` of at most `max` bytes that ends on a char
/// boundary, so a name with multi-byte characters never splits one.
pub fn truncate_str(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let end = (0..=max).rev().find(|&i| s.is_char_boundary(i));
    &s[..end.unwrap_or(0)]
}

/// A fixed-capacity bitset over `0..len` backed by `u64` words.
///
/// Reachability over programs with ~150 kernels fits in a few words; the
/// HGGA evaluates millions of candidate groups, so constraint checks must
/// be branch-light and allocation-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty bitset with capacity `len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Set bit `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Test bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// True if `self & other` is non-empty.
    pub fn intersects(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Heap bytes the bitset owns.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.words)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Clear all bits, adjusting capacity to `len` if it differs. After a
    /// scratch bitset has warmed to a program's kernel count, this never
    /// allocates again.
    pub fn reset(&mut self, len: usize) {
        if self.len != len {
            self.len = len;
            self.words.clear();
            self.words.resize(len.div_ceil(64), 0);
        } else {
            self.words.fill(0);
        }
    }
}

/// Heap bytes a vector owns: its capacity, not its length.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes a vector of rows owns: its own buffer and every row's.
pub fn rows_bytes<T>(v: &Vec<Vec<T>>) -> usize {
    vec_bytes(v) + v.iter().map(vec_bytes).sum::<usize>()
}

impl FromIterator<usize> for BitSet {
    /// Collect indices into a bitset sized to the maximum index + 1.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let v: Vec<usize> = iter.into_iter().collect();
        let len = v.iter().max().map_or(0, |m| m + 1);
        let mut b = BitSet::new(len);
        for i in v {
            b.insert(i);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut b = BitSet::new(130);
        b.insert(0);
        b.insert(63);
        b.insert(64);
        b.insert(129);
        assert!(b.contains(0) && b.contains(63) && b.contains(64) && b.contains(129));
        assert!(!b.contains(1) && !b.contains(128));
        assert_eq!(b.count(), 4);
        b.remove(63);
        assert!(!b.contains(63));
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut b = BitSet::new(200);
        for i in [5usize, 190, 64, 63] {
            b.insert(i);
        }
        let v: Vec<usize> = b.iter().collect();
        assert_eq!(v, vec![5, 63, 64, 190]);
    }

    #[test]
    fn union_and_intersect() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(10);
        b.insert(90);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.contains(90));
        assert!(a.intersects(&b));
    }

    #[test]
    fn empty_and_clear() {
        let mut b = BitSet::new(10);
        assert!(b.is_empty());
        b.insert(3);
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn truncate_str_stops_on_a_char_boundary() {
        assert_eq!(truncate_str("abc", 5), "abc");
        assert_eq!(truncate_str("abcdef", 4), "abcd");
        // 'é' occupies bytes 1..3: a 2-byte cut backs off to byte 1.
        assert_eq!(truncate_str("aéb", 2), "a");
        assert_eq!(truncate_str("aéb", 3), "aé");
    }

    #[test]
    fn from_iterator() {
        let b: BitSet = [3usize, 7, 2].into_iter().collect();
        assert_eq!(b.capacity(), 8);
        assert_eq!(b.count(), 3);
        assert!(b.contains(7));
    }
}
