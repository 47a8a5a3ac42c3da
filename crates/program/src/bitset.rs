//! A compact growable bit set used by the dataflow analyses.

/// A fixed-capacity bit set over `usize` indices.
///
/// ```
/// use og_program::BitSet;
/// let mut s = BitSet::new(100);
/// s.insert(7);
/// s.insert(63);
/// s.insert(64);
/// assert!(s.contains(63) && s.contains(64) && !s.contains(8));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![7, 63, 64]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// Insert `i`; returns true if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit index {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        if i < self.capacity {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Does the set contain `i`?
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Union with another set of the same capacity; returns true if this
    /// set changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self = (self - kill) ∪ gen`, the reaching-definitions transfer.
    pub fn transfer(&mut self, gen: &BitSet, kill: &BitSet) {
        for ((a, g), k) in self.words.iter_mut().zip(&gen.words).zip(&kill.words) {
            *a = (*a & !k) | g;
        }
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(69));
    }

    #[test]
    fn transfer_applies_gen_kill() {
        let mut inset = BitSet::new(10);
        inset.insert(1);
        inset.insert(2);
        let mut gen = BitSet::new(10);
        gen.insert(3);
        let mut kill = BitSet::new(10);
        kill.insert(1);
        inset.transfer(&gen, &kill);
        assert_eq!(inset.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(8).insert(8);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(5);
        assert!(s.is_empty());
        s.insert(3);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }
}
