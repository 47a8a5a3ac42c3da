//! The static data segment: named, initialized global memory.

use std::collections::HashMap;

/// Base address of the global data segment.
///
/// Global addresses need 37 bits — like the 33..40-bit Alpha addresses of
/// the paper's Figure 12, they need exactly 5 significant bytes and
/// produce the distribution's second peak (and motivate the 5-byte class
/// of the §4.6 size-compression scheme).
pub const GLOBAL_BASE: u64 = 0x12_0000_0000;

/// Initial stack pointer (the stack grows down from here).
pub const STACK_BASE: u64 = 0x14_0000_0000;

/// One named data item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataItem {
    /// Symbol name.
    pub name: String,
    /// Assigned absolute address.
    pub addr: u64,
    /// Initial contents (zero-filled regions use an explicit length).
    pub bytes: Vec<u8>,
}

/// The program's static data segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataSegment {
    items: Vec<DataItem>,
    by_name: HashMap<String, usize>,
    next_addr: u64,
}

impl DataSegment {
    /// An empty data segment starting at [`GLOBAL_BASE`].
    pub fn new() -> DataSegment {
        DataSegment { items: Vec::new(), by_name: HashMap::new(), next_addr: GLOBAL_BASE }
    }

    /// Define a symbol with initial `bytes`; returns its address.
    ///
    /// Items are laid out sequentially with 8-byte alignment.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already defined.
    pub fn define(&mut self, name: impl Into<String>, bytes: Vec<u8>) -> u64 {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "data symbol defined twice: {name}");
        let addr = self.next_addr;
        self.next_addr = (addr + bytes.len() as u64 + 7) & !7;
        self.by_name.insert(name.clone(), self.items.len());
        self.items.push(DataItem { name, addr, bytes });
        addr
    }

    /// Define a zero-initialized region of `len` bytes.
    pub fn define_zeroed(&mut self, name: impl Into<String>, len: usize) -> u64 {
        self.define(name, vec![0; len])
    }

    /// Define a region of little-endian 64-bit words.
    pub fn define_quads(&mut self, name: impl Into<String>, words: &[i64]) -> u64 {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.define(name, bytes)
    }

    /// The address of `name`, if defined.
    pub fn address_of(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).map(|&i| self.items[i].addr)
    }

    /// All items in layout order.
    pub fn items(&self) -> &[DataItem] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_aligned_and_sequential() {
        let mut d = DataSegment::new();
        let a = d.define("a", vec![1, 2, 3]);
        let b = d.define_zeroed("b", 16);
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b, GLOBAL_BASE + 8); // 3 bytes rounded up to 8
        assert_eq!(d.address_of("b"), Some(b));
        assert_eq!(d.address_of("c"), None);
    }

    #[test]
    fn quads_encode_little_endian() {
        let mut d = DataSegment::new();
        d.define_quads("t", &[1, -1]);
        let item = &d.items()[0];
        assert_eq!(item.bytes.len(), 16);
        assert_eq!(item.bytes[0], 1);
        assert_eq!(&item.bytes[8..16], &[0xFF; 8]);
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_symbol_panics() {
        let mut d = DataSegment::new();
        d.define_zeroed("x", 8);
        d.define_zeroed("x", 8);
    }
}
