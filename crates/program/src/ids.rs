//! Typed identifiers for functions, blocks and instructions.

use std::fmt;

/// Identifies a function within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a [`crate::Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl FuncId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".b{}", self.0)
    }
}

/// A static instruction location: function, block, and index within the
/// block. This is the identity the profiler, the specializer and the
/// dynamic statistics all key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstRef {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub idx: u32,
}

impl InstRef {
    /// Construct an instruction reference.
    pub fn new(func: FuncId, block: BlockId, idx: u32) -> InstRef {
        InstRef { func, block, idx }
    }
}

impl fmt::Display for InstRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}#{}", self.func, self.block, self.idx)
    }
}

/// A static basic-block location: function and block, with no instruction
/// index. Block-level diagnostics (an empty block, a block missing its
/// terminator's successor, …) carry this instead of an [`InstRef`] whose
/// `idx` would be meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockRef {
    /// Containing function.
    pub func: FuncId,
    /// The block.
    pub block: BlockId,
}

impl BlockRef {
    /// Construct a block reference.
    pub fn new(func: FuncId, block: BlockId) -> BlockRef {
        BlockRef { func, block }
    }
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.func, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let r = InstRef::new(FuncId(1), BlockId(2), 3);
        assert_eq!(r.to_string(), "@f1.b2#3");
        assert_eq!(FuncId(0).to_string(), "@f0");
        assert_eq!(BlockId(9).to_string(), ".b9");
        assert_eq!(BlockRef::new(FuncId(1), BlockId(2)).to_string(), "@f1.b2");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = InstRef::new(FuncId(0), BlockId(1), 5);
        let b = InstRef::new(FuncId(0), BlockId(2), 0);
        assert!(a < b);
    }
}
