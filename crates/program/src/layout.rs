//! Address layout: assigns every instruction a nominal program-counter
//! address so the timing model can drive instruction caches and branch
//! predictors.

use crate::{BlockId, FuncId, InstRef, Program};

/// Nominal instruction size in bytes (fixed-size fetch slots, like Alpha's
/// 4-byte words scaled to OGA-64's 8-byte encoding words).
pub const INST_BYTES: u64 = 8;

/// Base address of the text segment.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// The computed address layout of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `block_addr[f][b]` = address of the first instruction of block `b`
    /// of function `f`.
    block_addr: Vec<Vec<u64>>,
    /// Total text size in bytes.
    text_size: u64,
}

impl Layout {
    /// Compute the layout of `program`: functions laid out in id order,
    /// blocks in block-id order, [`INST_BYTES`] per instruction.
    pub fn compute(program: &Program) -> Layout {
        let mut addr = TEXT_BASE;
        let mut block_addr = Vec::with_capacity(program.funcs.len());
        for f in &program.funcs {
            let mut blocks = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                blocks.push(addr);
                addr += b.insts.len() as u64 * INST_BYTES;
            }
            block_addr.push(blocks);
        }
        Layout { block_addr, text_size: addr - TEXT_BASE }
    }

    /// Address of the first instruction of a block.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range.
    #[inline]
    pub fn block_addr(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_addr[f.index()][b.index()]
    }

    /// Address of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    #[inline]
    pub fn addr_of(&self, r: InstRef) -> u64 {
        self.block_addr(r.func, r.block) + r.idx as u64 * INST_BYTES
    }

    /// Total text-segment size in bytes.
    pub fn text_size(&self) -> u64 {
        self.text_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imm, ProgramBuilder};
    use og_isa::{Reg, Width};

    #[test]
    fn addresses_are_sequential() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 1);
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.br("next");
        f.block("next");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let l = p.layout();
        let e = InstRef::new(p.entry, BlockId(0), 0);
        assert_eq!(l.addr_of(e), TEXT_BASE);
        assert_eq!(l.addr_of(InstRef::new(p.entry, BlockId(0), 2)), TEXT_BASE + 16);
        assert_eq!(l.block_addr(p.entry, BlockId(1)), TEXT_BASE + 24);
        assert_eq!(l.text_size(), 32);
    }
}
