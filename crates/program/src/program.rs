//! The top-level [`Program`] container.

use crate::{DataSegment, FuncId, InstRef, Layout};

/// A whole program: functions, an entry point, and a static data segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Functions; `FuncId` indexes into this vector.
    pub funcs: Vec<crate::Function>,
    /// The entry function (conventionally `main`).
    pub entry: FuncId,
    /// Static data.
    pub data: DataSegment,
}

impl Program {
    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func(&self, f: FuncId) -> &crate::Function {
        &self.funcs[f.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func_mut(&mut self, f: FuncId) -> &mut crate::Function {
        &mut self.funcs[f.index()]
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&crate::Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// The instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    #[inline]
    pub fn inst(&self, r: InstRef) -> &og_isa::Inst {
        self.func(r.func).inst(r)
    }

    /// Mutable access to the instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    #[inline]
    pub fn inst_mut(&mut self, r: InstRef) -> &mut og_isa::Inst {
        self.func_mut(r.func).inst_mut(r)
    }

    /// Iterate over all function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Iterate over `(InstRef, &Inst)` for every instruction of every
    /// function.
    pub fn insts(&self) -> impl Iterator<Item = (InstRef, &og_isa::Inst)> {
        self.funcs.iter().flat_map(|f| f.insts())
    }

    /// Total static instruction count.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }

    /// Whether `other` equals this program but for operand widths (or
    /// equals it outright): the same instructions in the same places,
    /// with the same operands, and the same data.
    pub fn same_but_widths(&self, other: &Program) -> bool {
        let mut widened = other.clone();
        let mut widths = self.insts().map(|(_, inst)| inst.width);
        let insts = widened.funcs.iter_mut().flat_map(|f| &mut f.blocks).flat_map(|b| &mut b.insts);
        for inst in insts {
            match widths.next() {
                Some(width) => inst.width = width,
                None => return false,
            }
        }
        widened == *self
    }

    /// Compute the address layout (nominal 8 bytes per instruction).
    pub fn layout(&self) -> Layout {
        Layout::compute(self)
    }

    /// Verify structural invariants; see [`crate::VerifyError`].
    ///
    /// Fail-fast shim over [`Program::verify_all`] for callers that only
    /// need accept/reject.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify(&self) -> Result<(), crate::VerifyError> {
        crate::verify::verify(self)
    }

    /// Run the full verification pipeline, collecting **all** diagnostics.
    ///
    /// On success returns the [`crate::ProgramContext`] of facts the
    /// information passes established (reachability, recursion freedom,
    /// provable call-stack depth). See the `verify` module docs for the
    /// pass pipeline and the `Ok ⇒ no structural VM error` invariant.
    ///
    /// # Errors
    ///
    /// Returns every violation found, in pass order then program order.
    pub fn verify_all(&self) -> Result<crate::ProgramContext, Vec<crate::VerifyError>> {
        crate::verify::verify_all(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imm, ProgramBuilder};
    use og_isa::{Reg, Width};

    fn two_func_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("inc", 1);
        callee.block("entry");
        callee.add(Width::W, Reg::V0, Reg::A0, imm(1));
        callee.ret();
        pb.finish(callee);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.ldi(Reg::A0, 5);
        main.jsr("inc");
        main.out(Width::B, Reg::V0);
        main.halt();
        pb.finish(main);
        pb.build().unwrap()
    }

    #[test]
    fn lookup_and_iteration() {
        let p = two_func_program();
        assert_eq!(p.funcs.len(), 2);
        assert!(p.func_by_name("inc").is_some());
        assert!(p.func_by_name("nope").is_none());
        assert_eq!(p.func(p.entry).name, "main");
        assert_eq!(p.inst_count(), 6);
    }
}
