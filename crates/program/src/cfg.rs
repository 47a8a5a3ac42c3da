//! Control-flow graph, dominator tree and natural-loop detection.

use crate::{BlockId, Function};

/// The control-flow graph of one function: successor/predecessor lists and
/// a reverse post-order.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Build the CFG of `f`.
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for b in f.block_ids() {
            for s in f.block(b).successors() {
                succs[b.index()].push(s);
                preds[s.index()].push(b);
            }
        }
        // Depth-first post-order from the entry, reversed.
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
        visited[f.entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.index()].len() {
                let s = succs[b.index()][*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in post.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        Cfg { succs, preds, rpo: post, rpo_index }
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Reachable blocks in reverse post-order.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse post-order, if reachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        let i = self.rpo_index[b.index()];
        (i != usize::MAX).then_some(i)
    }

    /// Is `b` reachable from the entry?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index(b).is_some()
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the function has no blocks (never for verified programs).
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }
}

/// Dominator tree, computed with the Cooper–Harvey–Kennedy iterative
/// algorithm over the reverse post-order.
#[derive(Debug, Clone)]
pub struct Dominators {
    idom: Vec<Option<BlockId>>,
    rpo_index: Vec<usize>,
}

impl Dominators {
    /// Compute dominators for `cfg` (entry assumed to be the first RPO
    /// block).
    pub fn new(cfg: &Cfg) -> Dominators {
        let n = cfg.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let rpo = cfg.rpo();
        if rpo.is_empty() {
            return Dominators { idom, rpo_index: vec![usize::MAX; n] };
        }
        let entry = rpo[0];
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo[1..] {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &cfg.rpo_index, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom, rpo_index: cfg.rpo_index.clone() }
    }

    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_index[b.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

/// One natural loop: a header plus the body blocks of all back edges that
/// target the header.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header.
    pub header: BlockId,
    /// All blocks in the loop, header included, sorted by id.
    pub body: Vec<BlockId>,
}

impl Loop {
    /// Does the loop contain `b`?
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// All natural loops of a function, with per-block innermost-loop lookup.
#[derive(Debug, Clone)]
pub struct LoopForest {
    loops: Vec<Loop>,
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Detect the natural loops of `cfg` using `dom`.
    pub fn new(cfg: &Cfg, dom: &Dominators) -> LoopForest {
        let n = cfg.len();
        // Collect back edges grouped by header.
        let mut by_header: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in cfg.rpo() {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    by_header[s.index()].push(b);
                }
            }
        }
        let mut loops = Vec::new();
        for (h, latches) in by_header.into_iter().enumerate() {
            if latches.is_empty() {
                continue;
            }
            let header = BlockId(h as u32);
            // Natural loop body: header + blocks that reach a latch without
            // passing through the header.
            let mut in_body = vec![false; n];
            in_body[h] = true;
            let mut stack = Vec::new();
            for &l in &latches {
                if !in_body[l.index()] {
                    in_body[l.index()] = true;
                    stack.push(l);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in cfg.preds(b) {
                    if !in_body[p.index()] {
                        in_body[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            let body: Vec<BlockId> =
                (0..n as u32).map(BlockId).filter(|b| in_body[b.index()]).collect();
            loops.push(Loop { header, body });
        }
        // Innermost loop per block = containing loop with the smallest body.
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.body {
                match innermost[b.index()] {
                    Some(j) if loops[j].body.len() <= l.body.len() => {}
                    _ => innermost[b.index()] = Some(i),
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// All loops.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<&Loop> {
        self.innermost[b.index()].map(|i| &self.loops[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imm, ProgramBuilder};
    use og_isa::{CmpKind, Reg, Width};

    /// entry → loop{ body → latch } → exit, with an if/else diamond in the
    /// loop body.
    fn looped() -> crate::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0);
        f.block("head");
        f.cmp(CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(10));
        f.beq(Reg::T1, "exit");
        f.block("body");
        f.and(Width::D, Reg::T2, Reg::T0, imm(1));
        f.bne(Reg::T2, "odd");
        f.block("even_case");
        f.add(Width::D, Reg::T3, Reg::T0, imm(2));
        f.br("latch");
        f.block("odd");
        f.add(Width::D, Reg::T3, Reg::T0, imm(3));
        f.block("latch");
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.br("head");
        f.block("exit");
        f.halt();
        pb.finish(f);
        pb.build().unwrap()
    }

    #[test]
    fn cfg_edges() {
        let p = looped();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        // head (block 1) has preds entry(0) and latch(5)
        assert_eq!(cfg.preds(BlockId(1)).len(), 2);
        // body (2) branches to odd (4) and even_case (3)
        let mut s = cfg.succs(BlockId(2)).to_vec();
        s.sort();
        assert_eq!(s, vec![BlockId(3), BlockId(4)]);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert!(cfg.is_reachable(BlockId(6)));
    }

    #[test]
    fn dominators() {
        let p = looped();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let dom = Dominators::new(&cfg);
        // head dominates everything in the loop and the exit.
        assert!(dom.dominates(BlockId(1), BlockId(5)));
        assert!(dom.dominates(BlockId(1), BlockId(6)));
        // the two arms don't dominate the latch.
        assert!(!dom.dominates(BlockId(3), BlockId(5)));
        assert!(!dom.dominates(BlockId(4), BlockId(5)));
        // body dominates both arms and the latch.
        assert!(dom.dominates(BlockId(2), BlockId(3)));
        assert!(dom.dominates(BlockId(2), BlockId(5)));
    }

    #[test]
    fn loop_detection() {
        let p = looped();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let dom = Dominators::new(&cfg);
        let lf = LoopForest::new(&cfg, &dom);
        assert_eq!(lf.loops().len(), 1);
        let l = &lf.loops()[0];
        assert_eq!(l.header, BlockId(1));
        // Loop contains head, body, both arms and the latch — not entry/exit.
        assert_eq!(l.body, vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4), BlockId(5)]);
        assert!(lf.innermost(BlockId(3)).is_some());
        assert!(lf.innermost(BlockId(0)).is_none());
        assert!(lf.innermost(BlockId(6)).is_none());
    }

    #[test]
    fn nested_loops_resolve_the_innermost() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0);
        f.block("outer");
        f.ldi(Reg::T1, 0);
        f.block("inner");
        f.add(Width::D, Reg::T1, Reg::T1, imm(1));
        f.cmp(CmpKind::Lt, Width::D, Reg::T2, Reg::T1, imm(5));
        f.bne(Reg::T2, "inner");
        f.block("outer_latch");
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(5));
        f.bne(Reg::T2, "outer");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let f = p.func(p.entry);
        let cfg = Cfg::new(f);
        let dom = Dominators::new(&cfg);
        let lf = LoopForest::new(&cfg, &dom);
        assert_eq!(lf.loops().len(), 2);
        let inner = lf.innermost(BlockId(2)).unwrap();
        assert_eq!(inner.header, BlockId(2));
        assert_eq!(lf.innermost(BlockId(3)).unwrap().header, BlockId(1));
    }
}
