//! Committed-path trace records and the streaming sink interface that
//! delivers them to consumers (the timing model, the value profiler,
//! tests) without materializing the trace.

use og_isa::{Op, Reg, Width};

/// One committed instruction, with everything the out-of-order timing
/// model and the width-aware power model need:
///
/// * `pc`/`next_pc` for instruction-cache and branch-predictor behaviour,
/// * architectural source/destination registers for rename dependences,
/// * the memory address for data-cache behaviour,
/// * the *software* width (the opcode's width after VRP/VRS) and the
///   *dynamic* significance of the values (for the hardware
///   significance/size-compression schemes of §4.6),
/// * the defined value itself, so value profilers can ride the same
///   stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Address of this instruction.
    pub pc: u64,
    /// Address of the next committed instruction (branch target when
    /// taken; fall-through otherwise). `u64::MAX` when the run stops
    /// before that instruction commits: after a halt or a return from the
    /// entry, at the fuel bound, or when it is a `jsr` that finds the call
    /// stack full.
    pub next_pc: u64,
    /// The operation.
    pub op: Op,
    /// Software (opcode) width.
    pub width: Width,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source registers (up to 2 renamed operands; a conditional move's
    /// old destination is carried in `src2`).
    pub srcs: [Option<Reg>; 2],
    /// Memory address for loads/stores, 0 otherwise.
    pub mem_addr: u64,
    /// Was a conditional branch taken? (`true` for unconditional
    /// transfers.)
    pub taken: bool,
    /// Significant bytes (1..=8) of the result value; 0 when no result.
    pub dst_sig: u8,
    /// Significant bytes of each source value; 0 when absent.
    pub src_sigs: [u8; 2],
    /// The value this instruction defined, if any (what a value
    /// profiler observes). Present even for writes to the zero register.
    pub dst_value: Option<i64>,
}

impl TraceRecord {
    /// Is this record a control transfer the branch predictor sees?
    pub fn is_control(&self) -> bool {
        matches!(self.op, Op::Br | Op::Bc(_) | Op::Jsr | Op::Ret)
    }

    /// The largest dynamic significance among sources and result, in bytes
    /// (at least 1); this is the operand width a hardware
    /// significance-compression scheme would process.
    pub fn max_sig(&self) -> u8 {
        self.dst_sig.max(self.src_sigs[0]).max(self.src_sigs[1]).max(1)
    }
}

/// Consumes committed-path [`TraceRecord`]s as the emulator produces
/// them, one per committed instruction in commit order.
///
/// This is the streaming interface between the emulator and everything
/// downstream of it: `og-sim`'s `Simulator` implements it to fuse
/// emulation and timing simulation into one pass with O(1) trace memory,
/// `og-profile` adapts its value profiler to it, and [`VecSink`]
/// materializes the stream for tests and offline analysis.
///
/// Every record a sink observes is final: the emulator hands it over
/// once its successor, and so its `next_pc`, is known.
pub trait TraceSink {
    /// Called once per committed instruction.
    fn record(&mut self, rec: &TraceRecord);
}

/// A [`TraceSink`] that discards every record. Useful as a placeholder
/// where a sink is required but the trace is irrelevant.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// A [`TraceSink`] that materializes the trace in memory.
///
/// This costs O(steps) memory (~64 B per committed instruction) — the
/// exact cost the streaming interface exists to avoid — so reserve it
/// for tests, short runs, and consumers that genuinely need random
/// access to the whole trace.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The records captured so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consume the sink, returning the captured trace.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(*rec);
    }
}

/// A [`TraceSink`] that forwards each record to a callback together
/// with its commit index. Handy for ad-hoc streaming consumers in tests
/// and tools.
pub struct FnSink<F: FnMut(u64, &TraceRecord)> {
    seen: u64,
    f: F,
}

impl<F: FnMut(u64, &TraceRecord)> FnSink<F> {
    /// Wrap a closure; it receives `(commit_index, record)`.
    pub fn new(f: F) -> FnSink<F> {
        FnSink { seen: 0, f }
    }

    /// How many records have passed through.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl<F: FnMut(u64, &TraceRecord)> TraceSink for FnSink<F> {
    fn record(&mut self, rec: &TraceRecord) {
        (self.f)(self.seen, rec);
        self.seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::Cond;

    fn rec(op: Op) -> TraceRecord {
        TraceRecord {
            pc: 0x400000,
            next_pc: 0x400008,
            op,
            width: Width::D,
            dst: Some(Reg::T0),
            srcs: [Some(Reg::T1), None],
            mem_addr: 0,
            taken: false,
            dst_sig: 3,
            src_sigs: [1, 0],
            dst_value: Some(0x03_0201),
        }
    }

    #[test]
    fn control_classification() {
        assert!(rec(Op::Br).is_control());
        assert!(rec(Op::Bc(Cond::Eq)).is_control());
        assert!(rec(Op::Jsr).is_control());
        assert!(rec(Op::Ret).is_control());
        assert!(!rec(Op::Add).is_control());
    }

    #[test]
    fn max_sig_covers_all_operands() {
        let mut r = rec(Op::Add);
        assert_eq!(r.max_sig(), 3);
        r.src_sigs = [7, 2];
        assert_eq!(r.max_sig(), 7);
        r.dst_sig = 0;
        r.src_sigs = [0, 0];
        assert_eq!(r.max_sig(), 1, "never below one byte");
    }

    #[test]
    fn vec_sink_materializes_in_order() {
        let mut sink = VecSink::new();
        let a = rec(Op::Add);
        let b = rec(Op::Br);
        sink.record(&a);
        sink.record(&b);
        assert_eq!(sink.records(), &[a, b]);
        assert_eq!(sink.into_records().len(), 2);
    }

    #[test]
    fn fn_sink_counts_and_forwards() {
        let mut indices = Vec::new();
        {
            let mut sink = FnSink::new(|i, r: &TraceRecord| indices.push((i, r.pc)));
            sink.record(&rec(Op::Add));
            sink.record(&rec(Op::Br));
            assert_eq!(sink.seen(), 2);
        }
        assert_eq!(indices, vec![(0, 0x400000), (1, 0x400000)]);
    }
}
