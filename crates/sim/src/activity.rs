//! Per-structure activity accounting with per-scheme active byte lanes.
//!
//! Every access to a value-carrying structure is recorded with the
//! software (opcode) width and the dynamic significance of the value; the
//! active byte lanes under each gating scheme are accumulated so the
//! power model can price any scheme from one simulation run.
//!
//! The simulator does not price each access as it happens. Its
//! [`ValueAccountant`] counts value events (issue, operand read, memory
//! data, functional-unit operation, result), 5 events × 8 software
//! widths × 8 significances (after the clamps [`ActivityCounts::record_value`]
//! applies), and folds them into the [`ActivityCounts`] once, at
//! `finish`, one access per structure the event moves its value through.
//! Every scheme's byte count is linear in those counts, so the fold,
//! which prices each cell once weighted by its count, gives exactly the
//! sums that recording every access one by one gives.

use crate::pipeline::SimResult;
use og_isa::{FuKind, Op};
use og_json::{FromJson, Json, ToJson};
use og_vm::{TraceRecord, TraceSink};

/// The data-path structures the paper reports energy for (Figures 3, 9
/// and 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Structure {
    /// Rename map table.
    Rename,
    /// Branch predictor.
    BranchPred,
    /// Instruction (issue) queue.
    InstQueue,
    /// Reorder buffer.
    Rob,
    /// Rename (result) buffers — values awaiting commit.
    RenameBufs,
    /// Load/store queue.
    Lsq,
    /// Architectural register file.
    RegFile,
    /// L1 instruction cache.
    ICache,
    /// L1 data cache.
    DCacheL1,
    /// Unified L2 cache.
    DCacheL2,
    /// Functional units.
    Fu,
    /// Result (bypass) buses.
    ResultBus,
}

impl Structure {
    /// All structures, in the paper's Figure 9 order.
    pub const ALL: [Structure; 12] = [
        Structure::Rename,
        Structure::BranchPred,
        Structure::InstQueue,
        Structure::Rob,
        Structure::RenameBufs,
        Structure::Lsq,
        Structure::RegFile,
        Structure::ICache,
        Structure::DCacheL1,
        Structure::DCacheL2,
        Structure::Fu,
        Structure::ResultBus,
    ];

    /// Display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            Structure::Rename => "Rename",
            Structure::BranchPred => "Branch Pred",
            Structure::InstQueue => "Instruction Queue",
            Structure::Rob => "ROB",
            Structure::RenameBufs => "Rename Buffers",
            Structure::Lsq => "LSQ",
            Structure::RegFile => "Register File",
            Structure::ICache => "I-cache",
            Structure::DCacheL1 => "D-cache (L1)",
            Structure::DCacheL2 => "D-cache (L2)",
            Structure::Fu => "FU",
            Structure::ResultBus => "Result bus",
        }
    }

    /// Dense index.
    pub const fn index(self) -> usize {
        match self {
            Structure::Rename => 0,
            Structure::BranchPred => 1,
            Structure::InstQueue => 2,
            Structure::Rob => 3,
            Structure::RenameBufs => 4,
            Structure::Lsq => 5,
            Structure::RegFile => 6,
            Structure::ICache => 7,
            Structure::DCacheL1 => 8,
            Structure::DCacheL2 => 9,
            Structure::Fu => 10,
            Structure::ResultBus => 11,
        }
    }

    /// Can this structure gate byte lanes by operand width? (Structures
    /// that only handle instruction bookkeeping or addresses cannot —
    /// §4.4: rename logic, branch prediction and the instruction caches
    /// are unaffected by operand gating.)
    pub const fn width_gateable(self) -> bool {
        matches!(
            self,
            Structure::InstQueue
                | Structure::RenameBufs
                | Structure::Lsq
                | Structure::RegFile
                | Structure::DCacheL1
                | Structure::Fu
                | Structure::ResultBus
        )
    }
}

/// Accumulated active-byte counts under each gating scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeBytes {
    /// No gating: full 8-byte lanes.
    pub none: u64,
    /// Software operand gating (opcode widths).
    pub software: u64,
    /// Hardware significance compression (exact byte count, 7 tag bits).
    pub hw_significance: u64,
    /// Hardware size compression ({1,2,5,8} bytes, 2 tag bits).
    pub hw_size: u64,
    /// Cooperative software+hardware (§4.7).
    pub cooperative: u64,
}

/// Round a byte count up to the {1, 2, 5, 8} size-compression classes
/// (§4.6: the 5-byte class covers the 33..40-bit addresses of Figure 12).
pub fn round_size_class(bytes: u8) -> u8 {
    match bytes {
        0 | 1 => 1,
        2 => 2,
        3..=5 => 5,
        _ => 8,
    }
}

/// One structure's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructActivity {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that carry a tagged data value (tag-bit overhead applies
    /// to these under the hardware schemes).
    pub value_accesses: u64,
    /// Active byte lanes per scheme, summed over value accesses.
    pub bytes: SchemeBytes,
}

/// Activity counts for the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityCounts {
    structs: [StructActivity; 12],
}

impl ActivityCounts {
    /// A zeroed activity record.
    pub fn new() -> ActivityCounts {
        ActivityCounts::default()
    }

    /// Record a bookkeeping access that carries no gateable data value
    /// (rename map lookup, predictor access, ROB entry, tag match…).
    pub fn record_plain(&mut self, s: Structure) {
        self.structs[s.index()].accesses += 1;
    }

    /// Record an access that moves a data value: `sw_bytes` is the opcode
    /// width after the software passes, `sig_bytes` the dynamic
    /// significance of the value (1..=8).
    pub fn record_value(&mut self, s: Structure, sw_bytes: u8, sig_bytes: u8) {
        self.record_values(s, sw_bytes, sig_bytes, 1);
    }

    /// Record `n` value accesses alike: [`record_value`](Self::record_value)
    /// `n` times over. The one place a scheme's active bytes are defined.
    pub(crate) fn record_values(&mut self, s: Structure, sw_bytes: u8, sig_bytes: u8, n: u64) {
        let a = &mut self.structs[s.index()];
        a.accesses += n;
        a.value_accesses += n;
        let sw = sw_bytes.clamp(1, 8);
        let sig = sig_bytes.clamp(1, 8);
        a.bytes.none += 8 * n;
        a.bytes.software += sw as u64 * n;
        a.bytes.hw_significance += sig as u64 * n;
        a.bytes.hw_size += round_size_class(sig) as u64 * n;
        a.bytes.cooperative += round_size_class(sig).min(sw) as u64 * n;
    }

    /// The activity of one structure.
    pub fn of(&self, s: Structure) -> &StructActivity {
        &self.structs[s.index()]
    }

    /// Merge another activity record into this one.
    pub fn merge(&mut self, other: &ActivityCounts) {
        for i in 0..self.structs.len() {
            let (a, b) = (&mut self.structs[i], &other.structs[i]);
            a.accesses += b.accesses;
            a.value_accesses += b.value_accesses;
            a.bytes.none += b.bytes.none;
            a.bytes.software += b.bytes.software;
            a.bytes.hw_significance += b.bytes.hw_significance;
            a.bytes.hw_size += b.bytes.hw_size;
            a.bytes.cooperative += b.bytes.cooperative;
        }
    }
}

/// The value events of one committed instruction, each moving one value
/// through the structures listed for it in [`EVENT_STRUCTURES`].
const ISSUE: usize = 0;
/// One source operand read.
const READ: usize = 1;
/// A load's result or a store's data, through the memory pipeline.
const MEMORY: usize = 2;
/// The functional-unit operation.
const EXECUTE: usize = 3;
/// The result, written back and later committed.
const RESULT: usize = 4;

/// The structures each value event accesses once.
const EVENT_STRUCTURES: [&[Structure]; 5] = [
    &[Structure::InstQueue],
    &[Structure::RegFile],
    &[Structure::Lsq, Structure::DCacheL1],
    &[Structure::Fu],
    &[Structure::ResultBus, Structure::RenameBufs, Structure::RegFile],
];

/// The value half of the simulator: which structures each committed
/// instruction moves a data value through, at what software width and
/// dynamic significance. It reads a record's op, width, significances
/// and which registers are present, and nothing the timing model reads
/// besides, so programs that differ only in operand widths can share
/// one [`crate::TimingModel`] run and each count its own values.
///
/// Each instruction's value events (issue, every source read, the
/// memory data of a load or store, the functional-unit operation and
/// the result) are counted by software bytes and significance bytes,
/// each clamped to 1..=8 as [`ActivityCounts::record_value`] clamps
/// them; [`finish`](Self::finish) prices every count once per structure
/// the event accesses.
#[derive(Debug, Clone, Default)]
pub struct ValueAccountant {
    counts: [[[u64; 8]; 8]; 5],
}

impl ValueAccountant {
    /// An accountant that has counted nothing.
    pub fn new() -> ValueAccountant {
        ValueAccountant::default()
    }

    /// Count one committed instruction's value events.
    #[inline]
    pub fn feed(&mut self, rec: &TraceRecord) {
        let op = rec.op;
        let sw = rec.width.bytes() as u8;
        // `rec.max_sig()`, spelled out so it inlines across the crate
        // boundary on this hot path.
        let sig = rec.dst_sig.max(rec.src_sigs[0]).max(rec.src_sigs[1]);
        self.count(ISSUE, sw, sig);
        for (src, &src_sig) in rec.srcs.iter().zip(&rec.src_sigs) {
            if src.is_some() {
                self.count(READ, sw, src_sig);
            }
        }
        match op {
            Op::Ld { .. } | Op::St => {
                // A load moves its result; a store moves its data
                // operand, and writes the cache at commit.
                let data_sig = if op == Op::St { rec.src_sigs[0] } else { rec.dst_sig };
                self.count(MEMORY, sw, data_sig);
                // Address generation occupies an ALU lane's adder.
                self.count(EXECUTE, 8, 8);
            }
            _ if op.fu() != FuKind::None => self.count(EXECUTE, sw, sig),
            _ => {}
        }
        if rec.dst.is_some() {
            self.count(RESULT, sw, rec.dst_sig);
        }
    }

    /// `timing`, a [`crate::TimingModel`] result for the path this
    /// accountant was fed, with the counted value accesses priced into
    /// its activity.
    pub fn finish(&self, mut timing: SimResult) -> SimResult {
        for (counts, structures) in self.counts.iter().zip(EVENT_STRUCTURES) {
            for &s in structures {
                for (sw, row) in (1..=8).zip(counts) {
                    for (sig, &n) in (1..=8).zip(row) {
                        timing.activity.record_values(s, sw, sig, n);
                    }
                }
            }
        }
        timing
    }

    /// Count one value event of kind `event`, as
    /// `record_value(s, sw_bytes, sig_bytes)` would record it on each of
    /// its structures `s`.
    #[inline]
    fn count(&mut self, event: usize, sw_bytes: u8, sig_bytes: u8) {
        let sw = sw_bytes.clamp(1, 8) as usize - 1;
        let sig = sig_bytes.clamp(1, 8) as usize - 1;
        self.counts[event][sw][sig] += 1;
    }
}

impl TraceSink for ValueAccountant {
    fn record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

impl ToJson for SchemeBytes {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("none".into(), self.none.to_json()),
            ("software".into(), self.software.to_json()),
            ("hw_significance".into(), self.hw_significance.to_json()),
            ("hw_size".into(), self.hw_size.to_json()),
            ("cooperative".into(), self.cooperative.to_json()),
        ])
    }
}

impl FromJson for SchemeBytes {
    fn from_json(json: &Json) -> Result<SchemeBytes, og_json::Error> {
        Ok(SchemeBytes {
            none: json.field("none")?,
            software: json.field("software")?,
            hw_significance: json.field("hw_significance")?,
            hw_size: json.field("hw_size")?,
            cooperative: json.field("cooperative")?,
        })
    }
}

impl ToJson for StructActivity {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("accesses".into(), self.accesses.to_json()),
            ("value_accesses".into(), self.value_accesses.to_json()),
            ("bytes".into(), self.bytes.to_json()),
        ])
    }
}

impl FromJson for StructActivity {
    fn from_json(json: &Json) -> Result<StructActivity, og_json::Error> {
        Ok(StructActivity {
            accesses: json.field("accesses")?,
            value_accesses: json.field("value_accesses")?,
            bytes: json.field("bytes")?,
        })
    }
}

/// Encoded as the bare 12-element array, indexed in [`Structure::ALL`]
/// order.
impl ToJson for ActivityCounts {
    fn to_json(&self) -> Json {
        self.structs.to_json()
    }
}

impl FromJson for ActivityCounts {
    fn from_json(json: &Json) -> Result<ActivityCounts, og_json::Error> {
        Ok(ActivityCounts { structs: FromJson::from_json(json)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_match_section_4_6() {
        assert_eq!(round_size_class(1), 1);
        assert_eq!(round_size_class(2), 2);
        assert_eq!(round_size_class(3), 5);
        assert_eq!(round_size_class(4), 5);
        assert_eq!(round_size_class(5), 5);
        assert_eq!(round_size_class(6), 8);
        assert_eq!(round_size_class(8), 8);
    }

    #[test]
    fn value_access_accumulates_all_schemes() {
        let mut a = ActivityCounts::new();
        a.record_value(Structure::RegFile, 4, 3);
        let s = a.of(Structure::RegFile);
        assert_eq!(s.accesses, 1);
        assert_eq!(s.value_accesses, 1);
        assert_eq!(s.bytes.none, 8);
        assert_eq!(s.bytes.software, 4);
        assert_eq!(s.bytes.hw_significance, 3);
        assert_eq!(s.bytes.hw_size, 5);
        assert_eq!(s.bytes.cooperative, 4, "min(sw=4, size=5)");
    }

    /// The value accesses of `rec`, one `record_value` per access: the
    /// rules as the simulator applied them before value events were
    /// counted and folded.
    fn record_each_access(act: &mut ActivityCounts, rec: &TraceRecord) {
        let op = rec.op;
        let sw = rec.width.bytes() as u8;
        act.record_value(Structure::InstQueue, sw, rec.max_sig());
        for (src, &sig) in rec.srcs.iter().zip(&rec.src_sigs) {
            if src.is_some() {
                act.record_value(Structure::RegFile, sw, if sig == 0 { 1 } else { sig });
            }
        }
        if matches!(op, Op::Ld { .. }) {
            act.record_value(Structure::Lsq, sw, rec.dst_sig.max(1));
            act.record_value(Structure::DCacheL1, sw, rec.dst_sig.max(1));
        } else if op == Op::St {
            act.record_value(Structure::Lsq, sw, rec.src_sigs[0].max(1));
        }
        if op.is_mem() {
            act.record_value(Structure::Fu, 8, 8);
        } else if op.fu() != FuKind::None {
            act.record_value(Structure::Fu, sw, rec.max_sig());
        }
        if rec.dst.is_some() {
            act.record_value(Structure::ResultBus, sw, rec.dst_sig.max(1));
            act.record_value(Structure::RenameBufs, sw, rec.dst_sig.max(1));
            act.record_value(Structure::RegFile, sw, rec.dst_sig.max(1));
        }
        if op == Op::St {
            act.record_value(Structure::DCacheL1, sw, rec.src_sigs[0].max(1));
        }
    }

    /// Random records of every op shape, significances out of range
    /// included: the accountant's folded counts equal recording every
    /// access one by one, on top of the bookkeeping already recorded.
    #[test]
    fn folded_value_events_equal_per_access_records() {
        let ops = [
            Op::Ld { signed: false },
            Op::Ld { signed: true },
            Op::St,
            Op::Mul,
            Op::Add,
            Op::Bc(og_isa::Cond::Ne),
            Op::Br,
            Op::Jsr,
            Op::Ret,
            Op::Halt,
            Op::Nop,
            Op::Out,
        ];
        let mut rng = og_program::rng::SplitMix64::new(11);
        let mut pick = |n: u64| rng.below(n);
        let mut direct = ActivityCounts::new();
        let mut values = ValueAccountant::new();
        for _ in 0..20_000 {
            let reg = |present: u64| (present != 0).then(|| og_isa::Reg::new(3));
            let rec = TraceRecord {
                pc: 0,
                next_pc: 8,
                op: ops[pick(ops.len() as u64) as usize],
                width: og_isa::Width::ALL[pick(4) as usize],
                dst: reg(pick(2)),
                srcs: [reg(pick(2)), reg(pick(2))],
                mem_addr: 0,
                taken: false,
                dst_sig: pick(11) as u8,
                src_sigs: [pick(11) as u8, pick(11) as u8],
                dst_value: None,
            };
            record_each_access(&mut direct, &rec);
            values.feed(&rec);
        }
        // Plain accesses already in the record survive the fold.
        direct.record_plain(Structure::Rob);
        let mut timing = SimResult { stats: Default::default(), activity: ActivityCounts::new() };
        timing.activity.record_plain(Structure::Rob);
        assert_eq!(values.finish(timing).activity, direct);
    }

    #[test]
    fn plain_access_has_no_value_bytes() {
        let mut a = ActivityCounts::new();
        a.record_plain(Structure::Rename);
        assert_eq!(a.of(Structure::Rename).accesses, 1);
        assert_eq!(a.of(Structure::Rename).value_accesses, 0);
        assert_eq!(a.of(Structure::Rename).bytes.software, 0);
    }

    #[test]
    fn merge_adds() {
        let mut a = ActivityCounts::new();
        a.record_value(Structure::Fu, 8, 8);
        let mut b = ActivityCounts::new();
        b.record_value(Structure::Fu, 1, 1);
        a.merge(&b);
        assert_eq!(a.of(Structure::Fu).accesses, 2);
        assert_eq!(a.of(Structure::Fu).bytes.software, 9);
    }

    #[test]
    fn gateable_classification() {
        assert!(Structure::Fu.width_gateable());
        assert!(Structure::RegFile.width_gateable());
        assert!(!Structure::Rename.width_gateable());
        assert!(!Structure::ICache.width_gateable());
        assert!(!Structure::BranchPred.width_gateable());
    }
}
