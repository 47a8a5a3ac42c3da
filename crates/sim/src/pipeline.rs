//! The out-of-order pipeline timing model.
//!
//! A timestamp-based model: every committed instruction flows through
//! fetch → decode/rename → dispatch → issue → execute → writeback →
//! commit, with explicit structural constraints — per-cycle fetch,
//! decode, issue and retire bandwidth, finite ROB / issue queue / LSQ
//! occupancy, functional-unit and cache-port contention, result-bus
//! bandwidth — and dataflow constraints through per-register
//! ready timestamps. This style models the same first-order behaviour as
//! a structural cycle loop (dependences, window stalls, mispredict
//! redirects, memory latency) at a fraction of the implementation
//! complexity, and is deterministic.
//!
//! The model is an **incremental state machine**: it consumes one
//! committed instruction at a time (it is an `og_vm::TraceSink`) and
//! [`TimingModel::finish`] closes the books. All per-instruction history
//! it keeps (commit/issue/memory-commit timestamps) is bounded by the
//! machine's own window sizes (ROB, issue queue, LSQ, physical register
//! file), so simulating a trace of any length takes O(1) memory. The
//! [`Simulator`] feeds each record to the timing model and to the
//! [`ValueAccountant`]; its [`Simulator::run`] convenience preserves the
//! old slice-consuming interface on top of the same state machines.

use crate::activity::{ActivityCounts, Structure, ValueAccountant};
use crate::bpred::BranchPredictor;
use crate::cache::Cache;
use crate::config::MachineConfig;
use og_isa::{FuKind, Op};
use og_json::{FromJson, Json, ToJson};
use og_vm::{TraceRecord, TraceSink};
use std::collections::HashMap;

/// Slots per [`Ring`]. Cycle `c` uses slot `c % RING_SLOTS`, so cycles
/// `RING_SLOTS` apart share a slot and the younger reservation evicts
/// the older; the count is part of the model, not a tuning knob.
const RING_SLOTS: usize = 16_384;

/// A per-cycle bandwidth-limited resource. Slot `c % RING_SLOTS` packs
/// the cycle it counts for, as `c / RING_SLOTS` above the low 8 bits,
/// with the reservations made at that cycle in the low 8 bits (a
/// capacity is at most 255). A slot holding another cycle counts zero
/// reservations at `c`. A zeroed slot holds cycle `c < RING_SLOTS` with
/// no reservations, which is how an untouched slot behaves.
#[derive(Debug, Clone)]
struct Ring {
    slots: Box<[u64; RING_SLOTS]>,
}

impl Ring {
    fn new() -> Ring {
        let slots = vec![0; RING_SLOTS].into_boxed_slice().try_into().expect("RING_SLOTS slots");
        Ring { slots }
    }

    /// Reserve a slot at the earliest cycle ≥ `cycle` with spare capacity
    /// (`cap` ≥ 1 reservations per cycle).
    fn reserve(&mut self, mut cycle: u64, cap: u8) -> u64 {
        loop {
            let slot = &mut self.slots[cycle as usize % RING_SLOTS];
            let tag = (cycle / RING_SLOTS as u64) << 8;
            let used = if *slot & !0xff == tag { *slot & 0xff } else { 0 };
            if used < u64::from(cap) {
                *slot = tag | (used + 1);
                return cycle;
            }
            cycle += 1;
        }
    }
}

/// A per-cycle bandwidth-limited resource whose requests never precede
/// its latest reservation, as fetch's and retire's do: each asks for a
/// cycle no earlier than the one it last got. On such a stream a [`Ring`]
/// only ever finds the latest reservation's slot (possibly full) and,
/// past it, slots no reservation has reached, so it is exactly this
/// (cycle, count) pair.
#[derive(Debug, Clone, Default)]
struct InOrderSlots {
    cycle: u64,
    used: u8,
}

impl InOrderSlots {
    /// Reserve a slot at the earliest cycle ≥ `cycle` with spare capacity
    /// (`cap` ≥ 1 reservations per cycle); `cycle` must not precede the
    /// latest reservation.
    fn reserve(&mut self, cycle: u64, cap: u8) -> u64 {
        debug_assert!(cycle >= self.cycle, "in-order request precedes the latest reservation");
        if cycle > self.cycle {
            *self = InOrderSlots { cycle, used: 1 };
        } else if self.used < cap {
            self.used += 1;
        } else {
            *self = InOrderSlots { cycle: cycle + 1, used: 1 };
        }
        self.cycle
    }
}

/// Timing statistics of a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleStats {
    /// Total cycles to commit the whole trace.
    pub cycles: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Direction mispredictions.
    pub mispredicts: u64,
    /// I-cache accesses / misses.
    pub icache: (u64, u64),
    /// D-cache accesses / misses.
    pub dcache: (u64, u64),
    /// L2 accesses / misses.
    pub l2: (u64, u64),
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl CycleStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }
}

impl ToJson for CycleStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".into(), self.cycles.to_json()),
            ("insts".into(), self.insts.to_json()),
            ("cond_branches".into(), self.cond_branches.to_json()),
            ("mispredicts".into(), self.mispredicts.to_json()),
            ("icache".into(), self.icache.to_json()),
            ("dcache".into(), self.dcache.to_json()),
            ("l2".into(), self.l2.to_json()),
            ("loads".into(), self.loads.to_json()),
            ("stores".into(), self.stores.to_json()),
        ])
    }
}

impl FromJson for CycleStats {
    fn from_json(json: &Json) -> Result<CycleStats, og_json::Error> {
        Ok(CycleStats {
            cycles: json.field("cycles")?,
            insts: json.field("insts")?,
            cond_branches: json.field("cond_branches")?,
            mispredicts: json.field("mispredicts")?,
            icache: json.field("icache")?,
            dcache: json.field("dcache")?,
            l2: json.field("l2")?,
            loads: json.field("loads")?,
            stores: json.field("stores")?,
        })
    }
}

/// Simulation output: timing plus per-structure activity.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Timing statistics.
    pub stats: CycleStats,
    /// Width-annotated activity counts.
    pub activity: ActivityCounts,
}

/// A bounded history of per-instruction timestamps: retains (at least)
/// the youngest `window` values pushed, addressable by the global push
/// index. This is what makes the simulator's memory footprint
/// independent of trace length — the pipeline only ever looks back one
/// machine window. The buffer is `window` rounded up to a power of two,
/// so a push index maps to its slot by a mask.
#[derive(Debug, Clone)]
struct History {
    buf: Vec<u64>,
    mask: u64,
    window: u64,
    len: u64,
}

impl History {
    fn new(window: usize) -> History {
        let cap = window.next_power_of_two();
        History { buf: vec![0; cap], mask: cap as u64 - 1, window: window as u64, len: 0 }
    }

    fn push(&mut self, v: u64) {
        self.buf[(self.len & self.mask) as usize] = v;
        self.len += 1;
    }

    fn len(&self) -> u64 {
        self.len
    }

    /// The `idx`-th value ever pushed; `idx` must be within the configured
    /// window (the youngest `window` pushes).
    fn get(&self, idx: u64) -> u64 {
        debug_assert!(idx < self.len && self.len - idx <= self.window, "history window exceeded");
        self.buf[(idx & self.mask) as usize]
    }
}

/// `value` of `MachineConfig::<field>` as a per-cycle ring capacity.
///
/// # Panics
///
/// Panics, naming the field, unless `value` is in 1..=255.
fn per_cycle(field: &str, value: u32) -> u8 {
    match u8::try_from(value) {
        Ok(cap) if cap >= 1 => cap,
        _ => panic!("MachineConfig::{field} must be in 1..=255, got {value}"),
    }
}

/// The timing half of the simulator: an incremental state machine over
/// the committed path. It reads each record's pc, next_pc, op, registers,
/// memory address and branch outcome, never its widths or
/// significances, so every program that commits the same path gets the
/// same result. That result holds the [`CycleStats`] and the path's
/// bookkeeping accesses; a [`ValueAccountant`] adds the value accesses.
/// It implements [`og_vm::TraceSink`], so `Vm::run_streamed` can feed it
/// directly.
#[derive(Debug)]
pub struct TimingModel {
    config: MachineConfig,
    // Derived constants.
    l2_total_lat: u64,
    mem_fill: u64,
    line_mask: u64,
    fetch_cap: u8,
    decode_cap: u8,
    issue_cap: u8,
    retire_cap: u8,
    alu_cap: u8,
    mul_cap: u8,
    port_cap: u8,
    // Accumulated results.
    stats: CycleStats,
    /// Bookkeeping accesses (no value accesses).
    act: ActivityCounts,
    // Machine structures.
    icache: Cache,
    dcache: Cache,
    l2: Cache,
    bpred: BranchPredictor,
    fetch_slots: InOrderSlots,
    decode_ring: Ring,
    issue_ring: Ring,
    retire_slots: InOrderSlots,
    alu_ring: Ring,
    mul_ring: Ring,
    mem_ring: Ring,
    bus_ring: Ring,
    /// The 16-byte memory bus serializes line fills (Table 2).
    mem_bus_free: u64,
    reg_ready: [u64; 32],
    /// Commit timestamps of the youngest ROB/phys-reg window.
    commit_hist: History,
    /// Issue timestamps of the youngest issue-queue window.
    issue_hist: History,
    /// Commit timestamps of the youngest LSQ window of memory ops.
    mem_hist: History,
    /// word address → cycle the latest store's data is available. Grows
    /// with the number of distinct 8-byte words the program stores (its
    /// data footprint) — not with trace length; forwarding deliberately
    /// has no age horizon, matching the original slice-consuming model.
    store_ready: HashMap<u64, u64>,
    /// Earliest possible next fetch.
    fetch_base: u64,
    last_fetch: u64,
    last_commit: u64,
    cur_line: u64,
}

impl TimingModel {
    /// Create a timing model ready to be fed a committed-path stream.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if a width, port or integer unit count
    /// of `config` is outside 1..=255, if `phys_regs` does not exceed the
    /// 32 architectural registers, if the ROB, issue queue or LSQ has no
    /// entry, or if a cache geometry is rejected by [`Cache::new`].
    pub fn new(config: MachineConfig) -> TimingModel {
        assert!(
            config.phys_regs > 32,
            "MachineConfig::phys_regs must exceed the 32 architectural registers, got {}",
            config.phys_regs
        );
        for (field, entries) in [
            ("rob_size", config.rob_size),
            ("iq_size", config.iq_size),
            ("lsq_size", config.lsq_size),
        ] {
            assert!(entries >= 1, "MachineConfig::{field} must be at least 1, got 0");
        }
        let commit_window = config.rob_size.max(config.phys_regs - 32) as usize;
        TimingModel {
            l2_total_lat: (config.l2.3 + config.dcache.3) as u64,
            mem_fill: config.memory_latency(config.l2.2) as u64,
            line_mask: !(config.icache.2 as u64 - 1),
            fetch_cap: per_cycle("fetch_width", config.fetch_width),
            decode_cap: per_cycle("decode_width", config.decode_width),
            issue_cap: per_cycle("issue_width", config.issue_width),
            retire_cap: per_cycle("retire_width", config.retire_width),
            alu_cap: per_cycle("int_alus", config.int_alus),
            mul_cap: per_cycle("int_muls", config.int_muls),
            port_cap: per_cycle("dcache_ports", config.dcache_ports),
            stats: CycleStats::default(),
            act: ActivityCounts::new(),
            icache: Cache::new(config.icache.0, config.icache.1, config.icache.2),
            dcache: Cache::new(config.dcache.0, config.dcache.1, config.dcache.2),
            l2: Cache::new(config.l2.0, config.l2.1, config.l2.2),
            bpred: BranchPredictor::new(config.ras_depth as usize),
            fetch_slots: InOrderSlots::default(),
            decode_ring: Ring::new(),
            issue_ring: Ring::new(),
            retire_slots: InOrderSlots::default(),
            alu_ring: Ring::new(),
            mul_ring: Ring::new(),
            mem_ring: Ring::new(),
            bus_ring: Ring::new(),
            mem_bus_free: 0,
            reg_ready: [0; 32],
            commit_hist: History::new(commit_window),
            issue_hist: History::new(config.iq_size as usize),
            mem_hist: History::new(config.lsq_size as usize),
            store_ready: HashMap::new(),
            fetch_base: 0,
            last_fetch: 0,
            last_commit: 0,
            cur_line: u64::MAX,
            config,
        }
    }

    /// Feed one committed instruction through the pipeline model.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn feed(&mut self, rec: &TraceRecord) {
        let cfg = &self.config;
        let i = self.stats.insts;
        self.stats.insts += 1;
        let op = rec.op;
        let fu = op.fu();
        let is_load = matches!(op, Op::Ld { .. });
        let is_store = op == Op::St;
        let is_mem = op.is_mem();

        // ---- fetch --------------------------------------------------
        let mut f_cyc = self.fetch_base.max(self.last_fetch);
        if rec.pc & self.line_mask != self.cur_line {
            self.cur_line = rec.pc & self.line_mask;
            self.act.record_plain(Structure::ICache);
            if !self.icache.access(rec.pc) {
                self.act.record_plain(Structure::DCacheL2);
                if self.l2.access(rec.pc) {
                    f_cyc += self.l2_total_lat;
                } else {
                    let start = (f_cyc + self.l2_total_lat).max(self.mem_bus_free);
                    self.mem_bus_free = start + self.mem_fill;
                    f_cyc = start + self.mem_fill;
                }
                self.fetch_base = self.fetch_base.max(f_cyc);
            }
        }
        let f_cyc = self.fetch_slots.reserve(f_cyc, self.fetch_cap);
        self.last_fetch = f_cyc;

        // ---- decode / rename / dispatch -----------------------------
        let mut disp = self.decode_ring.reserve(f_cyc + cfg.frontend_depth as u64, self.decode_cap);
        let rob = cfg.rob_size as u64;
        if i >= rob {
            disp = disp.max(self.commit_hist.get(i - rob) + 1);
        }
        // Physical registers: freed at commit of the displaced def.
        let phys_window = (cfg.phys_regs - 32) as u64;
        if i >= phys_window {
            disp = disp.max(self.commit_hist.get(i - phys_window));
        }
        let iqs = cfg.iq_size as u64;
        if i >= iqs {
            disp = disp.max(self.issue_hist.get(i - iqs));
        }
        if is_mem {
            let lsq = cfg.lsq_size as u64;
            if self.mem_hist.len() >= lsq {
                disp = disp.max(self.mem_hist.get(self.mem_hist.len() - lsq));
            }
        }
        self.act.record_plain(Structure::Rename);
        self.act.record_plain(Structure::Rob);

        // ---- operand readiness --------------------------------------
        let mut ready = disp + 1;
        for r in rec.srcs.iter().flatten() {
            if !r.is_zero() {
                ready = ready.max(self.reg_ready[r.index() as usize]);
            }
            self.act.record_plain(Structure::InstQueue); // wakeup tag match
        }

        // ---- issue + execute ----------------------------------------
        let (mut iss, mut lat) = match fu {
            FuKind::IntAlu | FuKind::Branch => {
                let c = self.issue_ring.reserve(ready, self.issue_cap);
                (self.alu_ring.reserve(c, self.alu_cap), 1u64)
            }
            FuKind::IntMul => {
                let c = self.issue_ring.reserve(ready, self.issue_cap);
                (self.mul_ring.reserve(c, self.mul_cap), cfg.mul_latency as u64)
            }
            FuKind::Mem => {
                let c = self.issue_ring.reserve(ready, self.issue_cap);
                (self.mem_ring.reserve(c, self.port_cap), 1u64)
            }
            FuKind::None => (ready, 0),
        };
        if is_load {
            self.stats.loads += 1;
            let access_start = iss + 1;
            let data_ready = if self.dcache.access(rec.mem_addr) {
                access_start + cfg.dcache.3 as u64
            } else {
                self.act.record_plain(Structure::DCacheL2);
                if self.l2.access(rec.mem_addr) {
                    access_start + self.l2_total_lat
                } else {
                    let start = (access_start + self.l2_total_lat).max(self.mem_bus_free);
                    self.mem_bus_free = start + self.mem_fill;
                    start + self.mem_fill
                }
            };
            lat = data_ready.saturating_sub(iss).max(1);
            // Store-to-load forwarding: data becomes available when
            // the youngest older store to the word completes.
            if let Some(&avail) = self.store_ready.get(&(rec.mem_addr >> 3)) {
                let forwarded = avail.max(iss + 1);
                lat = lat.min(forwarded.saturating_sub(iss)).max(1);
                iss = iss.max(avail.saturating_sub(lat).max(iss));
            }
        } else if is_store {
            self.stats.stores += 1;
        }
        self.issue_hist.push(iss);
        let mut complete = iss + lat.max(1);

        // ---- writeback ----------------------------------------------
        if let Some(d) = rec.dst {
            complete = self.bus_ring.reserve(complete, 4);
            if !d.is_zero() {
                self.reg_ready[d.index() as usize] = complete;
            }
        }

        // ---- control resolution -------------------------------------
        if rec.is_control() {
            self.act.record_plain(Structure::BranchPred);
            let mut redirect_at_resolve = false;
            let mut redirect_at_decode = false;
            match op {
                Op::Bc(_) => {
                    self.stats.cond_branches += 1;
                    let miss = self.bpred.predict_and_update(rec.pc, rec.taken);
                    if miss {
                        self.stats.mispredicts += 1;
                        redirect_at_resolve = true;
                    } else if rec.taken && rec.next_pc != u64::MAX {
                        redirect_at_decode = !self.bpred.btb_lookup_update(rec.pc, rec.next_pc);
                    }
                }
                Op::Br | Op::Jsr => {
                    if rec.next_pc != u64::MAX {
                        redirect_at_decode = !self.bpred.btb_lookup_update(rec.pc, rec.next_pc);
                    }
                    if op == Op::Jsr {
                        self.bpred.ras_push(rec.pc + 8);
                    }
                }
                Op::Ret => {
                    // ras_pop_matches pops the return-address stack;
                    // keep the call in the arm body (not a match guard)
                    // so the side effect stays tied to handling Ret.
                    let predicted =
                        rec.next_pc == u64::MAX || self.bpred.ras_pop_matches(rec.next_pc);
                    if !predicted {
                        redirect_at_resolve = true;
                    }
                }
                _ => {}
            }
            if redirect_at_resolve {
                self.fetch_base = self.fetch_base.max(complete + cfg.mispredict_penalty as u64);
            } else if redirect_at_decode {
                // Direct-branch target computed in decode: small bubble.
                self.fetch_base = self.fetch_base.max(f_cyc + 2);
            }
            if rec.taken {
                // Taken control breaks the fetch group.
                self.last_fetch = self.last_fetch.max(f_cyc + 1);
                self.cur_line = u64::MAX;
            }
        }

        // ---- commit -------------------------------------------------
        let c = self.retire_slots.reserve(complete.max(self.last_commit), self.retire_cap);
        self.last_commit = c;
        self.commit_hist.push(c);
        self.act.record_plain(Structure::Rob);
        if is_store {
            // the store writes the cache at commit
            let hit = self.dcache.access(rec.mem_addr);
            if !hit {
                self.act.record_plain(Structure::DCacheL2);
                self.l2.access(rec.mem_addr);
            }
            self.store_ready.insert(rec.mem_addr >> 3, complete);
        }
        if is_mem {
            self.mem_hist.push(c);
        }
    }

    /// Close the books: total cycle count, cache tallies and the
    /// bookkeeping accesses. Consumes the model (a finished machine
    /// cannot be fed more work).
    pub fn finish(self) -> SimResult {
        let mut stats = self.stats;
        stats.cycles = self.last_commit + 1;
        stats.icache = (self.icache.accesses, self.icache.misses);
        stats.dcache = (self.dcache.accesses, self.dcache.misses);
        stats.l2 = (self.l2.accesses, self.l2.misses);
        // cond_branches/mispredicts recorded inline.
        SimResult { stats, activity: self.act }
    }
}

/// The simulator: a [`TimingModel`] and a [`ValueAccountant`] fed the
/// same committed-path stream. Construct with a [`MachineConfig`],
/// [`feed`](Simulator::feed) records as the emulator commits them (it
/// implements [`og_vm::TraceSink`], so it can be handed to
/// `Vm::run_streamed` directly), then [`finish`](Simulator::finish). For
/// a materialized trace, [`run`](Simulator::run) does all three steps.
#[derive(Debug)]
pub struct Simulator {
    timing: TimingModel,
    values: ValueAccountant,
}

impl Simulator {
    /// Create a simulator ready to be fed a committed-path stream.
    ///
    /// # Panics
    ///
    /// On the configs [`TimingModel::new`] rejects.
    pub fn new(config: MachineConfig) -> Simulator {
        Simulator { timing: TimingModel::new(config), values: ValueAccountant::new() }
    }

    /// Feed one committed instruction through the pipeline model and the
    /// value accountant.
    #[inline]
    pub fn feed(&mut self, rec: &TraceRecord) {
        self.timing.feed(rec);
        self.values.feed(rec);
    }

    /// Close the books: the timing model's result with the value accesses
    /// priced into its activity record. Consumes the simulator (a
    /// finished machine cannot be fed more work).
    pub fn finish(self) -> SimResult {
        self.values.finish(self.timing.finish())
    }

    /// Simulate a materialized committed-path trace on a **fresh**
    /// machine (this simulator's state is not consulted). Convenience
    /// for tests and consumers that captured a trace with
    /// `og_vm::VecSink`.
    ///
    /// # Panics
    ///
    /// Panics if this simulator has already been fed records — that
    /// almost certainly means the caller wanted
    /// [`feed`](Simulator::feed)/[`finish`](Simulator::finish) to
    /// continue the stream, not a cold restart.
    pub fn run(&self, trace: &[TraceRecord]) -> SimResult {
        assert_eq!(
            self.timing.stats.insts, 0,
            "Simulator::run simulates from a cold machine, but this simulator has already \
             been fed; use feed()/finish() to continue the stream"
        );
        let mut sim = Simulator::new(self.timing.config.clone());
        for rec in trace {
            sim.feed(rec);
        }
        sim.finish()
    }
}

impl TraceSink for TimingModel {
    fn record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

impl TraceSink for Simulator {
    fn record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{Reg, Width};
    use og_program::rng::SplitMix64;
    use og_program::{imm, ProgramBuilder};
    use og_vm::{RunConfig, VecSink, Vm};

    /// The ring as it was before slots were packed: a `(cycle, count)`
    /// pair per slot, indexed by `%`. Kept as the oracle for [`Ring`] and
    /// [`InOrderSlots`].
    struct ReferenceRing {
        slots: Vec<(u64, u8)>,
    }

    impl ReferenceRing {
        fn new() -> ReferenceRing {
            ReferenceRing { slots: vec![(u64::MAX, 0); 16384] }
        }

        fn reserve(&mut self, mut cycle: u64, cap: u8) -> u64 {
            loop {
                let n = self.slots.len() as u64;
                let s = &mut self.slots[(cycle % n) as usize];
                if s.0 != cycle {
                    *s = (cycle, 0);
                }
                if s.1 < cap {
                    s.1 += 1;
                    return cycle;
                }
                cycle += 1;
            }
        }
    }

    /// A request near `base`: mostly a few cycles either side, sometimes
    /// a whole number of ring lengths away (the cycles that share a slot).
    fn request_near(rng: &mut SplitMix64, base: u64) -> u64 {
        let wrap = RING_SLOTS as u64 * (1 + rng.below(3));
        match rng.below(8) {
            0 => base + wrap,
            1 => base.saturating_sub(wrap),
            2 => base + rng.below(64),
            _ => (base + rng.below(6)).saturating_sub(rng.below(4)),
        }
    }

    /// Out-of-order requests, including cycles a ring length apart:
    /// the packed ring reserves exactly what the reference reserves.
    #[test]
    fn packed_ring_matches_the_reference() {
        let mut draw = SplitMix64::new(0x4196);
        for case in 0..64 {
            let (seed, cap) = (draw.next_u64(), 1 + draw.below(255) as u8);
            let cap = if seed & 1 == 0 { cap % 8 + 1 } else { cap };
            let (mut ring, mut reference) = (Ring::new(), ReferenceRing::new());
            let mut rng = SplitMix64::new(seed);
            let mut base = 0;
            for i in 0..3_000 {
                let cycle = request_near(&mut rng, base);
                let got = ring.reserve(cycle, cap);
                assert_eq!(
                    got,
                    reference.reserve(cycle, cap),
                    "case {case}: request {i} at {cycle}"
                );
                base = got;
            }
        }
    }

    /// Requests that never precede the latest reservation, as fetch's
    /// and retire's: the (cycle, count) pair reserves exactly what the
    /// reference ring reserves.
    #[test]
    fn in_order_slots_match_the_reference_ring() {
        let mut draw = SplitMix64::new(0x5107);
        for case in 0..64 {
            let (seed, cap) = (draw.next_u64(), 1 + draw.below(8) as u8);
            let (mut slots, mut reference) = (InOrderSlots::default(), ReferenceRing::new());
            let mut rng = SplitMix64::new(seed);
            let mut latest = 0;
            for i in 0..3_000 {
                let cycle = request_near(&mut rng, latest).max(latest);
                let got = slots.reserve(cycle, cap);
                assert_eq!(
                    got,
                    reference.reserve(cycle, cap),
                    "case {case}: request {i} at {cycle}"
                );
                latest = got;
            }
        }
    }

    /// `counted_loop(50)` on `config`.
    fn simulate_on(config: MachineConfig) -> SimResult {
        Simulator::new(config).run(&counted_loop(50))
    }

    #[test]
    #[should_panic(expected = "MachineConfig::fetch_width must be in 1..=255, got 256")]
    fn a_fetch_width_beyond_255_is_rejected() {
        simulate_on(MachineConfig { fetch_width: 256, ..MachineConfig::default() });
    }

    #[test]
    #[should_panic(expected = "MachineConfig::issue_width must be in 1..=255, got 0")]
    fn a_zero_issue_width_is_rejected() {
        simulate_on(MachineConfig { issue_width: 0, ..MachineConfig::default() });
    }

    #[test]
    #[should_panic(expected = "MachineConfig::phys_regs must exceed the 32 architectural")]
    fn fewer_physical_than_architectural_registers_are_rejected() {
        simulate_on(MachineConfig { phys_regs: 16, ..MachineConfig::default() });
    }

    #[test]
    #[should_panic(expected = "MachineConfig::rob_size must be at least 1")]
    fn an_empty_rob_is_rejected() {
        simulate_on(MachineConfig { rob_size: 0, ..MachineConfig::default() });
    }

    fn trace_of(build: impl FnOnce(&mut og_program::FunctionBuilder)) -> Vec<TraceRecord> {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        build(&mut f);
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut sink = VecSink::new();
        vm.run_streamed(&mut sink).unwrap();
        sink.into_records()
    }

    fn counted_loop(n: i64) -> Vec<TraceRecord> {
        trace_of(|f| {
            f.ldi(Reg::T0, 0);
            f.block("loop");
            f.add(Width::D, Reg::T1, Reg::T0, Reg::T0);
            f.add(Width::D, Reg::T0, Reg::T0, imm(1));
            f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(n));
            f.bne(Reg::T2, "loop");
            f.block("exit");
            f.halt();
        })
    }

    #[test]
    fn ipc_is_plausible_for_independent_work() {
        let r = Simulator::new(MachineConfig::default()).run(&counted_loop(2000));
        let ipc = r.stats.ipc();
        assert!(ipc > 1.0, "4-wide machine on simple loop: ipc={ipc}");
        assert!(ipc <= 4.0, "cannot exceed machine width: ipc={ipc}");
    }

    #[test]
    fn dependent_chain_is_slower_than_independent_ops() {
        // A loop whose body is a serial multiply chain vs one with
        // independent multiplies (loops keep the I-cache warm).
        let looped = |serial: bool| {
            trace_of(move |f| {
                f.ldi(Reg::T0, 0);
                f.ldi(Reg::S1, 0);
                f.block("loop");
                for i in 0..6 {
                    if serial {
                        f.mul(Width::D, Reg::T0, Reg::T0, imm(1));
                    } else {
                        let d = [Reg::T1, Reg::T2, Reg::T3][i % 3];
                        f.mul(Width::D, d, Reg::T0, imm(1));
                    }
                }
                f.add(Width::D, Reg::S1, Reg::S1, imm(1));
                f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::S2, Reg::S1, imm(100));
                f.bne(Reg::S2, "loop");
                f.block("exit");
                f.halt();
            })
        };
        let sim = Simulator::new(MachineConfig::default());
        let c_chain = sim.run(&looped(true)).stats.cycles;
        let c_indep = sim.run(&looped(false)).stats.cycles;
        assert!(
            c_chain as f64 > c_indep as f64 * 2.0,
            "serial mul chain ({c_chain}) must be much slower than independent ({c_indep})"
        );
    }

    #[test]
    fn branch_predictor_reduces_cycles_on_regular_loops() {
        let r = Simulator::new(MachineConfig::default()).run(&counted_loop(3000));
        // A counted loop's backward branch is learned quickly.
        let rate = r.stats.mispredicts as f64 / r.stats.cond_branches.max(1) as f64;
        assert!(rate < 0.05, "mispredict rate {rate}");
    }

    #[test]
    fn feed_finish_matches_slice_run() {
        let t = counted_loop(500);
        let via_run = Simulator::new(MachineConfig::default()).run(&t);
        let mut sim = Simulator::new(MachineConfig::default());
        for rec in &t {
            sim.feed(rec);
        }
        assert_eq!(sim.finish(), via_run);
    }

    #[test]
    fn simulator_is_a_trace_sink_fusable_with_the_vm() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(300));
        f.bne(Reg::T1, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // Fused: one pass, the simulator consumes records as they commit.
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut sim = Simulator::new(MachineConfig::default());
        vm.run_streamed(&mut sim).unwrap();
        let fused = sim.finish();
        // Materialized: capture, then simulate the slice.
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut sink = VecSink::new();
        vm.run_streamed(&mut sink).unwrap();
        let materialized = Simulator::new(MachineConfig::default()).run(sink.records());
        assert_eq!(fused, materialized);
        assert_eq!(fused.stats.insts, sink.records().len() as u64);
    }

    #[test]
    fn memory_latency_visible() {
        let mut pb = ProgramBuilder::new();
        pb.data_zeroed("buf", 1 << 20);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::S0, "buf");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.ld(Width::D, Reg::T1, Reg::S0, 0);
        f.add(Width::D, Reg::S0, Reg::S0, imm(4096)); // page stride: always miss
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(200));
        f.bne(Reg::T2, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut strided_sim = Simulator::new(MachineConfig::default());
        vm.run_streamed(&mut strided_sim).unwrap();
        let strided = strided_sim.finish();
        assert!(strided.stats.dcache.1 >= 199, "strided loads must miss");
        // Same loop hitting a single address:
        let hot = trace_of(|f| {
            f.ldi(Reg::T0, 0);
            f.block("loop");
            f.ld(Width::D, Reg::T1, Reg::GP, 0);
            f.add(Width::D, Reg::T0, Reg::T0, imm(1));
            f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(200));
            f.bne(Reg::T2, "loop");
            f.block("exit");
            f.halt();
        });
        let hit = Simulator::new(MachineConfig::default()).run(&hot);
        assert!(
            strided.stats.cycles > hit.stats.cycles + 1000,
            "misses must cost cycles: {} vs {}",
            strided.stats.cycles,
            hit.stats.cycles
        );
    }

    #[test]
    fn activity_tracks_widths() {
        let narrow = trace_of(|f| {
            f.ldi(Reg::T0, 1);
            for _ in 0..100 {
                f.add(Width::B, Reg::T0, Reg::T0, imm(0));
            }
            f.halt();
        });
        let wide = trace_of(|f| {
            f.ldi(Reg::T0, 1);
            for _ in 0..100 {
                f.add(Width::D, Reg::T0, Reg::T0, imm(0));
            }
            f.halt();
        });
        let sim = Simulator::new(MachineConfig::default());
        let rn = sim.run(&narrow);
        let rw = sim.run(&wide);
        let fu_n = rn.activity.of(Structure::Fu).bytes.software;
        let fu_w = rw.activity.of(Structure::Fu).bytes.software;
        assert!(fu_n < fu_w / 4, "byte ops use far fewer FU lanes: {fu_n} vs {fu_w}");
        // hardware significance sees identical dynamic values
        assert_eq!(
            rn.activity.of(Structure::Fu).bytes.hw_significance,
            rw.activity.of(Structure::Fu).bytes.hw_significance
        );
    }

    /// The timing model reads no width and no significance: the same
    /// path with every width and significance scrambled times exactly
    /// alike. The simulator is the timing model plus the accountant.
    #[test]
    fn timing_ignores_widths_and_significances() {
        let mut pb = ProgramBuilder::new();
        pb.data_zeroed("buf", 8192);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::S0, "buf");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.ld(Width::D, Reg::T1, Reg::S0, 0);
        f.mul(Width::D, Reg::T1, Reg::T1, imm(3));
        f.st(Width::W, Reg::T0, Reg::S0, 8);
        f.add(Width::D, Reg::S0, Reg::S0, imm(24));
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(300));
        f.bne(Reg::T2, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let mut sink = VecSink::new();
        Vm::new(&pb.build().unwrap(), RunConfig::default()).run_streamed(&mut sink).unwrap();
        let trace = sink.into_records();
        let mut rng = SplitMix64::new(7);
        let mut sig = || rng.below(9) as u8;
        let scrambled: Vec<TraceRecord> = trace
            .iter()
            .map(|rec| TraceRecord {
                width: Width::ALL[(rec.pc / 8 % 4) as usize],
                dst_sig: sig(),
                src_sigs: [sig(), sig()],
                ..*rec
            })
            .collect();
        let timing = |trace: &[TraceRecord]| {
            let mut model = TimingModel::new(MachineConfig::default());
            trace.iter().for_each(|rec| model.feed(rec));
            model.finish()
        };
        let values = |trace: &[TraceRecord]| {
            let mut values = ValueAccountant::new();
            trace.iter().for_each(|rec| values.feed(rec));
            values
        };
        assert_eq!(timing(&scrambled), timing(&trace));
        let sim = Simulator::new(MachineConfig::default());
        assert_eq!(values(&trace).finish(timing(&trace)), sim.run(&trace));
        let joined = values(&scrambled).finish(timing(&trace));
        assert_eq!(joined, sim.run(&scrambled));
        assert_ne!(joined, sim.run(&trace), "scrambled values must price differently");
    }

    #[test]
    fn deterministic() {
        let t = counted_loop(500);
        let sim = Simulator::new(MachineConfig::default());
        assert_eq!(sim.run(&t), sim.run(&t));
    }
}
