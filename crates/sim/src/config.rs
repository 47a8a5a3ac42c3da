//! Machine configuration (the paper's Table 2).

/// Parameters of the simulated machine. [`MachineConfig::default`] is the
/// paper's Table 2 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions decoded/renamed per cycle.
    pub decode_width: u32,
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// Maximum in-flight instructions (ROB entries).
    pub rob_size: u32,
    /// Issue-queue entries.
    pub iq_size: u32,
    /// Load/store queue entries.
    pub lsq_size: u32,
    /// Physical integer registers.
    pub phys_regs: u32,
    /// Integer ALUs.
    pub int_alus: u32,
    /// Integer multiplier/dividers.
    pub int_muls: u32,
    /// FP ALUs (idle under integer workloads, still powered).
    pub fp_alus: u32,
    /// FP multiplier/dividers.
    pub fp_muls: u32,
    /// L1 data-cache read/write ports.
    pub dcache_ports: u32,
    /// Front-end depth in cycles from fetch to dispatch.
    pub frontend_depth: u32,
    /// Extra cycles to redirect fetch after a mispredicted branch
    /// resolves.
    pub mispredict_penalty: u32,
    /// Integer multiply latency.
    pub mul_latency: u32,
    /// L1 instruction cache: (bytes, associativity, line bytes, hit lat).
    pub icache: (u32, u32, u32, u32),
    /// L1 data cache: (bytes, associativity, line bytes, hit latency).
    pub dcache: (u32, u32, u32, u32),
    /// Unified L2: (bytes, associativity, line bytes, hit latency).
    pub l2: (u32, u32, u32, u32),
    /// Main memory: cycles for the first 16-byte chunk.
    pub mem_first_chunk: u32,
    /// Cycles per subsequent 16-byte chunk.
    pub mem_inter_chunk: u32,
    /// Return-address-stack depth.
    pub ras_depth: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            retire_width: 4,
            rob_size: 64,
            iq_size: 32,
            lsq_size: 32,
            phys_regs: 96,
            int_alus: 3,
            int_muls: 1,
            fp_alus: 3,
            fp_muls: 1,
            dcache_ports: 3,
            frontend_depth: 3,
            mispredict_penalty: 2,
            mul_latency: 7,
            icache: (64 * 1024, 2, 32, 1),
            dcache: (64 * 1024, 2, 32, 1),
            l2: (256 * 1024, 4, 64, 6),
            mem_first_chunk: 16,
            mem_inter_chunk: 2,
            ras_depth: 16,
        }
    }
}

impl MachineConfig {
    /// Cycles to fetch a full line of `line_bytes` from main memory
    /// (16-byte bus, first chunk slow, subsequent chunks pipelined).
    pub fn memory_latency(&self, line_bytes: u32) -> u32 {
        let chunks = line_bytes.div_ceil(16).max(1);
        self.mem_first_chunk + (chunks - 1) * self.mem_inter_chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let c = MachineConfig::default();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_size, 64);
        assert_eq!(c.phys_regs, 96);
        assert_eq!(c.int_alus, 3);
        assert_eq!(c.icache.0, 64 * 1024);
        assert_eq!(c.l2.1, 4);
    }

    #[test]
    fn memory_latency_chunks() {
        let c = MachineConfig::default();
        assert_eq!(c.memory_latency(16), 16);
        assert_eq!(c.memory_latency(32), 18);
        assert_eq!(c.memory_latency(64), 22);
    }
}
