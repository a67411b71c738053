//! Machine configuration (the paper's Table 2).

use earlyreg_core::{ReleasePolicy, RenameConfig};
use earlyreg_isa::FuClass;
use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }

    /// Validate geometry (power-of-two sets, non-degenerate sizes).
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.line_bytes == 0 || self.associativity == 0 {
            return Err("cache sizes must be non-zero".into());
        }
        if !self
            .size_bytes
            .is_multiple_of(self.line_bytes * self.associativity)
        {
            return Err(format!(
                "cache size {} is not divisible by line size {} x associativity {}",
                self.size_bytes, self.line_bytes, self.associativity
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!(
                "number of sets ({}) must be a power of two",
                self.sets()
            ));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        Ok(())
    }
}

/// Branch predictor configuration (Table 2: 18-bit gshare, speculative
/// updates, up to 20 pending branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// gshare history length / table index width in bits.
    pub gshare_bits: u32,
    /// Extra cycles lost on a misprediction redirect beyond the natural
    /// refill of the front end.
    pub mispredict_redirect_penalty: u32,
}

/// Deterministic exception injection, used to exercise the precise-exception
/// recovery path (the paper's Section 4.3).  Real SPEC95 runs take
/// essentially no synchronous exceptions, so the default is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExceptionConfig {
    /// Raise an exception at the commit point every `interval` committed
    /// instructions (`None` disables injection).
    pub interval: Option<u64>,
    /// Cycles the handler keeps the front end stalled.
    pub handler_cycles: u64,
}

/// Full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Instructions fetched per cycle (Table 2: 8).
    pub fetch_width: usize,
    /// Taken control transfers followed within one fetch cycle (Table 2: 2).
    pub max_taken_per_fetch: usize,
    /// Instructions renamed/dispatched per cycle.
    pub decode_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle (Table 2: 8).
    pub commit_width: usize,
    /// Reorder structure size (Table 2: 128); doubles as the issue window, as
    /// in SimpleScalar's RUU model.
    pub ros_size: usize,
    /// Load/store queue entries (Table 2: 64).
    pub lsq_size: usize,
    /// Capacity of the fetch buffer between fetch and rename.
    pub fetch_buffer: usize,
    /// Functional units per class, indexed by [`FuClass::index`]
    /// (Table 2: 8 simple int, 4 int mult, 6 simple FP, 4 FP mult, 4 FP div,
    /// 4 load/store ports).
    pub fu_counts: [usize; 6],
    /// Execution latency per class (memory uses the cache model instead).
    pub fu_latencies: [u32; 6],
    /// Branch predictor.
    pub predictor: PredictorConfig,
    /// L1 instruction cache (Table 2: 32 KB, 2-way, 32 B lines, 1 cycle).
    pub icache: CacheConfig,
    /// L1 data cache (Table 2: 32 KB, 2-way, 64 B lines, 1 cycle).
    pub dcache: CacheConfig,
    /// Unified L2 (Table 2: 1 MB, 2-way, 64 B lines, 12 cycles).
    pub l2: CacheConfig,
    /// Main memory latency in cycles (Table 2: 50).
    pub memory_latency: u32,
    /// Rename / release configuration (policy + physical register counts).
    pub rename: RenameConfig,
    /// Exception injection.
    pub exceptions: ExceptionConfig,
}

impl MachineConfig {
    /// The aggressive 8-way machine of the paper's Table 2 with the given
    /// release policy and per-class physical register file sizes.
    pub fn icpp02(policy: ReleasePolicy, phys_int: usize, phys_fp: usize) -> Self {
        MachineConfig {
            fetch_width: 8,
            max_taken_per_fetch: 2,
            decode_width: 8,
            issue_width: 8,
            commit_width: 8,
            ros_size: 128,
            lsq_size: 64,
            fetch_buffer: 16,
            fu_counts: [8, 4, 6, 4, 4, 4],
            fu_latencies: [
                FuClass::IntAlu.table2_latency(),
                FuClass::IntMul.table2_latency(),
                FuClass::FpAdd.table2_latency(),
                FuClass::FpMul.table2_latency(),
                FuClass::FpDiv.table2_latency(),
                0,
            ],
            predictor: PredictorConfig {
                gshare_bits: 18,
                mispredict_redirect_penalty: 2,
            },
            icache: CacheConfig {
                size_bytes: 32 * 1024,
                associativity: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            dcache: CacheConfig {
                size_bytes: 32 * 1024,
                associativity: 2,
                line_bytes: 64,
                hit_latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                associativity: 2,
                line_bytes: 64,
                hit_latency: 12,
            },
            memory_latency: 50,
            rename: RenameConfig::icpp02(policy, phys_int, phys_fp),
            exceptions: ExceptionConfig {
                interval: None,
                handler_cycles: 30,
            },
        }
    }

    /// A scaled-down machine used by fast unit tests: same structure,
    /// smaller caches and windows.
    pub fn small(policy: ReleasePolicy, phys_int: usize, phys_fp: usize) -> Self {
        let mut cfg = Self::icpp02(policy, phys_int, phys_fp);
        cfg.ros_size = 32;
        cfg.lsq_size = 16;
        cfg.rename.ros_size = 32;
        cfg.icache.size_bytes = 4 * 1024;
        cfg.dcache.size_bytes = 4 * 1024;
        cfg.l2.size_bytes = 64 * 1024;
        cfg
    }

    /// Validate every component of the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0
            || self.decode_width == 0
            || self.issue_width == 0
            || self.commit_width == 0
        {
            return Err("pipeline widths must be non-zero".into());
        }
        if self.ros_size == 0 || self.lsq_size == 0 || self.fetch_buffer == 0 {
            return Err("queue sizes must be non-zero".into());
        }
        if self.fu_counts.iter().all(|&c| c == 0) {
            return Err("at least one functional unit is required".into());
        }
        if self.predictor.gshare_bits == 0 || self.predictor.gshare_bits > 24 {
            return Err("gshare history length must be between 1 and 24 bits".into());
        }
        self.icache.validate().map_err(|e| format!("icache: {e}"))?;
        self.dcache.validate().map_err(|e| format!("dcache: {e}"))?;
        self.l2.validate().map_err(|e| format!("l2: {e}"))?;
        self.rename.validate().map_err(|e| format!("rename: {e}"))?;
        if self.exceptions.interval == Some(0) {
            return Err("exception interval must be at least 1 instruction".into());
        }
        if self.rename.ros_size != self.ros_size {
            return Err(format!(
                "rename.ros_size ({}) must match ros_size ({})",
                self.rename.ros_size, self.ros_size
            ));
        }
        Ok(())
    }

    /// Execution latency for a functional-unit class.
    pub fn latency(&self, class: FuClass) -> u32 {
        self.fu_latencies[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_configuration_is_valid() {
        let cfg = MachineConfig::icpp02(ReleasePolicy::Extended, 96, 96);
        cfg.validate().expect("Table 2 configuration must validate");
        assert_eq!(cfg.fetch_width, 8);
        assert_eq!(cfg.commit_width, 8);
        assert_eq!(cfg.ros_size, 128);
        assert_eq!(cfg.lsq_size, 64);
        assert_eq!(cfg.fu_counts, [8, 4, 6, 4, 4, 4]);
        assert_eq!(cfg.latency(FuClass::FpDiv), 16);
        assert_eq!(cfg.memory_latency, 50);
        assert_eq!(cfg.rename.max_pending_branches, 20);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 1,
        };
        assert_eq!(c.sets(), 256);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_cache_geometry_is_rejected() {
        let c = CacheConfig {
            size_bytes: 3000,
            associativity: 2,
            line_bytes: 64,
            hit_latency: 1,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn mismatched_ros_sizes_are_rejected() {
        let mut cfg = MachineConfig::icpp02(ReleasePolicy::Basic, 64, 64);
        cfg.ros_size = 64;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn small_configuration_is_valid() {
        let cfg = MachineConfig::small(ReleasePolicy::Basic, 48, 48);
        cfg.validate().unwrap();
        assert_eq!(cfg.ros_size, 32);
    }

    #[test]
    fn exception_injection_defaults_off() {
        let cfg = MachineConfig::icpp02(ReleasePolicy::Conventional, 64, 64);
        assert_eq!(cfg.exceptions.interval, None);
    }

    #[test]
    fn zero_exception_interval_is_rejected() {
        let mut cfg = MachineConfig::icpp02(ReleasePolicy::Conventional, 64, 64);
        cfg.exceptions.interval = Some(0);
        assert!(cfg.validate().unwrap_err().contains("exception interval"));
        cfg.exceptions.interval = Some(1);
        assert!(cfg.validate().is_ok());
    }
}
