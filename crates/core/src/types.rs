//! Fundamental types shared by the renaming/release machinery.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a physical register inside one class' register file.
///
/// The paper calls these `pd`, `p1`, `p2`, `old_pd` (Figure 1 / Figure 5).
/// The identifier alone does not say which class the register belongs to;
/// APIs that need the class take an explicit
/// [`RegClass`](earlyreg_isa::RegClass) alongside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhysReg(pub u16);

impl PhysReg {
    /// Index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Unique identifier of a dynamic (renamed) instruction.
///
/// The paper uses the ROS address as the instruction identifier; this
/// reproduction uses a monotonically increasing sequence number instead,
/// which is strictly more informative (it never wraps and it encodes program
/// order: `a.0 < b.0` iff `a` is older than `b`).  Identifiers are never
/// reused, even after squashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstrId(pub u64);

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Which operand slot of an instruction uses a register (the `Kind` field of
/// the Last-Uses Table, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UseKind {
    /// First source operand.
    Src1,
    /// Second source operand.
    Src2,
    /// Destination operand (covers the Figure 4.b case where a value is never
    /// read: the defining instruction is its own last "user").
    Dst,
}

impl UseKind {
    /// Dense index (0, 1, 2) used for the three early-release bits
    /// (`rel1`, `rel2`, `reld`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            UseKind::Src1 => 0,
            UseKind::Src2 => 1,
            UseKind::Dst => 2,
        }
    }

    /// Bit mask with only this kind's bit set (used by the Release Queue's
    /// per-entry 3-bit arrays).
    #[inline]
    pub fn mask(self) -> u8 {
        1 << self.index()
    }

    /// All kinds in `rel1`, `rel2`, `reld` order.
    pub const ALL: [UseKind; 3] = [UseKind::Src1, UseKind::Src2, UseKind::Dst];
}

/// A register release scheme, identified by its slot in the policy
/// [registry](crate::registry).
///
/// An opaque handle into the registry, so a scheme plugs in without
/// touching the engine, the experiment harness or the serving layer.  The
/// registered schemes are the paper's three, available as the associated
/// constants [`ReleasePolicy::Conventional`], [`ReleasePolicy::Basic`] and
/// [`ReleasePolicy::Extended`] and enumerated by
/// [`crate::registry::registered`].
///
/// `Ord` follows registry order — the order the figures plot the schemes —
/// and gives experiment sweeps a deterministic point ordering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReleasePolicy(pub(crate) u8);

#[allow(non_upper_case_globals)] // these consts replace former enum variants
impl ReleasePolicy {
    /// Conventional release: the previous version (`old_pd`) is released when
    /// the redefining (next-version) instruction commits (paper Section 2).
    pub const Conventional: ReleasePolicy = ReleasePolicy(0);
    /// The *basic* early-release mechanism (paper Section 3): a Last-Uses
    /// Table pairs every redefinition with the last use of the previous
    /// version; when no unverified branch lies between the two, the release
    /// is retimed to the last use's commit (or performed immediately if the
    /// last use has already committed).
    pub const Basic: ReleasePolicy = ReleasePolicy(1);
    /// The *extended* mechanism (paper Section 4): redefinitions decoded
    /// under unresolved branches schedule *conditional* releases in a Release
    /// Queue, which are cancelled on misprediction and performed at last-use
    /// commit / oldest-branch confirmation otherwise.  The conventional
    /// `old_pd`/`rel_old` path is removed entirely.
    pub const Extended: ReleasePolicy = ReleasePolicy(2);

    /// Registry slot of this policy.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The registry descriptor of this policy.
    pub fn descriptor(self) -> &'static crate::registry::PolicyDescriptor {
        &crate::registry::descriptors()[self.index()]
    }

    /// Stable id used in reports, cache keys, scenario files and the JSON
    /// API ("conv", "basic", "extended").
    pub fn label(self) -> &'static str {
        self.descriptor().id
    }

    /// Parse a policy name against the registry, case-insensitively,
    /// accepting ids and aliases — the one parser behind every user-facing
    /// surface (`earlyreg-exp point --policy`, `Scenario` files, the
    /// `earlyreg-serve` JSON API), so the accepted spellings cannot drift.
    /// Unknown names fail with a message enumerating the registered ids.
    pub fn parse(name: &str) -> Result<Self, String> {
        crate::registry::parse(name)
    }
}

impl fmt::Debug for ReleasePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for ReleasePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// The policy serializes as its registry id string, so cache keys and JSON
// payloads stay stable when new schemes are registered: new ids extend the
// keyspace without perturbing existing keys, no CACHE_VERSION bump needed.
// (The one-time switch from enum variant names to ids was itself a key
// schema change, covered by the CACHE_VERSION 3 bump in the experiments
// crate.)
impl Serialize for ReleasePolicy {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Str(self.label().to_string())
    }
}

impl<'de> Deserialize<'de> for ReleasePolicy {
    fn from_value(value: &serde::value::Value) -> Result<Self, serde::value::Error> {
        let name = value
            .as_str()
            .ok_or_else(|| serde::value::Error::msg("release policy must be a string id"))?;
        ReleasePolicy::parse(name).map_err(serde::value::Error::msg)
    }
}

/// Configuration of the rename/release engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RenameConfig {
    /// Release policy.
    pub policy: ReleasePolicy,
    /// Physical registers in the integer file (the paper sweeps 40–160).
    pub phys_int: usize,
    /// Physical registers in the FP file.
    pub phys_fp: usize,
    /// Maximum branches pending verification (Table 2: 20); also the depth of
    /// the checkpoint stack and of the Release Queue.
    pub max_pending_branches: usize,
    /// Reorder-structure size (Table 2: 128); used for sanity checks only.
    pub ros_size: usize,
    /// Apply the "register reuse" optimisation of Section 3.2: when the last
    /// use of the previous version has already committed, keep the mapping
    /// and reuse the same physical register for the new version instead of
    /// releasing it and allocating a fresh one.
    pub reuse_on_committed_lu: bool,
}

impl RenameConfig {
    /// The aggressive 8-way configuration of the paper's Table 2 with the
    /// given per-class physical register file sizes.
    pub fn icpp02(policy: ReleasePolicy, phys_int: usize, phys_fp: usize) -> Self {
        RenameConfig {
            policy,
            phys_int,
            phys_fp,
            max_pending_branches: 20,
            ros_size: 128,
            reuse_on_committed_lu: true,
        }
    }

    /// Physical register count for a class.
    pub fn phys_regs(&self, class: earlyreg_isa::RegClass) -> usize {
        match class {
            earlyreg_isa::RegClass::Int => self.phys_int,
            earlyreg_isa::RegClass::Fp => self.phys_fp,
        }
    }

    /// Validate the configuration (enough physical registers to hold the
    /// architectural state plus at least one rename buffer, sane sizes).
    pub fn validate(&self) -> Result<(), String> {
        for class in earlyreg_isa::RegClass::ALL {
            let p = self.phys_regs(class);
            let l = class.num_logical();
            if p < l + 1 {
                return Err(format!(
                    "{class} register file has {p} physical registers but at least {} are needed \
                     (32 architectural + 1 rename buffer)",
                    l + 1
                ));
            }
            if p > u16::MAX as usize {
                return Err(format!(
                    "{class} register file size {p} exceeds the PhysReg range"
                ));
            }
        }
        if self.max_pending_branches == 0 {
            return Err("max_pending_branches must be at least 1".into());
        }
        if self.ros_size == 0 {
            return Err("ros_size must be at least 1".into());
        }
        Ok(())
    }

    /// Whether the file of `class` is *loose* in the paper's sense
    /// (`P >= L + N`, Section 2): the processor can never stall for lack of
    /// physical registers.
    pub fn is_loose(&self, class: earlyreg_isa::RegClass) -> bool {
        self.phys_regs(class) >= class.num_logical() + self.ros_size
    }
}

/// Why `RenameUnit::rename` could not accept an instruction this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RenameStall {
    /// No free physical register in the required class (the "tight register
    /// file" stall the paper's evaluation revolves around).
    NoFreePhysReg(earlyreg_isa::RegClass),
    /// The checkpoint stack / Release Queue is full (too many unverified
    /// branches in flight).
    TooManyPendingBranches,
}

impl fmt::Display for RenameStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenameStall::NoFreePhysReg(c) => write!(f, "no free {c} physical register"),
            RenameStall::TooManyPendingBranches => write!(f, "too many pending branches"),
        }
    }
}

/// Why a physical register was returned to the free list (used by the
/// release-accounting statistics and by tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReleaseReason {
    /// Conventional release: previous version freed at the commit of the
    /// redefining instruction.
    Conventional,
    /// Early release at the commit of the last-use instruction (rel1/rel2/reld
    /// bits, or RwC0 in the extended mechanism).
    EarlyAtLuCommit,
    /// Immediate release at decode of the redefining instruction (last use
    /// already committed, no pending branches).
    ImmediateAtDecode,
    /// The previous version was *reused* as the new version's physical
    /// register (Section 3.2 optimisation) — not an actual free-list push,
    /// but accounted as the end of the old version's lifetime.
    Reused,
    /// Conditional release performed when the oldest pending branch was
    /// confirmed (RwNS1, extended mechanism Step 6).
    BranchConfirm,
    /// Register allocated by a squashed (wrong-path) instruction, returned on
    /// branch misprediction recovery.
    SquashMispredict,
    /// Register allocated by a squashed instruction, returned on exception
    /// recovery.
    SquashException,
}

impl ReleaseReason {
    /// True for the reasons that correspond to an *early* release of a
    /// committed (architectural) register version.
    pub fn is_early(self) -> bool {
        matches!(
            self,
            ReleaseReason::EarlyAtLuCommit
                | ReleaseReason::ImmediateAtDecode
                | ReleaseReason::Reused
                | ReleaseReason::BranchConfirm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_isa::RegClass;

    #[test]
    fn phys_reg_display_and_index() {
        let p = PhysReg(17);
        assert_eq!(p.index(), 17);
        assert_eq!(p.to_string(), "p17");
    }

    #[test]
    fn instr_id_orders_by_program_order() {
        assert!(InstrId(3) < InstrId(10));
        assert_eq!(InstrId(3).to_string(), "#3");
    }

    #[test]
    fn use_kind_indices_and_masks() {
        assert_eq!(UseKind::Src1.index(), 0);
        assert_eq!(UseKind::Src2.index(), 1);
        assert_eq!(UseKind::Dst.index(), 2);
        assert_eq!(UseKind::Src1.mask(), 0b001);
        assert_eq!(UseKind::Dst.mask(), 0b100);
    }

    #[test]
    fn policy_labels_and_ordering() {
        assert_eq!(ReleasePolicy::Conventional.label(), "conv");
        assert_eq!(ReleasePolicy::Basic.label(), "basic");
        assert_eq!(ReleasePolicy::Extended.label(), "extended");
        // Registry order is the paper's plot order.
        assert!(ReleasePolicy::Conventional < ReleasePolicy::Basic);
        assert!(ReleasePolicy::Basic < ReleasePolicy::Extended);
    }

    #[test]
    fn policy_serializes_as_its_id() {
        use serde::Serialize as _;
        let v = ReleasePolicy::Extended.to_value();
        assert_eq!(v.as_str(), Some("extended"));
        let back: ReleasePolicy = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, ReleasePolicy::Extended);
        let bad: Result<ReleasePolicy, _> =
            serde::Deserialize::from_value(&serde::value::Value::Str("bogus".to_string()));
        assert!(bad.is_err());
    }

    #[test]
    fn config_validation() {
        let ok = RenameConfig::icpp02(ReleasePolicy::Extended, 48, 48);
        assert!(ok.validate().is_ok());
        let too_small = RenameConfig::icpp02(ReleasePolicy::Extended, 32, 48);
        assert!(too_small.validate().is_err());
        let mut bad = ok;
        bad.max_pending_branches = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn loose_vs_tight() {
        let cfg = RenameConfig::icpp02(ReleasePolicy::Conventional, 96, 160);
        assert!(!cfg.is_loose(RegClass::Int)); // 96 < 32 + 128
        assert!(cfg.is_loose(RegClass::Fp)); // 160 >= 32 + 128
    }

    #[test]
    fn release_reason_classification() {
        assert!(ReleaseReason::EarlyAtLuCommit.is_early());
        assert!(ReleaseReason::Reused.is_early());
        assert!(!ReleaseReason::Conventional.is_early());
        assert!(!ReleaseReason::SquashMispredict.is_early());
    }

    #[test]
    fn icpp02_defaults_match_table2() {
        let cfg = RenameConfig::icpp02(ReleasePolicy::Basic, 64, 64);
        assert_eq!(cfg.max_pending_branches, 20);
        assert_eq!(cfg.ros_size, 128);
        assert!(cfg.reuse_on_committed_lu);
        assert_eq!(cfg.phys_regs(RegClass::Int), 64);
        assert_eq!(cfg.phys_regs(RegClass::Fp), 64);
    }
}
