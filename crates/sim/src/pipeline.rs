//! The cycle-level out-of-order pipeline.
//!
//! The machine model follows the paper's Table 2 and SimpleScalar's
//! register-update-unit organisation: an 8-wide front end with an 18-bit
//! gshare predictor, a 128-entry reorder structure that doubles as the issue
//! window, a 64-entry load/store queue with forwarding and conservative load
//! scheduling, the Table 2 functional-unit mix, split 32 KB L1 caches backed
//! by a 1 MB L2 and 50-cycle memory, and 8-wide in-order commit.
//!
//! Register renaming and physical-register release are delegated entirely to
//! [`earlyreg_core::RenameUnit`], so the same pipeline runs under every
//! release scheme in the policy registry — the paper's conventional, basic
//! and extended mechanisms, exactly the experiment the paper performs.
//!
//! Wrong-path instructions are fetched, renamed and executed (consuming
//! physical registers, issue slots and cache bandwidth) and are squashed when
//! the mispredicted branch resolves, as in `sim-outorder`.  Wrong-path stores
//! never modify architectural memory because stores write at commit.
//!
//! ## Hot-loop organisation
//!
//! The per-cycle loop is event-driven rather than scan-based: instead of
//! walking the whole 128-entry window every cycle for issue candidates and
//! completions, the pipeline maintains three incremental structures keyed by
//! `(InstrId, slot)` pairs into the ring-buffer reorder structure:
//!
//! * **wakeup lists** (`waiters`): per physical register, the dispatched
//!   consumers still waiting for it.  Writeback drains the destination's
//!   list and decrements each consumer's `waiting_srcs` count.
//! * **attention list** (`attention`): dispatched instructions that the
//!   issue stage must examine — fully source-ready candidates, plus stores
//!   whose base register is ready but whose address is not yet published to
//!   the LSQ.  The list is kept sorted by id so selection priority (oldest
//!   first, bounded by the issue width) matches the program-order scan it
//!   replaces.
//! * **completion buckets** (`completions`): a cycle-indexed ring of
//!   scheduled completion events, filled at issue time and drained at
//!   writeback.
//!
//! Entries referencing squashed instructions are dropped lazily: every
//! consumer revalidates the cached slot's id before acting.  All per-cycle
//! collections are persistent members, so steady-state cycles perform no
//! heap allocation.

use crate::branch::GsharePredictor;
use crate::cache::MemoryHierarchy;
use crate::config::MachineConfig;
use crate::frontend::{
    FetchBuffer, FetchedInstr, FrontEndTable, FETCH_BRANCH, FETCH_HALT, FETCH_JUMP,
};
use crate::fu::FuPool;
use crate::lsq::{ForwardResult, LoadStoreQueue};
use crate::profile::prof;
use crate::replay::ReplayCursor;
use crate::rob::{InstrState, ReorderBuffer, RobEntry};
use crate::stats::SimStats;
use earlyreg_core::{InstrId, PhysReg, ReleaseScheme, RenameStall, RenameUnit, RenamedInstr};
use earlyreg_isa::{semantics, ArchReg, DecodedTrace, Opcode, Program, RegClass, NO_TRACE};
use std::sync::Arc;

/// Bytes per instruction (used to form I-cache addresses).
const INSTR_BYTES: u64 = 4;
/// Bytes per data word (used to form D-cache addresses).
const WORD_BYTES: u64 = 8;

/// Run limits for [`Simulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Stop after this many committed instructions (even if the program has
    /// not halted).
    pub max_instructions: u64,
    /// Hard cycle limit (guards against pathological configurations).
    pub max_cycles: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_instructions: u64::MAX,
            max_cycles: u64::MAX,
        }
    }
}

impl RunLimits {
    /// Cycle budget granted per requested instruction by
    /// [`RunLimits::instructions`]: even the most stall-bound configuration
    /// the paper sweeps stays well under 64 CPI.
    pub const MAX_CYCLES_PER_INSTRUCTION: u64 = 64;
    /// Floor of the derived cycle limit, so tiny instruction budgets still
    /// leave room for pathological-but-finite warm-up behaviour.
    pub const MIN_MAX_CYCLES: u64 = 10_000_000;

    /// Limit the number of committed instructions, deriving the guard cycle
    /// limit from it.  This is the single place that policy lives; the
    /// experiment runner and the throughput benchmark both use it.
    pub fn instructions(n: u64) -> Self {
        RunLimits {
            max_instructions: n,
            max_cycles: n
                .saturating_mul(Self::MAX_CYCLES_PER_INSTRUCTION)
                .max(Self::MIN_MAX_CYCLES),
        }
    }
}

/// The subset of a [`RobEntry`] the issue/execute paths read.  Copying just
/// these fields (instead of the whole ~200-byte entry) keeps the issue loop's
/// working set small; everything issue *writes* goes through the slot.
struct IssueView {
    id: InstrId,
    pc: usize,
    instr: earlyreg_isa::Instruction,
    renamed: RenamedInstr,
    trace_idx: u32,
}

/// The cycle-level simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
    program: Arc<Program>,
    rename: RenameUnit,
    rob: ReorderBuffer,
    lsq: LoadStoreQueue,
    predictor: GsharePredictor,
    mem_hierarchy: MemoryHierarchy,
    fus: FuPool,

    // Physical register value files and ready bits, per class.
    int_values: Vec<u64>,
    fp_values: Vec<u64>,
    int_ready: Vec<bool>,
    fp_ready: Vec<bool>,

    /// Committed data memory (raw 64-bit words).
    memory: Vec<u64>,

    fetch_buffer: FetchBuffer,
    /// Static per-PC fetch facts (kind, I-cache line, target).
    fe_table: FrontEndTable,
    fetch_pc: usize,
    fetch_halted: bool,
    fetch_stalled_until: u64,

    // Event-driven scheduling state (see the module documentation).
    /// Dispatched instructions the issue stage must examine.
    attention: Vec<(InstrId, u32)>,
    /// Per class and physical register: dispatched consumers waiting for it.
    waiters: [Vec<Vec<(InstrId, u32)>>; 2],
    /// Cycle-indexed (power-of-two) ring of scheduled completion events.
    completions: Vec<Vec<(InstrId, u32)>>,
    /// Scratch for the completion events drained in the current cycle.
    completion_scratch: Vec<(InstrId, u32)>,

    /// Trace-replay front-end state (`None` = live front-end).
    replay: Option<ReplayCursor>,

    cycle: u64,
    halted: bool,
    stats: SimStats,
    last_exception_at: Option<u64>,
}

impl Simulator {
    /// Build a simulator for `program` under `config`.  The program is
    /// reference-counted, so sweeps running one workload across many
    /// configurations share a single copy.
    ///
    /// # Panics
    /// Panics if the configuration or the program is invalid.
    pub fn new(config: MachineConfig, program: impl Into<Arc<Program>>) -> Self {
        Self::build(config, program.into(), RenameUnit::new)
    }

    /// Build a simulator that feeds its pipeline from a pre-captured
    /// [`DecodedTrace`] of `program` instead of re-decoding and re-executing
    /// every instruction (see [`crate::replay`]).  Simulated timing and
    /// statistics are bit-identical to [`Simulator::new`]; sweeps use this
    /// to share one capture pass across every policy×config point.
    pub fn with_replay(
        config: MachineConfig,
        program: impl Into<Arc<Program>>,
        trace: Arc<DecodedTrace>,
    ) -> Self {
        let mut sim = Self::new(config, program);
        sim.replay = Some(ReplayCursor::new(trace));
        sim
    }

    /// As [`Simulator::new`], with the rename unit driven by `scheme` instead
    /// of the registry's (see [`RenameUnit::with_scheme`]).  The conformance
    /// harness injects deliberately-broken mutant schemes through it.
    pub fn with_scheme(
        config: MachineConfig,
        program: impl Into<Arc<Program>>,
        scheme: Box<dyn ReleaseScheme>,
    ) -> Self {
        Self::build(config, program.into(), |rename| {
            RenameUnit::with_scheme(rename, scheme)
        })
    }

    /// Validate `config` and `program`, then assemble the machine around the
    /// rename unit `rename_unit` builds.
    fn build(
        config: MachineConfig,
        program: Arc<Program>,
        rename_unit: impl FnOnce(earlyreg_core::RenameConfig) -> RenameUnit,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid machine configuration: {e}"));
        program
            .validate()
            .unwrap_or_else(|e| panic!("invalid program: {e}"));

        let mut memory = vec![0u64; program.memory_words];
        memory[..program.data.len()].copy_from_slice(&program.data);

        let phys_int = config.rename.phys_int;
        let phys_fp = config.rename.phys_fp;

        let rename = rename_unit(config.rename);

        Simulator {
            rename,
            rob: ReorderBuffer::new(config.ros_size),
            lsq: LoadStoreQueue::new(config.lsq_size),
            predictor: GsharePredictor::new(config.predictor.gshare_bits),
            mem_hierarchy: MemoryHierarchy::new(
                config.icache,
                config.dcache,
                config.l2,
                config.memory_latency,
            ),
            fus: FuPool::new(config.fu_counts),
            int_values: vec![0; phys_int],
            fp_values: vec![0; phys_fp],
            int_ready: vec![true; phys_int],
            fp_ready: vec![true; phys_fp],
            memory,
            fetch_buffer: FetchBuffer::new(config.fetch_buffer),
            fe_table: FrontEndTable::build(&program, config.icache.line_bytes as u64),
            fetch_pc: 0,
            fetch_halted: false,
            fetch_stalled_until: 0,
            attention: Vec::new(),
            waiters: [
                (0..phys_int).map(|_| Vec::new()).collect(),
                (0..phys_fp).map(|_| Vec::new()).collect(),
            ],
            // Sized past the longest fixed latency (an L1 miss that falls
            // through L2 to memory); grown on demand for exotic configs.
            completions: (0..128).map(|_| Vec::new()).collect(),
            completion_scratch: Vec::new(),
            replay: None,
            cycle: 0,
            halted: false,
            stats: SimStats::default(),
            last_exception_at: None,
            program,
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// True once the program's `Halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Statistics gathered so far (occupancy/release fields are refreshed by
    /// [`Simulator::run`] when it returns).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The rename/release engine (for tests that want to inspect it).
    pub fn rename_unit(&self) -> &RenameUnit {
        &self.rename
    }

    /// True when this simulator feeds its pipeline from a replay trace.
    pub fn replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// Committed data memory.
    pub fn committed_memory(&self) -> &[u64] {
        &self.memory
    }

    /// Architectural value of a logical register as a raw 64-bit pattern.
    pub fn arch_reg_bits(&self, reg: ArchReg) -> u64 {
        let phys = self.rename.arch_mapping(reg);
        match reg.class() {
            RegClass::Int => self.int_values[phys.index()],
            RegClass::Fp => self.fp_values[phys.index()],
        }
    }

    /// True when the architectural value of `reg` is a dead value discarded
    /// by early release (see `RenameUnit::arch_value_unreliable`).
    pub fn arch_value_unreliable(&self, reg: ArchReg) -> bool {
        self.rename.arch_value_unreliable(reg)
    }

    // ------------------------------------------------------------------
    // Register value helpers
    // ------------------------------------------------------------------

    fn phys_ready(&self, reg: ArchReg, phys: PhysReg) -> bool {
        match reg.class() {
            RegClass::Int => self.int_ready[phys.index()],
            RegClass::Fp => self.fp_ready[phys.index()],
        }
    }

    fn set_phys_ready(&mut self, class: RegClass, phys: PhysReg, ready: bool) {
        match class {
            RegClass::Int => self.int_ready[phys.index()] = ready,
            RegClass::Fp => self.fp_ready[phys.index()] = ready,
        }
    }

    fn write_phys(&mut self, class: RegClass, phys: PhysReg, bits: u64) {
        match class {
            RegClass::Int => self.int_values[phys.index()] = bits,
            RegClass::Fp => self.fp_values[phys.index()] = bits,
        }
    }

    fn operand_int(&self, operand: Option<(ArchReg, PhysReg)>) -> i64 {
        match operand {
            Some((arch, phys)) if arch.class() == RegClass::Int => {
                self.int_values[phys.index()] as i64
            }
            _ => 0,
        }
    }

    fn operand_fp(&self, operand: Option<(ArchReg, PhysReg)>) -> f64 {
        match operand {
            Some((arch, phys)) if arch.class() == RegClass::Fp => {
                f64::from_bits(self.fp_values[phys.index()])
            }
            _ => 0.0,
        }
    }

    // ------------------------------------------------------------------
    // Replay trace accessors (callers hold a valid trace index, which can
    // only have been claimed from an installed cursor)
    // ------------------------------------------------------------------

    #[inline]
    fn trace(&self) -> &DecodedTrace {
        &self
            .replay
            .as_ref()
            .expect("trace-tagged instruction without a replay trace")
            .trace
    }

    #[inline]
    fn trace_taken(&self, idx: u32) -> bool {
        self.trace().taken(idx as usize)
    }

    #[inline]
    fn trace_payload(&self, idx: u32) -> u64 {
        self.trace().payload(idx as usize)
    }

    #[inline]
    fn trace_mem_addr(&self, idx: u32) -> usize {
        self.trace()
            .mem_addr(idx as usize)
            .expect("traced memory operation has an address")
    }

    fn sources_ready(&self, renamed: &RenamedInstr) -> bool {
        let ok1 = renamed.src1.is_none_or(|(a, p)| self.phys_ready(a, p));
        let ok2 = renamed.src2.is_none_or(|(a, p)| self.phys_ready(a, p));
        ok1 && ok2
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Run until the program halts or a limit is reached.  Returns the final
    /// statistics (also available through [`Simulator::stats`]).
    pub fn run(&mut self, limits: RunLimits) -> SimStats {
        while !self.halted
            && self.stats.committed < limits.max_instructions
            && self.cycle < limits.max_cycles
        {
            self.step();
        }
        self.finalize_stats();
        self.stats.clone()
    }

    /// Simulate a single cycle.
    pub fn step(&mut self) {
        self.fus.next_cycle();
        {
            let _t = prof::scope(prof::Phase::Commit);
            self.stage_commit();
        }
        if !self.halted {
            {
                let _t = prof::scope(prof::Phase::Writeback);
                self.stage_writeback();
            }
            {
                let _t = prof::scope(prof::Phase::Issue);
                self.stage_issue();
            }
            {
                let _t = prof::scope(prof::Phase::Rename);
                self.stage_rename();
            }
            {
                let _t = prof::scope(prof::Phase::Fetch);
                self.stage_fetch();
            }
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.predictor = self.predictor.stats();
        self.stats.memory = self.mem_hierarchy.stats();
        self.stats.fu = self.fus.stats();
        self.stats.release = *self.rename.stats();
        self.stats.occupancy_int = self.rename.occupancy_totals(RegClass::Int, self.cycle);
        self.stats.occupancy_fp = self.rename.occupancy_totals(RegClass::Fp, self.cycle);
        self.stats.halted = self.halted;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn stage_commit(&mut self) {
        for _ in 0..self.config.commit_width {
            let Some(head_slot) = self.rob.head_slot() else {
                break;
            };
            if self.rob.state(head_slot) != InstrState::Completed {
                break;
            }
            let head = self.rob.at_slot(head_slot).expect("head slot is occupied");
            // Copy only the fields commit reads, not the whole entry.
            let id = head.id;
            let instr = head.instr;
            let pc = head.pc;
            let trace_idx = head.trace_idx;
            let mem_addr = head.mem_addr;
            let store_data = head.store_data;

            // Injected precise exception at the commit point.
            if let Some(interval) = self.config.exceptions.interval {
                let count = self.stats.committed;
                if count > 0
                    && count.is_multiple_of(interval)
                    && self.last_exception_at != Some(count)
                    && instr.op != Opcode::Halt
                {
                    self.last_exception_at = Some(count);
                    self.stats.exceptions += 1;
                    self.recover_exception(pc, trace_idx);
                    return;
                }
            }

            // Oracle check (paper Section 4.3): no committed instruction may
            // read a logical register whose architectural value was discarded
            // by early release.
            for reg in instr.sources() {
                if self.rename.arch_value_unreliable(reg) {
                    self.stats.oracle_violations += 1;
                }
            }

            // Memory side effects.
            if instr.op.is_store() {
                let addr = mem_addr.expect("completed store has an address");
                let data = store_data.expect("completed store has data");
                self.memory[addr] = data;
                self.lsq.remove(id);
                self.stats.committed_stores += 1;
            } else if instr.op.is_load() {
                self.lsq.remove(id);
                self.stats.committed_loads += 1;
            }
            if instr.op.is_cond_branch() {
                self.stats.committed_branches += 1;
            }

            self.rename.commit(id, self.cycle);
            self.rob.pop_head(id);
            self.stats.committed += 1;

            if instr.op == Opcode::Halt {
                self.halted = true;
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Writeback / branch resolution
    // ------------------------------------------------------------------

    /// Wake up the dispatched consumers of a register whose value just
    /// became available: each sees one fewer outstanding source, and joins
    /// the issue attention list once fully ready — or immediately, for a
    /// store whose base register is now ready and whose effective address is
    /// still unpublished (store address generation is decoupled from the
    /// data, so the LSQ learns addresses as early as possible).
    fn wake_consumers(&mut self, class: RegClass, phys: PhysReg) {
        if self.waiters[class.index()][phys.index()].is_empty() {
            return;
        }
        let mut woken = std::mem::take(&mut self.waiters[class.index()][phys.index()]);
        for &(id, slot) in &woken {
            let Some(entry) = self.rob.at_slot(slot) else {
                continue; // squashed, slot vacant
            };
            if entry.id != id || self.rob.state(slot) != InstrState::Dispatched {
                continue; // squashed, slot reused
            }
            let store_addr_pending = entry.instr.op.is_store() && entry.mem_addr.is_none();
            let src1 = entry.renamed.src1;
            let waiting = self.rob.waiting_srcs(slot).saturating_sub(1);
            let join = !self.rob.in_attention(slot)
                && (waiting == 0
                    || (store_addr_pending && src1.is_none_or(|(a, p)| self.phys_ready(a, p))));
            self.rob.set_waiting_srcs(slot, waiting);
            if join {
                self.rob.set_in_attention(slot, true);
                self.attention.push((id, slot));
            }
        }
        woken.clear();
        self.waiters[class.index()][phys.index()] = woken;
    }

    fn stage_writeback(&mut self) {
        let mask = self.completions.len() - 1;
        let mut completing = std::mem::take(&mut self.completion_scratch);
        completing.clear();
        completing.append(&mut self.completions[(self.cycle as usize) & mask]);
        // Events scheduled in different cycles can share a bucket; process in
        // program order, as the window scan this replaces did.  Same-cycle
        // scheduling is itself id-ordered, so most buckets arrive sorted.
        if !completing.is_sorted_by_key(|&(id, _)| id) {
            completing.sort_unstable_by_key(|&(id, _)| id);
        }

        for &(id, slot) in completing.iter() {
            // The entry may have been squashed by an older branch that
            // completed earlier in this loop (or in an earlier cycle).
            let Some(entry) = self.rob.at_slot(slot) else {
                continue;
            };
            if entry.id != id {
                continue;
            }
            debug_assert!(
                matches!(self.rob.state(slot), InstrState::Issued { complete_at } if complete_at <= self.cycle)
            );
            // Copy only the fields writeback reads, not the whole entry.
            let dst_rename = entry.renamed.dst;
            let result = entry.result;
            let is_unresolved_branch = entry.instr.op.is_cond_branch() && !entry.resolved;
            let prediction = entry.prediction;
            let actual_taken = entry.actual_taken;
            let predicted_taken = entry.predicted_taken;
            let actual_next = entry.actual_next;
            let trace_idx = entry.trace_idx;

            // Write the result and wake up consumers.
            if let Some(dst) = dst_rename {
                let bits = result.unwrap_or(0);
                self.write_phys(dst.arch.class(), dst.phys, bits);
                self.set_phys_ready(dst.arch.class(), dst.phys, true);
                self.rename
                    .mark_value_written(dst.arch.class(), dst.phys, self.cycle);
                self.wake_consumers(dst.arch.class(), dst.phys);
            }
            self.rob.set_state(slot, InstrState::Completed);

            // Conditional branch resolution.
            if is_unresolved_branch {
                let prediction = prediction.expect("conditional branches carry a prediction");
                let actual_taken = actual_taken.expect("resolved branch has an outcome");
                self.predictor.resolve(&prediction, actual_taken);
                if let Some(e) = self.rob.at_slot_mut(slot) {
                    e.resolved = true;
                }
                if actual_taken != predicted_taken {
                    self.stats.mispredicted_branches += 1;
                    self.predictor.repair(&prediction, actual_taken);
                    self.recover_mispredict(id, actual_next, trace_idx);
                    // The rest of this cycle's list is strictly younger than
                    // the branch (sorted by id), so every remaining event
                    // refers to an instruction the recovery just squashed:
                    // nothing to defer, stop here.
                    break;
                } else {
                    self.rename.resolve_branch_correct(id, self.cycle);
                }
            }
        }

        completing.clear();
        self.completion_scratch = completing;
    }

    fn recover_mispredict(&mut self, branch_id: InstrId, correct_next: usize, branch_trace: u32) {
        let squashed_rename = self.rename.recover_branch_mispredict(branch_id, self.cycle);
        let squashed = squashed_rename.squashed;
        let squashed_rob = self.rob.squash_after(branch_id);
        debug_assert_eq!(squashed, squashed_rob);
        self.lsq.squash_after(branch_id);
        self.fetch_buffer.clear();
        self.stats.squashed += squashed_rob as u64;
        // Attention, wakeup and completion entries of squashed instructions
        // are dropped lazily: their slots are vacated (or reused under a new
        // id), which every consumer revalidates.

        // Re-synchronise the replay cursor: an on-trace branch resumes the
        // trace right after itself (its correct target is the next trace
        // position); a wrong-path branch leaves fetch off-trace until the
        // on-trace branch below it resolves.
        if let Some(cursor) = &mut self.replay {
            cursor.resume_after_branch(branch_trace);
        }

        self.fetch_pc = correct_next;
        self.fetch_halted = false;
        self.fetch_stalled_until = self
            .cycle
            .saturating_add(1 + self.config.predictor.mispredict_redirect_penalty as u64);
    }

    fn recover_exception(&mut self, restart_pc: usize, head_trace: u32) {
        self.rename.recover_exception(self.cycle);
        let squashed = self.rob.clear();
        self.lsq.clear();
        self.fetch_buffer.clear();
        self.stats.squashed += squashed as u64;
        // Everything in flight is gone: drop the scheduling state wholesale.
        self.attention.clear();
        for class in &mut self.waiters {
            for list in class.iter_mut() {
                list.clear();
            }
        }
        for bucket in &mut self.completions {
            bucket.clear();
        }

        // The squashed head re-executes first: rewind the cursor to it (the
        // head is always on the correct path, so it is off-trace only past
        // the capture budget — where fetch degrades to live anyway).
        if let Some(cursor) = &mut self.replay {
            cursor.resume_at(head_trace);
        }

        self.fetch_pc = restart_pc;
        self.fetch_halted = false;
        self.fetch_stalled_until = self
            .cycle
            .saturating_add(self.config.exceptions.handler_cycles);
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Record that `(id, slot)` will produce its result at `complete_at`.
    fn schedule_completion(&mut self, id: InstrId, slot: u32, complete_at: u64) {
        let horizon = (complete_at - self.cycle) as usize;
        if horizon >= self.completions.len() {
            self.grow_completions(horizon);
        }
        let mask = self.completions.len() - 1;
        self.completions[(complete_at as usize) & mask].push((id, slot));
    }

    /// Resize the completion ring past `horizon` cycles and re-bucket the
    /// pending events (rare: only configs with latencies beyond the ring).
    fn grow_completions(&mut self, horizon: usize) {
        let new_len = (horizon + 1).next_power_of_two() * 2;
        let old: Vec<Vec<(InstrId, u32)>> = std::mem::take(&mut self.completions);
        self.completions = (0..new_len).map(|_| Vec::new()).collect();
        let mask = new_len - 1;
        for bucket in old {
            for (id, slot) in bucket {
                // Recover the event time from the live entry; events for
                // squashed instructions are dropped.
                let Some(entry) = self.rob.at_slot(slot) else {
                    continue;
                };
                if entry.id != id {
                    continue;
                }
                if let InstrState::Issued { complete_at } = self.rob.state(slot) {
                    // Every pending event is in the future: this cycle's
                    // bucket was already drained by writeback, and events for
                    // squashed instructions were filtered above.
                    debug_assert!(complete_at > self.cycle);
                    self.completions[(complete_at as usize) & mask].push((id, slot));
                }
            }
        }
    }

    fn stage_issue(&mut self) {
        if self.attention.is_empty() {
            return;
        }
        let mut attention = std::mem::take(&mut self.attention);
        // Entries join at dispatch (in order) and at wakeup (out of order);
        // restore program order so selection priority matches a window scan.
        // The kept prefix plus in-order dispatches is already sorted most
        // cycles, so check before paying for the sort.
        if !attention.is_sorted_by_key(|&(id, _)| id) {
            attention.sort_unstable_by_key(|&(id, _)| id);
        }

        let mut issued = 0;
        let mut kept = 0;
        for i in 0..attention.len() {
            let (id, slot) = attention[i];

            let Some(entry) = self.rob.at_slot(slot) else {
                continue; // squashed: drop from the attention list
            };
            if entry.id != id || self.rob.state(slot) != InstrState::Dispatched {
                continue;
            }
            if issued >= self.config.issue_width {
                // Out of issue slots: everything younger keeps its place for
                // next cycle, untouched (as the scan's early break did).
                attention[kept] = (id, slot);
                kept += 1;
                continue;
            }
            // Copy only what the issue paths read — not the whole ~200-byte
            // entry (twice, as the scan-based loop did).
            let view = IssueView {
                id,
                pc: entry.pc,
                instr: entry.instr,
                renamed: entry.renamed,
                trace_idx: entry.trace_idx,
            };
            let addr_pending = entry.mem_addr.is_none();

            // Store address generation is decoupled from the data: as soon as
            // the base register is ready the effective address is published
            // to the LSQ so that younger loads can apply the conservative
            // "all previous store addresses known" rule (Table 2) without
            // waiting for the store data to be produced.
            if view.instr.op.is_store() && addr_pending {
                let base_ready = view.renamed.src1.is_none_or(|(a, p)| self.phys_ready(a, p));
                if base_ready {
                    let addr = if view.trace_idx != NO_TRACE {
                        self.trace_mem_addr(view.trace_idx)
                    } else {
                        let base = self.operand_int(view.renamed.src1);
                        semantics::effective_addr(base, view.instr.imm, self.memory.len())
                    };
                    self.lsq.set_address(id, addr);
                    if let Some(e) = self.rob.at_slot_mut(slot) {
                        e.mem_addr = Some(addr);
                    }
                }
            }

            if !self.sources_ready(&view.renamed) {
                // Present only for address generation (store data pending):
                // stays listed until the data wakeup completes it.
                attention[kept] = (id, slot);
                kept += 1;
                continue;
            }
            let class = view.instr.op.fu_class();

            let did_issue = if view.instr.op.is_mem() {
                self.try_issue_mem(&view, slot)
            } else if self.fus.try_issue(class) {
                let latency = self.config.latency(class).max(1);
                self.execute_alu(&view, slot, latency);
                true
            } else {
                false
            };

            if did_issue {
                issued += 1;
                self.rob.set_in_attention(slot, false);
            } else {
                // Structural hazard or LSQ ordering: retry next cycle.
                attention[kept] = (id, slot);
                kept += 1;
            }
        }
        attention.truncate(kept);
        self.attention = attention;
    }

    /// Execute a non-memory instruction and schedule its completion.
    ///
    /// On-trace instructions read their outcome (result bits, branch
    /// direction) from the replay trace instead of reading operands and
    /// recomputing; wrong-path instructions execute live.  Both paths
    /// produce the same bits on the correct path (the trace *is* the
    /// architectural execution), so timing and statistics are identical.
    fn execute_alu(&mut self, entry: &IssueView, slot: u32, latency: u32) {
        let mut result = None;
        let mut actual_taken = None;
        let mut actual_next = entry.pc + 1;

        if entry.trace_idx != NO_TRACE {
            match entry.instr.op {
                Opcode::Branch(_) => {
                    let taken = self.trace_taken(entry.trace_idx);
                    actual_taken = Some(taken);
                    actual_next = if taken {
                        entry.instr.imm as usize
                    } else {
                        entry.pc + 1
                    };
                }
                Opcode::Jump => {
                    actual_next = entry.instr.imm as usize;
                }
                Opcode::Halt | Opcode::Nop => {}
                _ => {
                    if entry.instr.dst.is_some() {
                        result = Some(self.trace_payload(entry.trace_idx));
                    }
                }
            }
        } else {
            let a_int = self.operand_int(entry.renamed.src1);
            let b_int = self.operand_int(entry.renamed.src2);
            let a_fp = self.operand_fp(entry.renamed.src1);
            let b_fp = self.operand_fp(entry.renamed.src2);

            match entry.instr.op {
                Opcode::Branch(cond) => {
                    let taken = semantics::branch_taken(cond, a_int, b_int);
                    actual_taken = Some(taken);
                    actual_next = if taken {
                        entry.instr.imm as usize
                    } else {
                        entry.pc + 1
                    };
                }
                Opcode::Jump => {
                    actual_next = entry.instr.imm as usize;
                }
                Opcode::Halt | Opcode::Nop => {}
                op => {
                    let value = semantics::compute(op, a_int, b_int, a_fp, b_fp, entry.instr.imm);
                    result = match value {
                        semantics::ExecValue::Int(v) => Some(v as u64),
                        semantics::ExecValue::Fp(v) => Some(v.to_bits()),
                        semantics::ExecValue::None => None,
                    };
                }
            }
        }

        let complete_at = self.cycle + latency as u64;
        self.rob.set_state(slot, InstrState::Issued { complete_at });
        let e = self.rob.at_slot_mut(slot).expect("entry present");
        e.result = result;
        e.actual_taken = actual_taken;
        e.actual_next = actual_next;
        self.schedule_completion(entry.id, slot, complete_at);
    }

    /// Try to issue a load or store; returns true if it issued.
    ///
    /// On-trace operations take their effective address (and store data /
    /// load bits) from the replay trace; every *timing* decision — LSQ
    /// ordering, forwarding, functional-unit ports, cache access — runs
    /// unchanged, so the schedule is identical to live execution.
    fn try_issue_mem(&mut self, entry: &IssueView, slot: u32) -> bool {
        let addr = if entry.trace_idx != NO_TRACE {
            self.trace_mem_addr(entry.trace_idx)
        } else {
            let base = self.operand_int(entry.renamed.src1);
            semantics::effective_addr(base, entry.instr.imm, self.memory.len())
        };

        if entry.instr.op.is_store() {
            if !self.fus.try_issue(earlyreg_isa::FuClass::Mem) {
                return false;
            }
            let data = if entry.trace_idx != NO_TRACE {
                self.trace_payload(entry.trace_idx)
            } else {
                match entry.instr.op {
                    Opcode::StoreInt => {
                        semantics::int_to_word(self.operand_int(entry.renamed.src2))
                    }
                    Opcode::StoreFp => semantics::fp_to_word(self.operand_fp(entry.renamed.src2)),
                    _ => unreachable!(),
                }
            };
            self.lsq.set_address(entry.id, addr);
            self.lsq.set_store_data(entry.id, data);
            let complete_at = self.cycle + 1;
            self.rob.set_state(slot, InstrState::Issued { complete_at });
            let e = self.rob.at_slot_mut(slot).expect("entry present");
            e.mem_addr = Some(addr);
            e.store_data = Some(data);
            self.schedule_completion(entry.id, slot, complete_at);
            return true;
        }

        // Loads: conservative scheduling — wait until every older store
        // address is known (Table 2).
        if !self.lsq.prior_store_addresses_known(entry.id) {
            return false;
        }
        let forward = self.lsq.forward(entry.id, addr);
        if forward == ForwardResult::MustWait {
            return false;
        }
        if !self.fus.try_issue(earlyreg_isa::FuClass::Mem) {
            return false;
        }
        let (bits, latency) = match forward {
            ForwardResult::Forwarded(bits) => (bits, self.config.dcache.hit_latency),
            ForwardResult::NoMatch => {
                let latency = self.mem_hierarchy.access_data(addr as u64 * WORD_BYTES);
                let bits = if entry.trace_idx != NO_TRACE {
                    self.trace_payload(entry.trace_idx)
                } else {
                    self.memory[addr]
                };
                (bits, latency)
            }
            ForwardResult::MustWait => unreachable!(),
        };
        self.lsq.set_address(entry.id, addr);
        let complete_at = self.cycle + latency.max(1) as u64;
        self.rob.set_state(slot, InstrState::Issued { complete_at });
        let e = self.rob.at_slot_mut(slot).expect("entry present");
        e.mem_addr = Some(addr);
        e.result = Some(bits);
        self.schedule_completion(entry.id, slot, complete_at);
        true
    }

    // ------------------------------------------------------------------
    // Rename / dispatch
    // ------------------------------------------------------------------

    fn stage_rename(&mut self) {
        let mut renamed = 0;
        while renamed < self.config.decode_width {
            let Some(fetched) = self.fetch_buffer.front().copied() else {
                break;
            };

            if self.rob.is_full() {
                self.stats.rename_stalls.ros_full += 1;
                break;
            }
            if fetched.instr.op.is_mem() && self.lsq.is_full() {
                self.stats.rename_stalls.lsq_full += 1;
                break;
            }
            let renamed_instr = match self.rename.rename(&fetched.instr, self.cycle) {
                Ok(r) => r,
                Err(RenameStall::NoFreePhysReg(_)) => {
                    self.stats.rename_stalls.free_list += 1;
                    break;
                }
                Err(RenameStall::TooManyPendingBranches) => {
                    self.stats.rename_stalls.pending_branches += 1;
                    break;
                }
            };
            self.fetch_buffer.pop();

            if let Some(dst) = renamed_instr.dst {
                self.set_phys_ready(dst.arch.class(), dst.phys, false);
            }
            if fetched.instr.op.is_mem() {
                self.lsq
                    .insert(renamed_instr.id, fetched.instr.op.is_store());
            }

            let id = renamed_instr.id;
            let slot = self.rob.push(RobEntry {
                id,
                pc: fetched.pc,
                instr: fetched.instr,
                renamed: renamed_instr,
                prediction: fetched.prediction,
                predicted_taken: fetched.predicted_taken,
                predicted_next: fetched.predicted_next,
                actual_taken: None,
                actual_next: fetched.pc + 1,
                resolved: false,
                result: None,
                mem_addr: None,
                store_data: None,
                dispatched_at: self.cycle,
                trace_idx: fetched.trace_idx,
            });

            // Register in the wakeup lists; join the attention list when
            // already issuable (all sources ready) or when a store can at
            // least publish its address (base ready).
            let mut waiting = 0u8;
            for (arch, phys) in [renamed_instr.src1, renamed_instr.src2]
                .into_iter()
                .flatten()
            {
                if !self.phys_ready(arch, phys) {
                    self.waiters[arch.class().index()][phys.index()].push((id, slot));
                    waiting += 1;
                }
            }
            let base_ready = renamed_instr
                .src1
                .is_none_or(|(a, p)| self.phys_ready(a, p));
            let join = waiting == 0 || (fetched.instr.op.is_store() && base_ready);
            self.rob.set_waiting_srcs(slot, waiting);
            if join {
                self.rob.set_in_attention(slot, true);
                self.attention.push((id, slot));
            }

            self.stats.renamed += 1;
            renamed += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn stage_fetch(&mut self) {
        if self.fetch_halted || self.cycle < self.fetch_stalled_until {
            return;
        }
        let mut pc = self.fetch_pc;
        let mut taken = 0;
        let mut current_line = u64::MAX;

        for _ in 0..self.config.fetch_width {
            if self.fetch_buffer.is_full() {
                break;
            }
            if pc >= self.program.len() {
                // Wrong-path fall-through past the end of the program; stop
                // fetching until a recovery redirects us.
                self.fetch_halted = true;
                break;
            }

            // Static fetch facts (kind, line index, target) come from the
            // shared per-program table, so sweep points don't each redo the
            // address/decode math.
            let info = self.fe_table.at(pc);

            // I-cache: access once per line touched; a miss ends the fetch
            // group and stalls the front end for the miss latency.
            if info.line as u64 != current_line {
                let latency = self
                    .mem_hierarchy
                    .access_instruction(pc as u64 * INSTR_BYTES);
                current_line = info.line as u64;
                if latency > self.config.icache.hit_latency {
                    self.fetch_stalled_until = self.cycle + latency as u64;
                    break;
                }
            }

            let instr = self.program.instrs[pc];
            let trace_idx = match &mut self.replay {
                Some(cursor) => cursor.claim(pc),
                None => NO_TRACE,
            };
            let mut prediction = None;
            let mut predicted_taken = false;
            let mut next_pc = pc + 1;

            match info.kind {
                FETCH_BRANCH => {
                    let p = self.predictor.predict(pc);
                    predicted_taken = p.taken;
                    if p.taken {
                        next_pc = info.target as usize;
                    }
                    prediction = Some(p);
                    // A prediction that disagrees with the recorded direction
                    // means fetch is turning onto the wrong path: stop the
                    // cursor until this branch's recovery re-synchronises it.
                    if trace_idx != NO_TRACE && p.taken != self.trace_taken(trace_idx) {
                        self.replay.as_mut().expect("claimed from cursor").diverge();
                    }
                }
                FETCH_JUMP => {
                    predicted_taken = true;
                    next_pc = info.target as usize;
                }
                FETCH_HALT => {
                    next_pc = pc;
                }
                _ => {}
            }

            self.fetch_buffer.push(FetchedInstr {
                pc,
                instr,
                prediction,
                predicted_taken,
                predicted_next: next_pc,
                fetched_at: self.cycle,
                trace_idx,
            });
            self.stats.fetched += 1;

            if info.kind == FETCH_HALT {
                self.fetch_halted = true;
                break;
            }
            if predicted_taken {
                taken += 1;
                if taken >= self.config.max_taken_per_fetch {
                    pc = next_pc;
                    break;
                }
            }
            pc = next_pc;
        }
        self.fetch_pc = pc;
    }
}
