//! Branch prediction: an 18-bit gshare predictor with speculative history
//! updates and history repair on misprediction (Table 2).
//!
//! Branch *targets* do not need prediction in this simulator: the instruction
//! stream is a static program addressed by instruction index, so the target
//! of a direct branch or jump is available at fetch.  Only the direction of
//! conditional branches is predicted.

use serde::{Deserialize, Serialize};

/// Everything recorded at prediction time, needed to train the counter and to
/// repair the global history on a misprediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Index of the 2-bit counter that produced the prediction.
    pub table_index: usize,
    /// Global history *before* this branch was shifted in.
    pub history_before: u64,
}

/// Aggregate predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// Predictions made (speculative, includes wrong-path branches).
    pub predictions: u64,
    /// Resolved branches that were predicted correctly.
    pub correct: u64,
    /// Resolved branches that were mispredicted.
    pub mispredicted: u64,
}

impl PredictorStats {
    /// Direction prediction accuracy over resolved branches.
    pub fn accuracy(&self) -> f64 {
        let total = self.correct + self.mispredicted;
        if total == 0 {
            1.0
        } else {
            self.correct as f64 / total as f64
        }
    }
}

/// gshare: the branch PC is XOR-ed with the global history to index a table
/// of 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    mask: u64,
    table: Vec<u8>,
    history: u64,
    stats: PredictorStats,
}

impl GsharePredictor {
    /// Create a predictor with `history_bits` bits of global history and a
    /// `2^history_bits`-entry counter table, all counters weakly not-taken.
    pub fn new(history_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&history_bits),
            "gshare history length must be between 1 and 24 bits"
        );
        let entries = 1usize << history_bits;
        GsharePredictor {
            mask: (entries - 1) as u64,
            table: vec![1; entries],
            history: 0,
            stats: PredictorStats::default(),
        }
    }

    /// Current global history (exposed for checkpoint/repair bookkeeping).
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Predictor statistics.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn index(&self, pc: usize, history: u64) -> usize {
        ((pc as u64 ^ history) & self.mask) as usize
    }

    /// Predict the direction of the conditional branch at `pc` and
    /// *speculatively* shift the prediction into the global history
    /// (Table 2: "speculative updates").
    pub fn predict(&mut self, pc: usize) -> Prediction {
        let history_before = self.history;
        let table_index = self.index(pc, history_before);
        let taken = self.table[table_index] >= 2;
        self.history = ((self.history << 1) | taken as u64) & self.mask;
        self.stats.predictions += 1;
        Prediction {
            taken,
            table_index,
            history_before,
        }
    }

    /// Train the predictor when the branch resolves: bump the counter that
    /// produced the prediction and record accuracy.
    pub fn resolve(&mut self, prediction: &Prediction, actual_taken: bool) {
        let counter = &mut self.table[prediction.table_index];
        if actual_taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        if prediction.taken == actual_taken {
            self.stats.correct += 1;
        } else {
            self.stats.mispredicted += 1;
        }
    }

    /// Repair the speculative global history after a misprediction: the
    /// history becomes "everything up to and including the mispredicted
    /// branch, with its *actual* outcome".
    pub fn repair(&mut self, prediction: &Prediction, actual_taken: bool) {
        self.history = ((prediction.history_before << 1) | actual_taken as u64) & self.mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the predictor the way the pipeline does: train on resolution and
    /// repair the speculative history whenever the prediction was wrong.
    fn predict_resolve(p: &mut GsharePredictor, pc: usize, outcome: bool) -> bool {
        let pred = p.predict(pc);
        p.resolve(&pred, outcome);
        if pred.taken != outcome {
            p.repair(&pred, outcome);
        }
        pred.taken
    }

    #[test]
    fn learns_an_always_taken_branch() {
        let mut p = GsharePredictor::new(10);
        let mut correct_tail = 0;
        for i in 0..64 {
            let predicted = predict_resolve(&mut p, 100, true);
            if i >= 32 && predicted {
                correct_tail += 1;
            }
        }
        assert!(
            correct_tail >= 30,
            "an always-taken branch must become almost perfectly predicted, got {correct_tail}/32"
        );
        assert!(p.stats().accuracy() > 0.5);
    }

    #[test]
    fn learns_an_alternating_pattern_through_history() {
        // With global history, a strictly alternating branch becomes
        // almost perfectly predictable once the counters warm up.
        let mut p = GsharePredictor::new(12);
        let mut outcome = false;
        let mut correct_tail = 0;
        for i in 0..400 {
            outcome = !outcome;
            let predicted = predict_resolve(&mut p, 7, outcome);
            if i >= 200 && predicted == outcome {
                correct_tail += 1;
            }
        }
        assert!(
            correct_tail >= 190,
            "alternating branch should be almost perfectly predicted, got {correct_tail}/200"
        );
    }

    #[test]
    fn speculative_history_is_repaired_after_misprediction() {
        let mut p = GsharePredictor::new(8);
        let h0 = p.history();
        let pred = p.predict(42);
        assert_ne!(p.history() & 1, 2); // history shifted

        // Suppose the prediction was wrong: repair must rebuild the history
        // from the pre-branch value plus the actual outcome.
        p.repair(&pred, !pred.taken);
        assert_eq!(
            p.history(),
            ((h0 << 1) | (!pred.taken) as u64) & ((1 << 8) - 1)
        );
    }

    #[test]
    fn counters_saturate() {
        let mut p = GsharePredictor::new(4);
        let pred = p.predict(3);
        for _ in 0..10 {
            p.resolve(&pred, true);
        }
        assert_eq!(p.table[pred.table_index], 3);
        for _ in 0..10 {
            p.resolve(&pred, false);
        }
        assert_eq!(p.table[pred.table_index], 0);
    }

    #[test]
    fn accuracy_accounts_only_resolved_branches() {
        let mut p = GsharePredictor::new(6);
        let a = p.predict(1);
        let _b = p.predict(2); // never resolved (wrong path)
        p.resolve(&a, a.taken);
        let s = p.stats();
        assert_eq!(s.predictions, 2);
        assert_eq!(s.correct + s.mispredicted, 1);
    }

    #[test]
    #[should_panic(expected = "between 1 and 24")]
    fn rejects_degenerate_history_length() {
        let _ = GsharePredictor::new(0);
    }

    #[test]
    fn table_size_matches_history_bits() {
        let p = GsharePredictor::new(18);
        assert_eq!(p.table.len(), 1 << 18);
    }
}
