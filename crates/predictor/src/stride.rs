//! The reference stride predictor and the prediction tallies it reports.
//!
//! [`StridePredictor`] is the simple one-delta stride table of the
//! paper's future-work list ("computed predictions through techniques
//! like value stride detection"). It stays outside the
//! [`crate::Backend`] zoo: the value-flow oracle's `StrideMiss` check
//! judges affine-stride claims against it, and the predictor-family
//! ablation reports it next to the zoo's two-delta
//! [`crate::TwoDeltaStrideBackend`].

use crate::index::{table_mask, word_index};

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    last: u64,
    stride: i64,
    /// 2-bit confidence: predict when >= 1; stride replaced at 0.
    confidence: u8,
    valid: bool,
}

/// A stride value predictor: learns `value[n+1] = value[n] + stride` per
/// static load, with a 2-bit confidence counter. Captures loads the LVPT
/// cannot (e.g. a pointer walking an array) at the cost of missing some
/// alternating patterns.
#[derive(Debug, Clone)]
pub struct StridePredictor {
    entries: Vec<StrideEntry>,
    mask: usize,
}

impl StridePredictor {
    /// Creates a stride predictor with `entries` table slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> StridePredictor {
        StridePredictor {
            entries: vec![StrideEntry::default(); entries],
            mask: table_mask(entries),
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        word_index(pc, self.mask)
    }

    /// Predicted value for the load at `pc` (last value plus stride),
    /// once the slot's stride has repeated.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        let e = &self.entries[self.index(pc)];
        (e.valid && e.confidence >= 1).then(|| e.last.wrapping_add(e.stride as u64))
    }

    /// Trains the slot of `pc` with the loaded value.
    pub fn train(&mut self, pc: u64, actual: u64) {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        if !e.valid {
            *e = StrideEntry {
                last: actual,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return;
        }
        let observed = actual.wrapping_sub(e.last) as i64;
        if observed == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else if e.confidence > 0 {
            e.confidence -= 1;
        } else {
            e.stride = observed;
        }
        e.last = actual;
    }
}

/// Prediction tallies of one predictor over a stream of loads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredEval {
    /// Dynamic loads observed.
    pub loads: u64,
    /// Loads for which the predictor issued a prediction.
    pub predicted: u64,
    /// Issued predictions that matched the actual value.
    pub correct: u64,
}

impl PredEval {
    /// Fraction of loads predicted (coverage).
    pub fn coverage(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.predicted as f64 / self.loads as f64
        }
    }

    /// Fraction of predictions that were correct (accuracy).
    pub fn accuracy(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.correct as f64 / self.predicted as f64
        }
    }

    /// Fraction of all loads predicted correctly (coverage × accuracy).
    pub fn hit_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.correct as f64 / self.loads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lvpt, LvptConfig};

    const PC: u64 = 0x10000;

    /// Replays `values` at one pc through a 64-entry stride table,
    /// predicting before training.
    fn stride_eval(values: &[u64]) -> PredEval {
        let mut p = StridePredictor::new(64);
        let mut e = PredEval::default();
        for &v in values {
            e.loads += 1;
            if let Some(pred) = p.predict(PC) {
                e.predicted += 1;
                e.correct += (pred == v) as u64;
            }
            p.train(PC, v);
        }
        e
    }

    #[test]
    fn stride_learns_arithmetic_sequences() {
        let values: Vec<u64> = (0..100).map(|i| 1000 + 8 * i).collect();
        let eval = stride_eval(&values);
        assert!(
            eval.hit_rate() > 0.9,
            "stride hit rate {:.2}",
            eval.hit_rate()
        );
    }

    #[test]
    fn last_value_fails_on_strides_but_wins_on_constants() {
        let hit_rate = |values: &[u64]| {
            let mut lvpt = Lvpt::new(LvptConfig {
                entries: 64,
                history_depth: 1,
                perfect_selection: false,
            });
            let hits = values
                .iter()
                .filter(|&&v| {
                    let hit = lvpt.predict(PC) == Some(v);
                    lvpt.update(PC, v);
                    hit
                })
                .count();
            hits as f64 / values.len() as f64
        };
        let strided: Vec<u64> = (0..100).map(|i| 8 * i).collect();
        assert!(hit_rate(&strided) < 0.05);
        assert!(hit_rate(&[7u64; 100]) > 0.95);
    }

    #[test]
    fn stride_handles_constants_too() {
        // A constant sequence is a stride of zero.
        assert!(stride_eval(&[7u64; 100]).hit_rate() > 0.9);
    }

    #[test]
    fn stride_recovers_after_pattern_change() {
        let mut values: Vec<u64> = (0..50).map(|i| 8 * i).collect();
        values.extend((0..50).map(|i| 100_000 + 16 * i));
        let eval = stride_eval(&values);
        // Loses a few transitions but re-learns the new stride.
        assert!(eval.hit_rate() > 0.8, "hit rate {:.2}", eval.hit_rate());
    }

    #[test]
    fn eval_ratios() {
        let e = PredEval {
            loads: 100,
            predicted: 50,
            correct: 40,
        };
        assert!((e.coverage() - 0.5).abs() < 1e-12);
        assert!((e.accuracy() - 0.8).abs() < 1e-12);
        assert!((e.hit_rate() - 0.4).abs() < 1e-12);
    }
}
