//! Classification metrics: accuracy, confusion matrices, per-class scores.

use serde::{Deserialize, Serialize};

/// Fraction of predictions matching the truth (0 for empty input).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "truth/pred length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    truth.iter().zip(pred).filter(|(t, p)| t == p).count() as f64 / truth.len() as f64
}

/// A confusion matrix: `m[truth][pred]` counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// An empty matrix ready for incremental [`record`](Self::record)
    /// calls — the streaming form of [`from_pairs`](Self::from_pairs).
    pub fn new(n_classes: usize) -> ConfusionMatrix {
        ConfusionMatrix {
            n_classes,
            counts: vec![vec![0usize; n_classes]; n_classes],
        }
    }

    /// Builds the matrix from parallel truth/prediction slices.
    ///
    /// # Panics
    /// Panics on length mismatch or labels ≥ `n_classes`.
    pub fn from_pairs(n_classes: usize, truth: &[usize], pred: &[usize]) -> ConfusionMatrix {
        assert_eq!(truth.len(), pred.len(), "truth/pred length mismatch");
        let mut m = ConfusionMatrix::new(n_classes);
        for (&t, &p) in truth.iter().zip(pred) {
            m.record(t, p);
        }
        m
    }

    /// Counts one (truth, prediction) pair.
    ///
    /// # Panics
    /// Panics when either label is ≥ `n_classes`.
    pub fn record(&mut self, truth: usize, pred: usize) {
        self.counts[truth][pred] += 1;
    }

    /// Removes one previously recorded (truth, prediction) pair — the
    /// sliding-window companion of [`record`](Self::record).
    ///
    /// # Panics
    /// Panics when the pair was never recorded (its cell is 0) or either
    /// label is ≥ `n_classes`.
    pub fn forget(&mut self, truth: usize, pred: usize) {
        let cell = &mut self.counts[truth][pred];
        assert!(*cell > 0, "forgetting a pair that was never recorded");
        *cell -= 1;
    }

    /// Count of samples with truth `t` predicted as `p`.
    pub fn get(&self, t: usize, p: usize) -> usize {
        self.counts[t][p]
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.n_classes).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Recall of a class (a.k.a. the paper's per-class "accuracy": the
    /// fraction of that class's sessions classified correctly). 0 when the
    /// class has no samples.
    pub fn recall(&self, class: usize) -> f64 {
        let row: usize = self.counts[class].iter().sum();
        if row == 0 {
            0.0
        } else {
            self.counts[class][class] as f64 / row as f64
        }
    }

    /// Precision of a class; 0 when it was never predicted.
    pub fn precision(&self, class: usize) -> f64 {
        let col: usize = (0..self.n_classes).map(|t| self.counts[t][class]).sum();
        if col == 0 {
            0.0
        } else {
            self.counts[class][class] as f64 / col as f64
        }
    }

    /// Unweighted mean of per-class recalls (macro recall).
    pub fn macro_recall(&self) -> f64 {
        let with_samples: Vec<usize> = (0..self.n_classes)
            .filter(|&c| self.counts[c].iter().sum::<usize>() > 0)
            .collect();
        if with_samples.is_empty() {
            return 0.0;
        }
        with_samples.iter().map(|&c| self.recall(c)).sum::<f64>() / with_samples.len() as f64
    }

    /// Renders the matrix as an aligned text table with the given class
    /// names (truncated/padded to the class count).
    pub fn render(&self, class_names: &[&str]) -> String {
        let name = |i: usize| class_names.get(i).copied().unwrap_or("?");
        let width = (0..self.n_classes)
            .map(|i| name(i).len())
            .max()
            .unwrap_or(1)
            .max(6);
        let mut out = format!("{:>width$} |", "t\\p");
        for p in 0..self.n_classes {
            out += &format!(" {:>width$}", name(p));
        }
        out += "\n";
        for t in 0..self.n_classes {
            out += &format!("{:>width$} |", name(t));
            for p in 0..self.n_classes {
                out += &format!(" {:>width$}", self.counts[t][p]);
            }
            out += "\n";
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(accuracy(&[1, 2, 3, 4], &[1, 0, 3, 0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        let _ = accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn confusion_matrix_counts() {
        let truth = [0, 0, 1, 1, 2, 2];
        let pred = [0, 1, 1, 1, 2, 0];
        let m = ConfusionMatrix::from_pairs(3, &truth, &pred);
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.get(1, 1), 2);
        assert_eq!(m.get(2, 0), 1);
        assert_eq!(m.total(), 6);
        assert!((m.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_scores() {
        let truth = [0, 0, 1, 1];
        let pred = [0, 1, 1, 1];
        let m = ConfusionMatrix::from_pairs(2, &truth, &pred);
        assert_eq!(m.recall(0), 0.5);
        assert_eq!(m.recall(1), 1.0);
        assert_eq!(m.precision(0), 1.0);
        assert!((m.precision(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.macro_recall() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_class_scores_are_zero() {
        let m = ConfusionMatrix::from_pairs(3, &[0], &[0]);
        assert_eq!(m.recall(2), 0.0);
        assert_eq!(m.precision(2), 0.0);
        // Macro recall ignores classes without samples.
        assert_eq!(m.macro_recall(), 1.0);
    }

    #[test]
    fn render_contains_counts() {
        let m = ConfusionMatrix::from_pairs(2, &[0, 1, 1], &[0, 1, 0]);
        let s = m.render(&["cat", "dog"]);
        assert!(s.contains("cat"));
        assert!(s.contains("dog"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_pairs_length_mismatch_panics() {
        let _ = ConfusionMatrix::from_pairs(2, &[0, 1], &[0]);
    }

    #[test]
    #[should_panic]
    fn from_pairs_label_out_of_range_panics() {
        let _ = ConfusionMatrix::from_pairs(2, &[2], &[0]);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let m = ConfusionMatrix::from_pairs(3, &[], &[]);
        assert_eq!(m.total(), 0);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.macro_recall(), 0.0);
        for c in 0..3 {
            assert_eq!(m.recall(c), 0.0);
            assert_eq!(m.precision(c), 0.0);
        }
    }

    #[test]
    fn matrix_accuracy_matches_free_function() {
        let truth = [0, 1, 2, 1, 0, 2, 2];
        let pred = [0, 1, 1, 1, 2, 2, 0];
        let m = ConfusionMatrix::from_pairs(3, &truth, &pred);
        assert!((m.accuracy() - accuracy(&truth, &pred)).abs() < 1e-12);
        assert_eq!(m.total(), truth.len());
    }

    #[test]
    fn macro_recall_weights_classes_equally() {
        // Class 0: 9/10 right, class 1: 0/1 right. Overall accuracy is
        // dominated by class 0; macro recall is not.
        let truth: Vec<usize> = std::iter::repeat_n(0, 10).chain([1]).collect();
        let mut pred = truth.clone();
        pred[0] = 1; // one class-0 miss
        pred[10] = 0; // the only class-1 sample misses
        let m = ConfusionMatrix::from_pairs(2, &truth, &pred);
        assert!((m.accuracy() - 9.0 / 11.0).abs() < 1e-12);
        assert!((m.macro_recall() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn render_falls_back_to_placeholder_names() {
        let m = ConfusionMatrix::from_pairs(3, &[0, 1, 2], &[0, 1, 2]);
        let s = m.render(&["only-one"]);
        assert!(s.contains("only-one"));
        assert!(s.contains('?'));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn single_class_batch_scores() {
        // Every sample is one class, all predicted right: that class has
        // perfect recall/precision, every other class scores zero without
        // polluting accuracy or macro recall.
        let m = ConfusionMatrix::from_pairs(4, &[2, 2, 2, 2], &[2, 2, 2, 2]);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.recall(2), 1.0);
        assert_eq!(m.precision(2), 1.0);
        assert_eq!(m.macro_recall(), 1.0, "absent classes are ignored");
        for c in [0, 1, 3] {
            assert_eq!(m.recall(c), 0.0);
            assert_eq!(m.precision(c), 0.0);
        }
        // Same batch entirely misclassified into an absent class: the
        // absent class gets predictions (precision 0 via the diagonal)
        // while the true class keeps recall 0.
        let wrong = ConfusionMatrix::from_pairs(4, &[2, 2, 2], &[0, 0, 0]);
        assert_eq!(wrong.accuracy(), 0.0);
        assert_eq!(wrong.recall(2), 0.0);
        assert_eq!(
            wrong.precision(0),
            0.0,
            "no class-0 truth to be right about"
        );
        assert_eq!(wrong.macro_recall(), 0.0);
    }

    #[test]
    fn absent_class_recall_does_not_nan() {
        // A class that never appears in truth must score 0, not NaN, for
        // every derived metric — the streaming gauges publish these raw.
        let m = ConfusionMatrix::from_pairs(3, &[0, 1, 0, 1], &[0, 1, 1, 1]);
        assert_eq!(m.recall(2), 0.0);
        assert_eq!(m.precision(2), 0.0);
        assert!(m.recall(2).is_finite() && m.precision(2).is_finite());
    }

    #[test]
    fn incremental_matches_batch() {
        // The streaming path folds record() one pair at a time; it must
        // land on exactly the matrix from_pairs builds in one shot.
        let truth = [0, 3, 1, 1, 2, 0, 3, 3, 2, 1, 0, 2];
        let pred = [0, 3, 1, 2, 2, 1, 3, 0, 2, 1, 0, 2];
        let batch = ConfusionMatrix::from_pairs(4, &truth, &pred);
        let mut streaming = ConfusionMatrix::new(4);
        for (&t, &p) in truth.iter().zip(&pred) {
            streaming.record(t, p);
        }
        assert_eq!(streaming, batch);
        assert_eq!(streaming.accuracy(), batch.accuracy());
        assert_eq!(streaming.macro_recall(), batch.macro_recall());
    }

    #[test]
    fn sliding_window_forget_equals_suffix_rebuild() {
        // record() everything then forget() the prefix: identical to
        // building from the suffix alone — the invariant the rolling
        // quality windows rely on.
        let truth = [0, 1, 2, 0, 1, 2, 2, 1, 0];
        let pred = [0, 1, 0, 0, 2, 2, 2, 1, 1];
        let cut = 4;
        let mut rolling = ConfusionMatrix::new(3);
        for (&t, &p) in truth.iter().zip(&pred) {
            rolling.record(t, p);
        }
        for (&t, &p) in truth[..cut].iter().zip(&pred[..cut]) {
            rolling.forget(t, p);
        }
        let suffix = ConfusionMatrix::from_pairs(3, &truth[cut..], &pred[cut..]);
        assert_eq!(rolling, suffix);
        assert_eq!(rolling.total(), truth.len() - cut);
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn forget_of_unrecorded_pair_panics() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 0);
        m.forget(0, 1);
    }

    #[test]
    fn serde_roundtrip_preserves_counts() {
        let m = ConfusionMatrix::from_pairs(3, &[0, 0, 1, 2, 2], &[0, 1, 1, 2, 0]);
        let back: ConfusionMatrix =
            serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.get(2, 0), 1);
    }
}
