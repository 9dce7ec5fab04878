//! Support Vector Machines trained with simplified SMO.
//!
//! Binary soft-margin SVMs (hinge loss, box constraint `C`) optimized with
//! the simplified Sequential Minimal Optimization procedure, with linear
//! and RBF kernels; multiclass via one-vs-rest. Probabilities are a softmax
//! over the per-class decision values — enough for argmax prediction and a
//! usable confidence signal.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::Classifier;

/// SVM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// Dot-product kernel.
    Linear,
    /// Gaussian radial basis function `exp(-gamma * ||a-b||²)`.
    Rbf {
        /// Width parameter.
        gamma: f64,
    },
}

impl Kernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

/// SVM hyperparameters (the Fig. 14 sweep axes: `C` and kernel type).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Box constraint (regularization); larger = harder margin.
    pub c: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// SMO terminates after this many passes without updates.
    pub max_passes: usize,
    /// Hard cap on total SMO sweeps (guards pathological data).
    pub max_sweeps: usize,
    /// RNG seed for the partner-choice heuristic.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: 0.5 },
            tol: 1e-3,
            max_passes: 3,
            max_sweeps: 60,
            seed: 0,
        }
    }
}

/// One binary machine: support vectors with coefficients.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BinarySvm {
    support_x: Vec<Vec<f64>>,
    /// `alpha_i * y_i` per support vector.
    coef: Vec<f64>,
    b: f64,
    kernel: Kernel,
}

impl BinarySvm {
    fn decision(&self, x: &[f64]) -> f64 {
        self.support_x
            .iter()
            .zip(&self.coef)
            .map(|(sv, c)| c * self.kernel.eval(sv, x))
            .sum::<f64>()
            + self.b
    }
}

/// Trains one binary SVM with simplified SMO on `(x, y∈{-1,+1})`.
fn train_binary(x: &[Vec<f64>], y: &[f64], cfg: &SvmConfig, rng: &mut StdRng) -> BinarySvm {
    let n = x.len();
    let mut alphas = vec![0.0f64; n];
    let mut b = 0.0f64;

    // Precompute the kernel matrix for modest n (quadratic memory).
    let precompute = n <= 2500;
    let kmat: Vec<Vec<f64>> = if precompute {
        (0..n)
            .map(|i| (0..n).map(|j| cfg.kernel.eval(&x[i], &x[j])).collect())
            .collect()
    } else {
        Vec::new()
    };
    let k = |i: usize, j: usize| -> f64 {
        if precompute {
            kmat[i][j]
        } else {
            cfg.kernel.eval(&x[i], &x[j])
        }
    };
    let f_of = |alphas: &[f64], b: f64, i: usize| -> f64 {
        let mut s = b;
        for j in 0..n {
            if alphas[j] != 0.0 {
                s += alphas[j] * y[j] * k(j, i);
            }
        }
        s
    };

    let mut passes = 0usize;
    let mut sweeps = 0usize;
    while passes < cfg.max_passes && sweeps < cfg.max_sweeps {
        sweeps += 1;
        let mut changed = 0usize;
        for i in 0..n {
            let e_i = f_of(&alphas, b, i) - y[i];
            let r = y[i] * e_i;
            if (r < -cfg.tol && alphas[i] < cfg.c) || (r > cfg.tol && alphas[i] > 0.0) {
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let e_j = f_of(&alphas, b, j) - y[j];
                let (a_i_old, a_j_old) = (alphas[i], alphas[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() > 1e-12 {
                    (
                        (a_j_old - a_i_old).max(0.0),
                        (cfg.c + a_j_old - a_i_old).min(cfg.c),
                    )
                } else {
                    (
                        (a_i_old + a_j_old - cfg.c).max(0.0),
                        (a_i_old + a_j_old).min(cfg.c),
                    )
                };
                if (hi - lo).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * k(i, j) - k(i, i) - k(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut a_j = a_j_old - y[j] * (e_i - e_j) / eta;
                a_j = a_j.clamp(lo, hi);
                if (a_j - a_j_old).abs() < 1e-5 {
                    continue;
                }
                let a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j);
                alphas[i] = a_i;
                alphas[j] = a_j;

                let b1 =
                    b - e_i - y[i] * (a_i - a_i_old) * k(i, i) - y[j] * (a_j - a_j_old) * k(i, j);
                let b2 =
                    b - e_j - y[i] * (a_i - a_i_old) * k(i, j) - y[j] * (a_j - a_j_old) * k(j, j);
                b = if 0.0 < a_i && a_i < cfg.c {
                    b1
                } else if 0.0 < a_j && a_j < cfg.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }

    // Keep only support vectors.
    let mut support_x = Vec::new();
    let mut coef = Vec::new();
    for i in 0..n {
        if alphas[i] > 1e-8 {
            support_x.push(x[i].clone());
            coef.push(alphas[i] * y[i]);
        }
    }
    BinarySvm {
        support_x,
        coef,
        b,
        kernel: cfg.kernel,
    }
}

/// One-vs-rest multiclass SVM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvmOvr {
    machines: Vec<BinarySvm>,
    n_classes: usize,
}

impl SvmOvr {
    /// Fits one binary machine per class (class vs rest).
    ///
    /// Features should be standardized first (see
    /// [`crate::scale::StandardScaler`]); RBF widths assume unit-variance
    /// inputs.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, cfg: &SvmConfig) -> SvmOvr {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let machines = (0..data.n_classes)
            .map(|class| {
                let y: Vec<f64> = data
                    .y
                    .iter()
                    .map(|&yi| if yi == class { 1.0 } else { -1.0 })
                    .collect();
                train_binary(&data.x, &y, cfg, &mut rng)
            })
            .collect();
        SvmOvr {
            machines,
            n_classes: data.n_classes,
        }
    }

    /// Raw per-class decision values.
    fn decision_values(&self, x: &[f64]) -> Vec<f64> {
        self.machines.iter().map(|m| m.decision(x)).collect()
    }
}

impl Classifier for SvmOvr {
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        // Softmax over decision values.
        let d = self.decision_values(x);
        let m = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = d.iter().map(|v| (v - m).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.iter().map(|e| e / sum.max(1e-300)).collect()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn blobs(seed: u64, n: usize, centers: &[(f64, f64)]) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let c = rng.gen_range(0..centers.len());
            let (cx, cy) = centers[c];
            x.push(vec![
                cx + rng.gen_range(-0.8..0.8),
                cy + rng.gen_range(-0.8..0.8),
            ]);
            y.push(c);
        }
        Dataset::new(x, y)
    }

    #[test]
    fn linear_kernel_separates_blobs() {
        let train = blobs(1, 200, &[(0.0, 0.0), (4.0, 4.0)]);
        let test = blobs(2, 80, &[(0.0, 0.0), (4.0, 4.0)]);
        let svm = SvmOvr::fit(
            &train,
            &SvmConfig {
                kernel: Kernel::Linear,
                ..Default::default()
            },
        );
        let acc = accuracy(&test.y, &svm.predict_batch(&test.x));
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn rbf_kernel_separates_ring() {
        // Class 0: inner disc; class 1: ring — not linearly separable.
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..300 {
            let r: f64 = if rng.gen_bool(0.5) {
                rng.gen_range(0.0..1.0)
            } else {
                rng.gen_range(2.0..3.0)
            };
            let th: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            x.push(vec![r * th.cos(), r * th.sin()]);
            y.push(usize::from(r > 1.5));
        }
        let d = Dataset::new(x, y);
        let (train, test) = d.stratified_split(0.3, 1);

        let rbf = SvmOvr::fit(
            &train,
            &SvmConfig {
                kernel: Kernel::Rbf { gamma: 1.0 },
                c: 5.0,
                ..Default::default()
            },
        );
        let acc_rbf = accuracy(&test.y, &rbf.predict_batch(&test.x));
        assert!(acc_rbf > 0.9, "rbf accuracy {acc_rbf}");

        let lin = SvmOvr::fit(
            &train,
            &SvmConfig {
                kernel: Kernel::Linear,
                ..Default::default()
            },
        );
        let acc_lin = accuracy(&test.y, &lin.predict_batch(&test.x));
        assert!(
            acc_rbf > acc_lin + 0.15,
            "rbf {acc_rbf} vs linear {acc_lin}"
        );
    }

    #[test]
    fn multiclass_three_blobs() {
        let centers = [(0.0, 0.0), (5.0, 0.0), (2.5, 4.0)];
        let train = blobs(4, 240, &centers);
        let test = blobs(5, 90, &centers);
        let svm = SvmOvr::fit(&train, &SvmConfig::default());
        let acc = accuracy(&test.y, &svm.predict_batch(&test.x));
        assert!(acc > 0.92, "accuracy {acc}");
    }

    #[test]
    fn proba_is_a_distribution() {
        let d = blobs(6, 100, &[(0.0, 0.0), (4.0, 4.0)]);
        let svm = SvmOvr::fit(&d, &SvmConfig::default());
        let p = svm.predict_proba(&d.x[0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = blobs(7, 120, &[(0.0, 0.0), (4.0, 4.0)]);
        let a = SvmOvr::fit(&d, &SvmConfig::default());
        let b = SvmOvr::fit(&d, &SvmConfig::default());
        for x in d.x.iter().take(10) {
            assert_eq!(a.decision_values(x), b.decision_values(x));
        }
    }

    #[test]
    fn support_vectors_are_a_subset() {
        let d = blobs(8, 150, &[(0.0, 0.0), (6.0, 6.0)]);
        let svm = SvmOvr::fit(
            &d,
            &SvmConfig {
                kernel: Kernel::Linear,
                ..Default::default()
            },
        );
        // Well-separated blobs need few support vectors.
        let n_support: usize = svm.machines.iter().map(|m| m.support_x.len()).sum();
        assert!(n_support < d.len(), "{n_support} SVs");
        assert!(n_support > 0);
    }

    #[test]
    fn kernel_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let r = Kernel::Rbf { gamma: 0.5 }.eval(&[0.0], &[2.0]);
        assert!((r - (-2.0f64).exp()).abs() < 1e-12);
        assert_eq!(Kernel::Rbf { gamma: 1.0 }.eval(&[1.0], &[1.0]), 1.0);
    }
}
