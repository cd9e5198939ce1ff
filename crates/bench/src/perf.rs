//! The scalability sweep behind `fig12`: timed cold HATT constructions
//! across N on the paper's `H_F = Σ_i M_i` workload (§V-E) and on a
//! dense molecule-like workload, the median time per point, and
//! least-squares log-log slope fits against the paper's complexity
//! claims (Algorithm 1 `O(N⁴)`, Algorithm 3 `O(N³)`).

use std::time::Instant;

use hatt_core::{HattMapping, Mapper, Variant};
use hatt_fermion::models::random_hermitian;
use hatt_fermion::MajoranaSum;

/// Sweep configuration for `fig12`.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Mode counts to visit, ascending.
    pub ns: Vec<usize>,
    /// Timed construction samples per (variant, N) point.
    pub samples: usize,
    /// Per-point wall-clock budget in seconds: once a point's *first*
    /// sample exceeds it, the variant stops at that N (the point is
    /// still recorded from that single sample).
    pub budget_per_point: f64,
    /// Smallest N included in the slope fit (asymptotics need the tail).
    pub slope_min_n: usize,
}

/// One timed (variant, N) sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Mode count.
    pub n: usize,
    /// Median construction wall time over the samples, in seconds.
    pub median: f64,
    /// Samples taken (1 when the first one blew the budget).
    pub samples: usize,
    /// Total settled Pauli weight (the construction objective).
    pub pauli_weight: usize,
    /// Pairwise-memo hits inside the selection kernel.
    pub memo_hits: u64,
    /// Pairwise-memo misses.
    pub memo_misses: u64,
}

/// A completed per-variant sweep.
#[derive(Debug, Clone)]
pub struct VariantSweep {
    /// Points actually completed (the budget may truncate the tail).
    pub points: Vec<SweepPoint>,
    /// Fitted log-log slope over points with `n ≥ slope_min_n`
    /// (`None` with fewer than two such points).
    pub slope: Option<f64>,
}

/// The Hamiltonian family a scalability sweep times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkload {
    /// The paper's `H_F = Σ_i M_i` chain (§V-E): every term is one
    /// Majorana pair — the sparsest possible structure.
    UniformSingles,
    /// A dense molecule-like instance: `2N` one-body hops plus `4N`
    /// two-body interactions (quartic Majorana supports), deterministic
    /// in `N`. This is the structure shape of the Table I
    /// electronic-structure cases, where candidate scans touch far more
    /// terms per triple than the singles chain.
    DenseMolecule,
}

impl SweepWorkload {
    /// The workload instance at `n` modes (pure function of `n`).
    pub fn hamiltonian(self, n: usize) -> MajoranaSum {
        match self {
            SweepWorkload::UniformSingles => MajoranaSum::uniform_singles(n),
            SweepWorkload::DenseMolecule => {
                crate::preprocess(&random_hermitian(n, 2 * n, 4 * n, 0xDE5E + n as u64))
            }
        }
    }
}

/// Runs one timed cold construction (caching off), returning
/// `(seconds, mapping)`.
fn time_construction(h: &MajoranaSum, variant: Variant) -> (f64, HattMapping) {
    let mapper = Mapper::builder()
        .variant(variant)
        .cache_capacity(0)
        .build()
        .expect("static mapper configuration");
    let t0 = Instant::now();
    let m = mapper.map(h).expect("sweep Hamiltonians are non-empty");
    (t0.elapsed().as_secs_f64(), m)
}

/// Median of a non-empty sample set (mean of the middle pair when even).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        0.5 * (samples[mid - 1] + samples[mid])
    }
}

/// Sweeps one variant over the configured Ns on the given workload,
/// stopping early when a point blows the per-point budget.
pub fn sweep_variant_on(
    cfg: &SweepConfig,
    variant: Variant,
    workload: SweepWorkload,
) -> VariantSweep {
    let mut points = Vec::new();
    for &n in &cfg.ns {
        let h = workload.hamiltonian(n);
        let (first, mapping) = time_construction(&h, variant);
        let mut samples = vec![first];
        let over_budget = first > cfg.budget_per_point;
        if !over_budget {
            for _ in 1..cfg.samples {
                samples.push(time_construction(&h, variant).0);
            }
        }
        let stats = mapping.stats();
        points.push(SweepPoint {
            n,
            median: median(&mut samples),
            samples: samples.len(),
            pauli_weight: stats.total_weight(),
            memo_hits: stats.memo_hits,
            memo_misses: stats.memo_misses,
        });
        if over_budget {
            break;
        }
    }
    let slope = loglog_slope(
        &points
            .iter()
            .filter(|p| p.n >= cfg.slope_min_n)
            .map(|p| (p.n, p.median))
            .collect::<Vec<_>>(),
    );
    VariantSweep { points, slope }
}

/// Least-squares slope of `ln t` against `ln n`; `None` with fewer than
/// two usable (positive-time) points.
pub fn loglog_slope(points: &[(usize, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, t)| t > 0.0)
        .map(|&(n, t)| ((n as f64).ln(), t.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_perfect_cubic_is_three() {
        let pts: Vec<(usize, f64)> = [8usize, 16, 32, 64]
            .iter()
            .map(|&n| (n, (n as f64).powi(3)))
            .collect();
        let s = loglog_slope(&pts).unwrap();
        assert!((s - 3.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn slope_needs_two_points() {
        assert!(loglog_slope(&[]).is_none());
        assert!(loglog_slope(&[(8, 1.0)]).is_none());
        assert!(loglog_slope(&[(8, 0.0), (16, 0.0)]).is_none());
    }

    #[test]
    fn median_is_the_middle_sample_or_the_mean_of_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn smoke_sweep_produces_points() {
        let cfg = SweepConfig {
            ns: vec![4, 6, 8],
            samples: 2,
            budget_per_point: 5.0,
            slope_min_n: 4,
        };
        let sweep = sweep_variant_on(&cfg, Variant::Cached, SweepWorkload::UniformSingles);
        assert_eq!(sweep.points.len(), 3);
        for p in &sweep.points {
            assert!(p.pauli_weight > 0);
            assert!(p.median > 0.0);
            assert_eq!(p.samples, 2);
        }
        // The singles chain is sparse, so the cached variant's score
        // table walks live roots and never touches the pair memo; the
        // paired reference scan still scores through it.
        for p in &sweep.points {
            assert_eq!((p.memo_hits, p.memo_misses), (0, 0), "N = {}", p.n);
        }
        assert!(sweep.slope.is_some());
        let paired = sweep_variant_on(&cfg, Variant::Paired, SweepWorkload::UniformSingles);
        assert!(paired.points[0].memo_hits > 0);
    }

    #[test]
    fn dense_workload_is_deterministic_and_not_singles_shaped() {
        let a = SweepWorkload::DenseMolecule.hamiltonian(8);
        let b = SweepWorkload::DenseMolecule.hamiltonian(8);
        assert_eq!(a, b, "the sweep must time a pure function of N");
        // A dense instance must contain quartic supports — the shape
        // uniform_singles never has.
        assert!(
            a.iter().any(|(support, _)| support.len() == 4),
            "no two-body structure in the dense workload"
        );
        assert!(a.n_terms() > 8, "denser than the singles chain");
    }

    #[test]
    fn budget_truncates_the_tail() {
        let cfg = SweepConfig {
            ns: vec![4, 8, 12],
            samples: 2,
            budget_per_point: 0.0, // everything is over budget
            slope_min_n: 4,
        };
        let sweep = sweep_variant_on(&cfg, Variant::Cached, SweepWorkload::UniformSingles);
        assert_eq!(sweep.points.len(), 1, "must stop after the first point");
        assert_eq!(sweep.points[0].samples, 1, "no extra samples when over");
    }
}
