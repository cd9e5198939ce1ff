//! Figure 12 — scalability: wall-clock construction time of the
//! Fermihedral substitute (exponential), HATT (unopt, Algorithm 1,
//! O(N⁴)), HATT (paired/uncached, Algorithm 2) and HATT (Algorithm 3,
//! O(N³)) on the paper's `H_F = Σ_i M_i` workload, swept to the paper's
//! N ≈ 100 regime, with log-log slope fits.
//!
//! `cargo run --release -p hatt-bench --bin fig12`
//! (set `HATT_FIG12_BUDGET=<seconds>` to change the per-point budget,
//! default 10 s; a variant stops at the first N whose construction
//! exceeds it).

use std::time::Instant;

use hatt_bench::perf::{
    loglog_slope, sweep_variant_on, SweepConfig, SweepPoint, SweepWorkload, VariantSweep,
};
use hatt_core::Variant;
use hatt_fermion::MajoranaSum;
use hatt_mappings::exhaustive_optimal;

fn cell(points: &[SweepPoint], n: usize) -> String {
    points
        .iter()
        .find(|p| p.n == n)
        .map_or_else(|| "-".to_string(), |p| format!("{:.5}", p.median))
}

fn main() {
    let budget = std::env::var("HATT_FIG12_BUDGET")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(10.0);
    let cfg = SweepConfig {
        ns: vec![2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 100],
        samples: 3,
        budget_per_point: budget,
        slope_min_n: 32,
    };

    println!("== Figure 12: scalability on H_F = Σ M_i (paper §V-E) ==");
    println!(
        "(median of {} runs; per-point budget {budget} s)",
        cfg.samples
    );

    // Fermihedral substitute: exhaustive search, exponential — N ≤ 4.
    let mut fh_pts = Vec::new();
    for n in cfg.ns.iter().copied().filter(|&n| n <= 4) {
        let h = MajoranaSum::uniform_singles(n);
        let t0 = Instant::now();
        let (m, _) = exhaustive_optimal(&h);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(m);
        fh_pts.push((n, dt));
    }

    let sweeps: Vec<VariantSweep> = [Variant::Unopt, Variant::Paired, Variant::Cached]
        .iter()
        .map(|&v| sweep_variant_on(&cfg, v, SweepWorkload::UniformSingles))
        .collect();
    let (unopt, paired, cached) = (&sweeps[0], &sweeps[1], &sweeps[2]);

    println!(
        "  {:>5} {:>12} {:>12} {:>12} {:>12}",
        "N", "FH(s)", "unopt(s)", "paired(s)", "HATT(s)"
    );
    for &n in &cfg.ns {
        let fh = fh_pts
            .iter()
            .find(|&&(m, _)| m == n)
            .map_or_else(|| "-".to_string(), |&(_, t)| format!("{t:.5}"));
        println!(
            "  {:>5} {:>12} {:>12} {:>12} {:>12}",
            n,
            fh,
            cell(&unopt.points, n),
            cell(&paired.points, n),
            cell(&cached.points, n),
        );
    }

    let fmt_slope = |s: Option<f64>| s.map_or_else(|| "n/a".to_string(), |v| format!("{v:.2}"));
    println!("\nlog-log slope fits (N ≥ {}):", cfg.slope_min_n);
    println!(
        "  HATT (unopt)  ~ N^{}   (paper: O(N^4))",
        fmt_slope(unopt.slope)
    );
    println!(
        "  HATT (paired) ~ N^{}   (uncached Algorithm 2)",
        fmt_slope(paired.slope)
    );
    println!(
        "  HATT          ~ N^{}   (paper: O(N^3))",
        fmt_slope(cached.slope)
    );
    if fh_pts.len() >= 2 {
        let (n0, t0) = fh_pts[fh_pts.len() - 2];
        let (n1, t1) = fh_pts[fh_pts.len() - 1];
        println!(
            "  FH substitute grows ×{:.1} from N={n0} to N={n1} (exponential, paper: O(4^N))",
            t1 / t0.max(1e-12)
        );
    }

    // Slopes fitted on the *overlapping* range make the O(N³)/O(N⁴)
    // separation directly comparable even when budgets truncate unopt.
    let n_common = unopt
        .points
        .last()
        .map(|p| p.n)
        .min(cached.points.last().map(|p| p.n));
    if let Some(n_max) = n_common {
        let tail = |s: &VariantSweep| -> Vec<(usize, f64)> {
            s.points
                .iter()
                .filter(|p| p.n >= cfg.slope_min_n && p.n <= n_max)
                .map(|p| (p.n, p.median))
                .collect()
        };
        println!(
            "  overlapping range ({} ≤ N ≤ {n_max}): unopt ~ N^{}, HATT ~ N^{}",
            cfg.slope_min_n,
            fmt_slope(loglog_slope(&tail(unopt))),
            fmt_slope(loglog_slope(&tail(cached))),
        );
        let t_unopt = unopt.points.iter().find(|p| p.n == n_max).unwrap();
        let t_cached = cached.points.iter().find(|p| p.n == n_max).unwrap();
        println!(
            "\nat N = {n_max}: HATT is {:.2}% faster than HATT (unopt)  (paper: 59.73%)",
            100.0 * (t_unopt.median - t_cached.median) / t_unopt.median
        );
    }
    if let Some(last) = cached.points.last() {
        println!(
            "HATT reached N = {} in {:.3} s per construction (memo: {} hits / {} misses)",
            last.n, last.median, last.memo_hits, last.memo_misses
        );
    }

    // The dense-molecule workload: unlike the singles chain, every mode
    // participates in quartic interaction terms, so candidate scans
    // touch many terms per triple — the structure shape of the Table I
    // electronic-structure cases.
    println!("\n== dense-molecule workload (2N hops + 4N interactions) ==");
    let dense = sweep_variant_on(&cfg, Variant::Cached, SweepWorkload::DenseMolecule);
    println!("  {:>5} {:>12} {:>12}", "N", "HATT(s)", "weight");
    for p in &dense.points {
        println!("  {:>5} {:>12.5} {:>12}", p.n, p.median, p.pauli_weight);
    }
    println!(
        "  dense HATT slope ~ N^{} (N ≥ {})",
        fmt_slope(dense.slope),
        cfg.slope_min_n
    );
}
