//! # hatt-bench
//!
//! The benchmark harness regenerating every table and figure of the HATT
//! paper's evaluation section (§V). Each `table*`/`fig*` binary prints the
//! corresponding rows; this library holds the shared pipeline:
//!
//! * workload construction (the three benchmark families),
//! * the mapping roster (JW / BK / BTT / FH / HATT),
//! * the compilation pipeline (map → Trotter → optimize → metrics)
//!   matching the paper's "Paulihedral + Qiskit L3" setup,
//! * table formatting.
//!
//! Run e.g. `cargo run --release -p hatt-bench --bin table1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use std::time::Instant;

use hatt_circuit::{optimize, trotter_circuit, CircuitMetrics, TermOrder};
use hatt_core::Mapper;
use hatt_fermion::{FermionOperator, MajoranaSum};
use hatt_mappings::{
    anneal_search, balanced_ternary_tree, bravyi_kitaev, exhaustive_optimal, jordan_wigner,
    AnnealingOptions, FermionMapping, SelectionPolicy, EXHAUSTIVE_MODE_LIMIT,
};

/// Which mappings a table evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingRoster {
    /// Include the Fermihedral substitute (exhaustive ≤ the mode limit,
    /// annealed otherwise up to `fh_anneal_limit`).
    pub include_fh: bool,
    /// Largest mode count for the annealed FH* fallback (0 disables it).
    pub fh_anneal_limit: usize,
    /// Selection policy for the HATT rows. The tables default to
    /// [`SelectionPolicy::quality`] (the restart portfolio) — quality is
    /// what the evaluation section measures; the time cost of each
    /// policy is measured separately by the `policy` binary.
    pub hatt_policy: SelectionPolicy,
}

impl Default for MappingRoster {
    fn default() -> Self {
        MappingRoster {
            include_fh: true,
            fh_anneal_limit: 18,
            hatt_policy: SelectionPolicy::quality(),
        }
    }
}

impl MappingRoster {
    /// The default roster with the HATT policy overridden by the
    /// `HATT_POLICY` environment variable when set (used by the table
    /// binaries; e.g. `HATT_POLICY=greedy cargo run --bin table1`).
    ///
    /// # Panics
    ///
    /// Panics when `HATT_POLICY` is set but unparsable.
    pub fn from_env() -> Self {
        let mut roster = MappingRoster::default();
        if let Ok(s) = std::env::var("HATT_POLICY") {
            roster.hatt_policy = s.parse().expect("invalid HATT_POLICY");
        }
        roster
    }
}

/// An uncached [`Mapper`] under the given policy — cold constructions
/// only, which is what every table/figure binary and timing loop in
/// this harness must measure. (A warm structure cache would silently
/// turn repeat constructions into replays.)
pub fn cold_mapper(policy: SelectionPolicy) -> Mapper {
    Mapper::builder()
        .policy(policy)
        .cache_capacity(0)
        .build()
        .expect("static mapper configuration")
}

/// One evaluated (case, mapping) cell: the paper's three metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCell {
    /// Mapping name (`JW`, `BK`, `BTT`, `FH`, `HATT`, …).
    pub mapping: String,
    /// Pauli weight of the mapped Hamiltonian.
    pub pauli_weight: usize,
    /// Optimized-circuit metrics of one Trotter step.
    pub metrics: CircuitMetrics,
    /// Mapping-construction wall time in seconds.
    pub construct_seconds: f64,
}

/// Compiles one Trotter step of the mapped Hamiltonian through the
/// paper's pipeline (lexicographic term ordering + the L3-style
/// optimizer) and collects the metrics.
pub fn evaluate_mapping<M: FermionMapping + ?Sized>(
    mapping: &M,
    h: &MajoranaSum,
    construct_seconds: f64,
) -> EvalCell {
    let hq = mapping.map_majorana_sum(h);
    let pauli_weight = {
        let mut hw = hq.clone();
        let _ = hw.take_identity();
        hw.weight()
    };
    let circuit = trotter_circuit(&hq, 1.0, 1, TermOrder::Lexicographic);
    let opt = optimize(&circuit);
    EvalCell {
        mapping: mapping.name().to_string(),
        pauli_weight,
        metrics: opt.metrics(),
        construct_seconds,
    }
}

/// Runs the full roster on one Hamiltonian, in the paper's column order.
pub fn evaluate_case(h: &MajoranaSum, roster: &MappingRoster) -> Vec<EvalCell> {
    let n = h.n_modes();
    let mut cells = Vec::new();

    let t0 = Instant::now();
    let jw = jordan_wigner(n);
    cells.push(evaluate_mapping(&jw, h, t0.elapsed().as_secs_f64()));

    let t0 = Instant::now();
    let bk = bravyi_kitaev(n);
    cells.push(evaluate_mapping(&bk, h, t0.elapsed().as_secs_f64()));

    let t0 = Instant::now();
    let btt = balanced_ternary_tree(n);
    cells.push(evaluate_mapping(&btt, h, t0.elapsed().as_secs_f64()));

    if roster.include_fh {
        if n <= EXHAUSTIVE_MODE_LIMIT.min(5) {
            let t0 = Instant::now();
            let (fh, _) = exhaustive_optimal(h);
            cells.push(evaluate_mapping(&fh, h, t0.elapsed().as_secs_f64()));
        } else if n <= roster.fh_anneal_limit {
            let t0 = Instant::now();
            // The annealed FH* fallback completes sequences under the
            // roster's policy too (whole-construction policies degrade
            // to the tie-broken greedy inside a completion).
            let opts = AnnealingOptions {
                policy: roster.hatt_policy,
                ..Default::default()
            };
            let (fh, _) = anneal_search(h, &opts);
            cells.push(evaluate_mapping(&fh, h, t0.elapsed().as_secs_f64()));
        }
    }

    let mapper = cold_mapper(roster.hatt_policy);
    let t0 = Instant::now();
    let hatt = mapper.map(h).expect("benchmark Hamiltonians are non-empty");
    cells.push(evaluate_mapping(&hatt, h, t0.elapsed().as_secs_f64()));
    cells
}

/// Preprocesses a second-quantized Hamiltonian (drops the constant).
pub fn preprocess(op: &FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(op);
    let _ = m.take_identity();
    m.prune(1e-10);
    m
}

/// Preprocesses but keeps the constant term — required by the energy
/// experiments (Figs. 10 and 11), where the identity carries a large part
/// of the molecular energy.
pub fn preprocess_keep_constant(op: &FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(op);
    m.prune(1e-10);
    m
}

/// Prints one table block: a header, then for every case a row per
/// mapping with the three paper metrics.
pub fn print_case_block(case: &str, modes: usize, cells: &[EvalCell]) {
    println!("\n{case} ({modes} modes)");
    println!(
        "  {:<14} {:>12} {:>10} {:>8} {:>10}",
        "mapping", "PauliWeight", "CNOT", "Depth", "1q(U3)"
    );
    for c in cells {
        println!(
            "  {:<14} {:>12} {:>10} {:>8} {:>10}",
            c.mapping, c.pauli_weight, c.metrics.cnot, c.metrics.depth, c.metrics.single_qubit
        );
    }
}

/// Renders a percentage reduction `(base − ours)/base` for summaries.
pub fn reduction_pct(base: usize, ours: usize) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (base as f64 - ours as f64) / base as f64
    }
}

/// Mean reduction of HATT vs a named baseline over many evaluated cases,
/// as `(weight%, cnot%, depth%)`.
pub fn summarize_reduction(
    rows: &[(String, Vec<EvalCell>)],
    baseline: &str,
) -> Option<(f64, f64, f64)> {
    let mut weights = Vec::new();
    let mut cnots = Vec::new();
    let mut depths = Vec::new();
    for (_, cells) in rows {
        let base = cells.iter().find(|c| c.mapping == baseline)?;
        let hatt = cells.iter().find(|c| c.mapping == "HATT")?;
        weights.push(reduction_pct(base.pauli_weight, hatt.pauli_weight));
        cnots.push(reduction_pct(base.metrics.cnot, hatt.metrics.cnot));
        depths.push(reduction_pct(base.metrics.depth, hatt.metrics.depth));
    }
    if weights.is_empty() {
        return None;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Some((mean(&weights), mean(&cnots), mean(&depths)))
}

/// Prints the standard `HATT vs baseline` summary under a table.
pub fn print_summaries(rows: &[(String, Vec<EvalCell>)]) {
    println!();
    for baseline in ["JW", "BK", "BTT"] {
        if let Some((w, c, d)) = summarize_reduction(rows, baseline) {
            println!(
                "HATT vs {baseline:<4}: Pauli weight {w:+.2}%, CNOT {c:+.2}%, depth {d:+.2}% (positive = HATT better)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatt_fermion::models::FermiHubbard;

    #[test]
    fn pipeline_produces_all_mappings() {
        let h = preprocess(&FermiHubbard::new(2, 2).hamiltonian());
        let cells = evaluate_case(&h, &MappingRoster::default());
        let names: Vec<&str> = cells.iter().map(|c| c.mapping.as_str()).collect();
        assert_eq!(names, vec!["JW", "BK", "BTT", "FH*", "HATT"]);
        for c in &cells {
            assert!(c.pauli_weight > 0);
            assert!(c.metrics.cnot > 0);
        }
    }

    #[test]
    fn hubbard_2x2_reproduces_paper_weights() {
        // Paper Table II, 2×2: JW 80, BK 80, BTT 86, HATT 76. The
        // restart portfolio beats the paper's own HATT number (56 < 76).
        let h = preprocess(&FermiHubbard::new(2, 2).hamiltonian());
        let cells = evaluate_case(
            &h,
            &MappingRoster {
                include_fh: false,
                fh_anneal_limit: 0,
                ..Default::default()
            },
        );
        let w: Vec<usize> = cells.iter().map(|c| c.pauli_weight).collect();
        assert_eq!(w[0], 80, "JW weight");
        assert_eq!(w[1], 80, "BK weight");
        assert_eq!(w[3], 56, "HATT weight");
        // BTT is 84 under our pairing (paper: 86) — same shape.
        assert!(w[2] >= 80, "BTT should not beat JW here");
    }

    #[test]
    fn reduction_summary() {
        assert!((reduction_pct(100, 85) - 15.0).abs() < 1e-12);
        assert_eq!(reduction_pct(0, 5), 0.0);
    }
}
