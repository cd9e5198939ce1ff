//! Triple-selection policies and scoring for the HATT greedy
//! construction.
//!
//! The paper's Algorithm 1 line "pick the triple minimizing the settled
//! weight" leaves two degrees of freedom that turn out to dominate tree
//! quality on larger Hamiltonians (cf. the Bonsai observation that
//! tie-breaking and leaf-assignment order decide ternary-tree quality):
//! *which* of the many tied minimum-weight triples wins, and whether the
//! objective may account for the future at all. On the dense Table I
//! molecules the literal per-step objective is a greedy trap — it loses
//! to plain Jordan-Wigner — so this module makes the objective explicit
//! and configurable.
//!
//! ## The amortized objective
//!
//! Let `n_k` be the number of Hamiltonian terms containing exactly `k`
//! of a candidate triple's symbols ([`TripleCounts`]). The paper's
//! objective is the settled weight `w = n₁ + n₂`. Define the potential
//! `Φ = ½ Σ_t |inc(t)|` (half the total symbol mass still to be merged
//! away; every costed step removes at most two symbols from a term, so
//! `Φ` lower-bounds the remaining cost). One reduce changes it by
//! `ΔΦ = ½(residual − S) = −(n₂ + n₃)`, giving the amortized step cost
//!
//! ```text
//!     w + λ·ΔΦ = (n₁ + n₂) − λ·(n₂ + n₃)
//! ```
//!
//! [`Blend`] fixes `λ` (as the rational `num/den`); `λ = 0` recovers the
//! paper's myopic objective, `λ = 1` charges each step its weight minus
//! the progress it makes. Empirically `λ = 1` matches or beats the
//! myopic objective almost everywhere, and different Hamiltonian
//! families prefer slightly different `λ` — which is what the
//! [`SelectionPolicy::Restarts`] portfolio exploits.
//!
//! # Examples
//!
//! ```
//! use hatt_mappings::SelectionPolicy;
//!
//! let default = SelectionPolicy::default();
//! assert_eq!(default, SelectionPolicy::Greedy);
//! // Policies parse from the compact CLI/env syntax used by the bench
//! // binaries (`HATT_POLICY=beam:8 cargo run --bin table1`).
//! assert_eq!(
//!     "lookahead:12".parse::<SelectionPolicy>().unwrap(),
//!     SelectionPolicy::Lookahead { width: 12 },
//! );
//! assert_eq!(SelectionPolicy::Beam { width: 8 }.to_string(), "beam:8");
//! ```

use std::fmt;
use std::str::FromStr;

/// How the HATT construction chooses among candidate triples.
///
/// See the [module docs](self) for the scoring rationale. The `Default`
/// policy is [`SelectionPolicy::Greedy`]; [`SelectionPolicy::quality`]
/// names the configuration the benchmark tables use when quality matters
/// more than construction time. Every policy is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionPolicy {
    /// One greedy pass under the amortized objective (`λ = 1`), ties
    /// broken by residual then node index. The default; keeps the O(1)
    /// memoized kernel on the hot path.
    #[default]
    Greedy,
    /// One greedy pass under the paper's literal myopic objective
    /// (`λ = 0`, first-best tie-breaking by residual then node index).
    /// Kept as the reference/ablation point.
    Vanilla,
    /// Greedy shortlist of at most `width` candidates, re-ranked by a
    /// 1-step lookahead (candidate amortized key + best next-step key).
    Lookahead {
        /// Maximum number of shortlisted candidates to simulate.
        width: usize,
    },
    /// Beam search keeping the `width` best merge-sequence prefixes,
    /// ranked by accumulated amortized score. `Beam { width: 1 }`
    /// coincides with `Greedy`.
    Beam {
        /// Number of partial constructions kept per step.
        width: usize,
    },
    /// Bounded multi-restart portfolio: greedy passes at
    /// `λ ∈ {½, 1, 2}`, a `Beam { width: 8 }` pass, and a
    /// Jordan-Wigner-structured merge sequence, returning the best final
    /// tree. This is the quality configuration used by the evaluation
    /// tables — the JW restart guarantees HATT never loses to
    /// Jordan-Wigner.
    Restarts,
}

impl SelectionPolicy {
    /// The quality-first configuration used by the evaluation tables
    /// (Tables I–III): the restart portfolio.
    pub fn quality() -> Self {
        SelectionPolicy::Restarts
    }

    /// The fixed, ordered member list of the [`SelectionPolicy::Restarts`]
    /// portfolio: the λ-ladder greedy passes, one `beam:8` pass, and the
    /// Jordan-Wigner caterpillar replay.
    ///
    /// **The order is part of the portfolio's contract.** The winner rule
    /// is *best final settled weight, earliest member on ties*, so the
    /// result is a pure function of this array — which is what lets the
    /// construction engine run the members on separate threads (they are
    /// fully independent) and still produce output bit-identical to the
    /// sequential loop: workers fill a slot per member and the reduction
    /// walks the slots in this order.
    ///
    /// # Examples
    ///
    /// ```
    /// use hatt_mappings::{Blend, PortfolioMember, SelectionPolicy};
    ///
    /// let members = SelectionPolicy::restarts_members();
    /// assert_eq!(members.len(), 5);
    /// assert_eq!(members[0], PortfolioMember::Greedy(Blend::HALF));
    /// assert_eq!(members[4], PortfolioMember::JwCaterpillar);
    /// ```
    pub fn restarts_members() -> [PortfolioMember; 5] {
        [
            PortfolioMember::Greedy(Blend::HALF),
            PortfolioMember::Greedy(Blend::UNIT),
            PortfolioMember::Greedy(Blend::DOUBLE),
            PortfolioMember::Beam { width: 8 },
            PortfolioMember::JwCaterpillar,
        ]
    }

    /// Short display label for tables and perf artifacts.
    pub fn label(self) -> String {
        self.to_string()
    }

    /// The blend a single-pass run of this policy scores with
    /// ([`Blend::PAPER`] for `Vanilla`, [`Blend::UNIT`] otherwise; the
    /// `Restarts` portfolio iterates over several blends itself).
    pub fn blend(self) -> Blend {
        match self {
            SelectionPolicy::Vanilla => Blend::PAPER,
            _ => Blend::UNIT,
        }
    }
}

impl fmt::Display for SelectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionPolicy::Greedy => write!(f, "greedy"),
            SelectionPolicy::Vanilla => write!(f, "vanilla"),
            SelectionPolicy::Lookahead { width } => write!(f, "lookahead:{width}"),
            SelectionPolicy::Beam { width } => write!(f, "beam:{width}"),
            SelectionPolicy::Restarts => write!(f, "restarts"),
        }
    }
}

/// One member of the [`SelectionPolicy::Restarts`] portfolio — a whole
/// independent construction, suitable for running on its own thread (see
/// [`SelectionPolicy::restarts_members`] for the order contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortfolioMember {
    /// One greedy pass under the given amortized blend.
    Greedy(Blend),
    /// One beam-search pass at `λ = 1`.
    Beam {
        /// Number of partial constructions kept per step.
        width: usize,
    },
    /// Replay of the Jordan-Wigner caterpillar merge sequence (the
    /// member that guarantees HATT never loses to Jordan-Wigner).
    JwCaterpillar,
}

impl fmt::Display for PortfolioMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortfolioMember::Greedy(Blend { num, den: 1 }) => write!(f, "greedy(λ={num})"),
            PortfolioMember::Greedy(Blend { num, den }) => write!(f, "greedy(λ={num}/{den})"),
            PortfolioMember::Beam { width } => write!(f, "beam:{width}"),
            PortfolioMember::JwCaterpillar => write!(f, "jw-caterpillar"),
        }
    }
}

/// The widest `lookahead:<w>` or `beam:<w>` a policy string may name.
/// A beam keeps up to `width` cloned engine states per step, so policy
/// text from a request line or the environment may not ask for more.
const MAX_WIDTH: usize = 64;

/// Error from parsing a [`SelectionPolicy`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid selection policy {:?} (expected greedy | vanilla | restarts | lookahead:<width> | beam:<width>, width 1 to {MAX_WIDTH})",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for SelectionPolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePolicyError(s.to_string());
        match s.split_once(':') {
            None => match s {
                "greedy" => Ok(SelectionPolicy::Greedy),
                "vanilla" => Ok(SelectionPolicy::Vanilla),
                "restarts" => Ok(SelectionPolicy::Restarts),
                _ => Err(err()),
            },
            Some((kind, width)) => {
                let width: usize = width.parse().map_err(|_| err())?;
                if !(1..=MAX_WIDTH).contains(&width) {
                    return Err(err());
                }
                match kind {
                    "lookahead" => Ok(SelectionPolicy::Lookahead { width }),
                    "beam" => Ok(SelectionPolicy::Beam { width }),
                    _ => Err(err()),
                }
            }
        }
    }
}

/// The `λ = num/den` of the amortized objective (module docs). `λ = 0`
/// is the paper's myopic objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Blend {
    /// Numerator of `λ`.
    pub num: i64,
    /// Denominator of `λ` (> 0).
    pub den: i64,
}

impl Blend {
    /// The paper's literal objective, `λ = 0`.
    pub const PAPER: Blend = Blend { num: 0, den: 1 };
    /// `λ = ½`.
    pub const HALF: Blend = Blend { num: 1, den: 2 };
    /// `λ = 1` — the default amortized objective.
    pub const UNIT: Blend = Blend { num: 1, den: 1 };
    /// `λ = 2`.
    pub const DOUBLE: Blend = Blend { num: 2, den: 1 };
}

impl Default for Blend {
    fn default() -> Self {
        Blend::UNIT
    }
}

/// Per-candidate term-membership counts: `n_k` terms contain exactly
/// `k ∈ {1, 2, 3}` of the triple's symbols.
///
/// # Examples
///
/// ```
/// use hatt_mappings::{Blend, TripleCounts};
///
/// let c = TripleCounts { n1: 2, n2: 1, n3: 1 };
/// assert_eq!(c.weight(), 3);     // n1 + n2
/// assert_eq!(c.residual(), 3);   // n1 + n3
/// // Amortized key at λ = 1: w − (n2 + n3) = 1 (scaled by den = 1).
/// assert_eq!(c.score(Blend::UNIT).key, 1);
/// // λ = 0 reduces to the plain weight.
/// assert_eq!(c.score(Blend::PAPER).key, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TripleCounts {
    /// Terms containing exactly one symbol (cost 1 now, symbol survives).
    pub n1: usize,
    /// Terms containing exactly two (cost 1 now, symbols cancelled).
    pub n2: usize,
    /// Terms containing all three (free; net symbol removal).
    pub n3: usize,
}

impl TripleCounts {
    /// The paper's objective: Pauli weight settled on the new qubit.
    #[inline]
    pub fn weight(&self) -> usize {
        self.n1 + self.n2
    }

    /// Terms keeping the parent symbol after the reduce
    /// (`|A ⊕ B ⊕ C|`) — the future burden.
    #[inline]
    pub fn residual(&self) -> usize {
        self.n1 + self.n3
    }

    /// The full selection score under `blend` (see [`TripleScore`]).
    #[inline]
    pub fn score(&self, blend: Blend) -> TripleScore {
        TripleScore {
            key: blend.den * self.weight() as i64 - blend.num * (self.n2 + self.n3) as i64,
            weight: self.weight(),
            residual: self.residual(),
        }
    }
}

/// The selection score of one candidate triple: candidates are compared
/// by `(key, residual)` lexicographically — `<` means strictly better —
/// with the enumeration (node-index) order as the final implicit
/// tie-break in the selection loops. `weight` rides along for
/// instrumentation and is *not* part of the ordering (two candidates
/// with equal `(key, residual)` but different weight compare equal).
///
/// # Examples
///
/// ```
/// use hatt_mappings::TripleScore;
///
/// let a = TripleScore { key: 2, weight: 2, residual: 1 };
/// let b = TripleScore { key: 2, weight: 2, residual: 3 };
/// assert!(a < b, "equal key → smaller residual wins");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleScore {
    /// Amortized objective value `den·w − num·(n₂ + n₃)` (primary).
    pub key: i64,
    /// The settled weight `n₁ + n₂` (reporting only; not ordered).
    pub weight: usize,
    /// The post-reduce residual `n₁ + n₃` (secondary).
    pub residual: usize,
}

impl TripleScore {
    /// The worst possible score — the identity of `min`.
    pub const MAX: TripleScore = TripleScore {
        key: i64::MAX,
        weight: usize::MAX,
        residual: usize::MAX,
    };
}

impl PartialOrd for TripleScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TripleScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.residual).cmp(&(other.key, other.residual))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for p in [
            SelectionPolicy::Greedy,
            SelectionPolicy::Vanilla,
            SelectionPolicy::Restarts,
            SelectionPolicy::Lookahead { width: 4 },
            SelectionPolicy::Beam { width: 16 },
            SelectionPolicy::Beam { width: 64 },
        ] {
            assert_eq!(p.to_string().parse::<SelectionPolicy>().unwrap(), p);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "beam",
            "beam:0",
            "beam:x",
            "anneal:3",
            "greedy:2",
            "beam:65",
            "lookahead:18446744073709551615",
        ] {
            assert!(s.parse::<SelectionPolicy>().is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn score_orders_by_key_then_residual() {
        let better = TripleScore {
            key: 1,
            weight: 5,
            residual: 9,
        };
        let worse = TripleScore {
            key: 2,
            weight: 2,
            residual: 0,
        };
        assert!(better < worse, "key dominates residual");
        assert!(TripleScore::MAX > worse);
        let tie_a = TripleScore {
            key: 2,
            weight: 2,
            residual: 1,
        };
        assert!(worse < tie_a, "equal key → smaller residual wins");
        // `weight` is reporting-only: equal (key, residual) compare equal.
        let same = TripleScore {
            key: 2,
            weight: 7,
            residual: 0,
        };
        assert_eq!(worse.cmp(&same), std::cmp::Ordering::Equal);
    }

    #[test]
    fn counts_derive_weight_residual_and_keys() {
        let c = TripleCounts {
            n1: 3,
            n2: 2,
            n3: 1,
        };
        assert_eq!(c.weight(), 5);
        assert_eq!(c.residual(), 4);
        assert_eq!(c.score(Blend::PAPER).key, 5);
        assert_eq!(c.score(Blend::UNIT).key, 2);
        assert_eq!(c.score(Blend::HALF).key, 7); // 2·5 − 3
        assert_eq!(c.score(Blend::DOUBLE).key, -1);
        assert_eq!(c.score(Blend::UNIT).weight, 5);
    }

    #[test]
    fn quality_policy_is_the_portfolio() {
        assert_eq!(SelectionPolicy::quality(), SelectionPolicy::Restarts);
    }

    #[test]
    fn portfolio_members_are_fixed_and_ordered() {
        // The member list and its order are golden-pinned: the winner
        // rule ties-breaks by member index, so any change here changes
        // table results (see tests/golden.rs).
        let members = SelectionPolicy::restarts_members();
        assert_eq!(
            members,
            [
                PortfolioMember::Greedy(Blend::HALF),
                PortfolioMember::Greedy(Blend::UNIT),
                PortfolioMember::Greedy(Blend::DOUBLE),
                PortfolioMember::Beam { width: 8 },
                PortfolioMember::JwCaterpillar,
            ]
        );
        let labels: Vec<String> = members.iter().map(|m| m.to_string()).collect();
        assert_eq!(
            labels,
            [
                "greedy(λ=1/2)",
                "greedy(λ=1)",
                "greedy(λ=2)",
                "beam:8",
                "jw-caterpillar"
            ]
        );
    }
}
