//! Structural Hamiltonian deltas: the edit scripts behind incremental
//! remapping (`Mapper::remap` in `hatt-core`, the `map_delta` service
//! verb).
//!
//! Iterative algorithms — adaptive-VQE operator pools, active-space
//! growth — submit long streams of Hamiltonians that differ from their
//! predecessor by a handful of terms. A [`HamiltonianDelta`] captures
//! exactly that difference as an ordered list of term insertions and
//! removals over a fixed mode count, so downstream layers can rebuild
//! only where term incidence actually changed.
//!
//! The edit semantics are deliberately *strict*: an added term must be
//! absent from the base Hamiltonian and a removed term must be present
//! with the recorded coefficient. Strictness is what makes every delta
//! exactly invertible ([`HamiltonianDelta::inverted`]) and composable
//! ([`HamiltonianDelta::compose`]) — the properties the differential
//! remap harness leans on for its undo/compose sequences.
//!
//! # Examples
//!
//! ```
//! use hatt_fermion::{HamiltonianDelta, MajoranaSum};
//! use hatt_pauli::Complex64;
//!
//! let mut h = MajoranaSum::new(2);
//! h.add(Complex64::ONE, &[0, 1]);
//!
//! let mut delta = HamiltonianDelta::new(2);
//! delta.push_add(Complex64::real(0.5), &[2, 3])?;
//! delta.push_remove(Complex64::ONE, &[0, 1])?;
//!
//! let next = delta.apply(&h)?;
//! assert_eq!(next.n_terms(), 1);
//! // Every delta undoes exactly.
//! assert_eq!(delta.inverted().apply(&next)?, h);
//! # Ok::<(), hatt_fermion::DeltaError>(())
//! ```

use std::fmt;

use hatt_pauli::Complex64;

use crate::majorana::{canonicalize, MajoranaSum, MAJORANA_EPS};

/// One edit in a [`HamiltonianDelta`]: insert or delete a single
/// canonical Majorana monomial.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Insert a term; the canonical support must be absent from the
    /// Hamiltonian the delta is applied to.
    Add {
        /// Coefficient of the inserted monomial (canonicalization sign
        /// already folded in).
        coeff: Complex64,
        /// Canonical (sorted, pair-cancelled) Majorana index set.
        support: Vec<u32>,
    },
    /// Delete a term; it must be present with (approximately) this
    /// coefficient in the Hamiltonian the delta is applied to.
    Remove {
        /// Coefficient the monomial is expected to carry (used to check
        /// the removal and to restore the term on
        /// [`HamiltonianDelta::inverted`]).
        coeff: Complex64,
        /// Canonical (sorted, pair-cancelled) Majorana index set.
        support: Vec<u32>,
    },
}

impl DeltaOp {
    /// The canonical support the op touches.
    pub fn support(&self) -> &[u32] {
        match self {
            DeltaOp::Add { support, .. } | DeltaOp::Remove { support, .. } => support,
        }
    }

    fn inverted(&self) -> DeltaOp {
        match self {
            DeltaOp::Add { coeff, support } => DeltaOp::Remove {
                coeff: *coeff,
                support: support.clone(),
            },
            DeltaOp::Remove { coeff, support } => DeltaOp::Add {
                coeff: *coeff,
                support: support.clone(),
            },
        }
    }
}

/// Typed error for everything that can go wrong building or applying a
/// [`HamiltonianDelta`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeltaError {
    /// A term index is not a valid Majorana index for the delta's mode
    /// count.
    IndexOutOfRange {
        /// The offending Majorana index.
        index: u32,
        /// The delta's mode count (valid indices are `0..2·n_modes`).
        n_modes: usize,
    },
    /// The delta and the Hamiltonian it was applied to disagree on the
    /// mode count.
    ModeMismatch {
        /// Modes the delta was built for.
        delta: usize,
        /// Modes of the Hamiltonian it was applied to.
        hamiltonian: usize,
    },
    /// A term canonicalized to the identity (empty monomial); mapping
    /// Hamiltonians carry no identity term, so a delta may not either.
    IdentityTerm,
    /// A term coefficient is (numerically) zero, which would make the
    /// edit a structural no-op while claiming to change the term set.
    ZeroCoefficient {
        /// Canonical support of the degenerate term.
        support: Vec<u32>,
    },
    /// An added term is already present in the base Hamiltonian.
    AddedTermPresent {
        /// Canonical support of the colliding term.
        support: Vec<u32>,
    },
    /// A removed term is absent from the base Hamiltonian.
    RemovedTermMissing {
        /// Canonical support of the missing term.
        support: Vec<u32>,
    },
    /// A removed term is present but carries a different coefficient
    /// than the delta recorded — the delta was built against a
    /// different base.
    RemovedTermDiffers {
        /// Canonical support of the mismatched term.
        support: Vec<u32>,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn monomial(support: &[u32]) -> String {
            support.iter().map(|i| format!("M{i}")).collect()
        }
        match self {
            DeltaError::IndexOutOfRange { index, n_modes } => write!(
                f,
                "Majorana index {index} out of range 0..{} for {n_modes} modes",
                2 * n_modes
            ),
            DeltaError::ModeMismatch { delta, hamiltonian } => write!(
                f,
                "delta is over {delta} modes but the Hamiltonian has {hamiltonian}"
            ),
            DeltaError::IdentityTerm => {
                write!(f, "delta term canonicalizes to the identity monomial")
            }
            DeltaError::ZeroCoefficient { support } => {
                write!(f, "delta term {} has a zero coefficient", monomial(support))
            }
            DeltaError::AddedTermPresent { support } => write!(
                f,
                "added term {} is already present in the base Hamiltonian",
                monomial(support)
            ),
            DeltaError::RemovedTermMissing { support } => write!(
                f,
                "removed term {} is absent from the base Hamiltonian",
                monomial(support)
            ),
            DeltaError::RemovedTermDiffers { support } => write!(
                f,
                "removed term {} carries a different coefficient than the delta recorded",
                monomial(support)
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// An ordered edit script over the terms of a [`MajoranaSum`]: the
/// structural difference between two Hamiltonians in a streaming
/// workload.
///
/// Construct with [`new`](HamiltonianDelta::new) and grow with
/// [`push_add`](HamiltonianDelta::push_add) /
/// [`push_remove`](HamiltonianDelta::push_remove); both canonicalize the
/// index sequence (sort, cancel squares, fold the anticommutation sign
/// into the coefficient) so the stored ops always name canonical
/// monomials.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HamiltonianDelta {
    n_modes: usize,
    ops: Vec<DeltaOp>,
}

impl HamiltonianDelta {
    /// Creates an empty delta over `n_modes` fermionic modes.
    pub fn new(n_modes: usize) -> Self {
        HamiltonianDelta {
            n_modes,
            ops: Vec::new(),
        }
    }

    /// Number of fermionic modes the delta is built for.
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Number of edits in the script.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when the delta contains no edits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The edits in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    fn canonical_term(
        &self,
        coeff: Complex64,
        indices: &[u32],
    ) -> Result<(Complex64, Vec<u32>), DeltaError> {
        for &i in indices {
            if (i as usize) >= 2 * self.n_modes {
                return Err(DeltaError::IndexOutOfRange {
                    index: i,
                    n_modes: self.n_modes,
                });
            }
        }
        let (sign, support) = canonicalize(indices.to_vec());
        if support.is_empty() {
            return Err(DeltaError::IdentityTerm);
        }
        let coeff = coeff * sign;
        if coeff.is_zero(MAJORANA_EPS) {
            return Err(DeltaError::ZeroCoefficient { support });
        }
        Ok((coeff, support))
    }

    /// Appends a term insertion (indices in any order, repetitions
    /// allowed — canonicalized exactly like [`MajoranaSum::add`]).
    pub fn push_add(&mut self, coeff: Complex64, indices: &[u32]) -> Result<(), DeltaError> {
        let (coeff, support) = self.canonical_term(coeff, indices)?;
        self.ops.push(DeltaOp::Add { coeff, support });
        Ok(())
    }

    /// Appends a term removal; `coeff` must be the coefficient the term
    /// carries in the Hamiltonian the delta will be applied to (it is
    /// checked on [`apply`](HamiltonianDelta::apply) and restored on
    /// [`inverted`](HamiltonianDelta::inverted)).
    pub fn push_remove(&mut self, coeff: Complex64, indices: &[u32]) -> Result<(), DeltaError> {
        let (coeff, support) = self.canonical_term(coeff, indices)?;
        self.ops.push(DeltaOp::Remove { coeff, support });
        Ok(())
    }

    /// Applies the edit script to `prev`, returning the post-delta
    /// Hamiltonian. `prev` is not modified; any failed edit leaves no
    /// partial result behind.
    pub fn apply(&self, prev: &MajoranaSum) -> Result<MajoranaSum, DeltaError> {
        if prev.n_modes() != self.n_modes {
            return Err(DeltaError::ModeMismatch {
                delta: self.n_modes,
                hamiltonian: prev.n_modes(),
            });
        }
        let mut next = prev.clone();
        for op in &self.ops {
            match op {
                DeltaOp::Add { coeff, support } => {
                    if !next.coefficient_of(support).is_zero(MAJORANA_EPS) {
                        return Err(DeltaError::AddedTermPresent {
                            support: support.clone(),
                        });
                    }
                    next.add(*coeff, support);
                }
                DeltaOp::Remove { coeff, support } => match next.remove_term(support) {
                    None => {
                        return Err(DeltaError::RemovedTermMissing {
                            support: support.clone(),
                        })
                    }
                    Some(found) if !found.approx_eq(*coeff, MAJORANA_EPS) => {
                        return Err(DeltaError::RemovedTermDiffers {
                            support: support.clone(),
                        })
                    }
                    Some(_) => {}
                },
            }
        }
        Ok(next)
    }

    /// Concatenates two edit scripts: applying the result equals
    /// applying `self` then `other`.
    pub fn compose(&self, other: &HamiltonianDelta) -> Result<HamiltonianDelta, DeltaError> {
        if other.n_modes != self.n_modes {
            return Err(DeltaError::ModeMismatch {
                delta: self.n_modes,
                hamiltonian: other.n_modes,
            });
        }
        let mut ops = self.ops.clone();
        ops.extend(other.ops.iter().cloned());
        Ok(HamiltonianDelta {
            n_modes: self.n_modes,
            ops,
        })
    }

    /// The exact undo script: edits reversed, insertions and removals
    /// swapped. `d.inverted().apply(&d.apply(&h)?)? == h` for every
    /// Hamiltonian `h` the delta applies to.
    pub fn inverted(&self) -> HamiltonianDelta {
        HamiltonianDelta {
            n_modes: self.n_modes,
            ops: self.ops.iter().rev().map(DeltaOp::inverted).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> MajoranaSum {
        let mut h = MajoranaSum::new(3);
        h.add(Complex64::new(0.0, 0.5), &[0, 1]);
        h.add(Complex64::real(-0.5), &[2, 3]);
        h.add(Complex64::real(0.125), &[2, 3, 4, 5]);
        h
    }

    #[test]
    fn apply_adds_and_removes_terms() {
        let h = base();
        let mut d = HamiltonianDelta::new(3);
        d.push_add(Complex64::real(0.25), &[0, 1, 2, 3]).unwrap();
        d.push_remove(Complex64::real(-0.5), &[2, 3]).unwrap();
        let next = d.apply(&h).unwrap();
        assert_eq!(next.n_terms(), 3);
        assert!(next
            .coefficient_of(&[0, 1, 2, 3])
            .approx_eq(Complex64::real(0.25), 1e-12));
        assert!(next.coefficient_of(&[2, 3]).is_zero(1e-12));
        // The base is untouched.
        assert_eq!(h, base());
    }

    #[test]
    fn ops_are_canonicalized_on_push() {
        let mut d = HamiltonianDelta::new(2);
        // M1 M0 = -M0 M1: the sign folds into the stored coefficient.
        d.push_add(Complex64::ONE, &[1, 0]).unwrap();
        match &d.ops()[0] {
            DeltaOp::Add { coeff, support } => {
                assert_eq!(support, &vec![0, 1]);
                assert!(coeff.approx_eq(Complex64::real(-1.0), 1e-12));
            }
            other => panic!("expected Add, got {other:?}"),
        }
        // M2 M3 M2 = -M3.
        d.push_remove(Complex64::ONE, &[2, 3, 2]).unwrap();
        assert_eq!(d.ops()[1].support(), &[3]);
    }

    #[test]
    fn strictness_errors_are_typed() {
        let h = base();
        let mut d = HamiltonianDelta::new(3);
        d.push_add(Complex64::ONE, &[0, 1]).unwrap();
        assert_eq!(
            d.apply(&h),
            Err(DeltaError::AddedTermPresent {
                support: vec![0, 1]
            })
        );
        let mut d = HamiltonianDelta::new(3);
        d.push_remove(Complex64::ONE, &[4, 5]).unwrap();
        assert_eq!(
            d.apply(&h),
            Err(DeltaError::RemovedTermMissing {
                support: vec![4, 5]
            })
        );
        let mut d = HamiltonianDelta::new(3);
        d.push_remove(Complex64::ONE, &[2, 3]).unwrap();
        assert_eq!(
            d.apply(&h),
            Err(DeltaError::RemovedTermDiffers {
                support: vec![2, 3]
            })
        );
        assert_eq!(
            HamiltonianDelta::new(2).apply(&h),
            Err(DeltaError::ModeMismatch {
                delta: 2,
                hamiltonian: 3
            })
        );
    }

    #[test]
    fn push_validation_errors_are_typed() {
        let mut d = HamiltonianDelta::new(1);
        assert_eq!(
            d.push_add(Complex64::ONE, &[2]),
            Err(DeltaError::IndexOutOfRange {
                index: 2,
                n_modes: 1
            })
        );
        assert_eq!(
            d.push_add(Complex64::ONE, &[0, 0]),
            Err(DeltaError::IdentityTerm)
        );
        assert_eq!(
            d.push_add(Complex64::ZERO, &[0, 1]),
            Err(DeltaError::ZeroCoefficient {
                support: vec![0, 1]
            })
        );
        assert!(d.is_empty());
    }

    #[test]
    fn inverted_is_an_exact_undo() {
        let h = base();
        let mut d = HamiltonianDelta::new(3);
        d.push_remove(Complex64::new(0.0, 0.5), &[0, 1]).unwrap();
        d.push_add(Complex64::real(2.0), &[0, 1, 4, 5]).unwrap();
        // Re-adding the support just removed, with a new coefficient,
        // exercises the ordering sensitivity of undo.
        d.push_add(Complex64::real(3.0), &[0, 1]).unwrap();
        let next = d.apply(&h).unwrap();
        assert_eq!(d.inverted().apply(&next).unwrap(), h);
    }

    #[test]
    fn compose_equals_sequential_application() {
        let h = base();
        let mut d1 = HamiltonianDelta::new(3);
        d1.push_add(Complex64::real(0.75), &[1, 2]).unwrap();
        let mut d2 = HamiltonianDelta::new(3);
        d2.push_remove(Complex64::real(0.75), &[1, 2]).unwrap();
        d2.push_add(Complex64::real(0.75), &[1, 4]).unwrap();
        let composed = d1.compose(&d2).unwrap();
        assert_eq!(
            composed.apply(&h).unwrap(),
            d2.apply(&d1.apply(&h).unwrap()).unwrap()
        );
        assert_eq!(composed.len(), 3);
        assert!(matches!(
            d1.compose(&HamiltonianDelta::new(2)),
            Err(DeltaError::ModeMismatch { .. })
        ));
    }

    #[test]
    fn display_messages_name_the_monomial() {
        let e = DeltaError::RemovedTermMissing {
            support: vec![2, 3],
        };
        assert!(e.to_string().contains("M2M3"));
        let e = DeltaError::IndexOutOfRange {
            index: 9,
            n_modes: 2,
        };
        assert!(e.to_string().contains("0..4"));
    }
}
