//! Proof certificates.
//!
//! Every prover in [`crate::induction`] and [`crate::cover`] returns a
//! [`Certificate`] recording the technique applied, the premises it
//! discharged and the conclusion — a machine-readable proof outline in the
//! style of the paper's appendix-A derivations. Tests cross-check
//! certificates against the exact decision procedures in [`crate::reach`].

use std::fmt;

/// One discharged premise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fact {
    /// φ was checked autonomous (Def 5-4).
    Autonomous,
    /// φ was checked A-autonomous (Def 5-2) for the named set.
    RelativelyAutonomous(String),
    /// φ was checked invariant under every operation.
    Invariant,
    /// A constraint was checked A-independent (Def 3-1).
    Independent(String),
    /// A family of constraints was checked to cover the state space.
    CoversStateSpace(usize),
    /// A family was checked to be an inductive cover (Def 6-2).
    InductiveCover(usize),
    /// Per-operation check: differences confined to A stay confined to A
    /// (`∀δ, m: A ▷δφ m ⊃ m ∈ A`).
    NoSpreadFrom {
        /// Rendered source set.
        sources: String,
        /// Number of `(constraint, op)` checks discharged.
        checks: usize,
    },
    /// Per-operation check: no operation creates a new difference at β
    /// (`∀δ, M: M ▷δφ β ⊃ β ∈ M`).
    NoNewDifferenceAt {
        /// Sink object name.
        sink: String,
        /// Number of `(constraint, op)` checks discharged.
        checks: usize,
    },
    /// The relation q was checked reflexive and transitive over objects.
    ReflexiveTransitive(String),
    /// Per-operation check: every single-op dependency respects q
    /// (`∀δ, x, y: x ▷δφ y ⊃ q(x, y)`).
    RelationRespected {
        /// Name of the relation.
        relation: String,
        /// Number of `(op, source)` checks discharged.
        checks: usize,
    },
    /// A sub-proof (e.g. one branch of Separation of Variety).
    SubProof(Box<Certificate>),
    /// A free-form recorded fact.
    Note(String),
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fact::Autonomous => write!(f, "φ is autonomous (Def 5-4)"),
            Fact::RelativelyAutonomous(a) => write!(f, "φ is {a}-autonomous (Def 5-2)"),
            Fact::Invariant => write!(f, "φ is invariant"),
            Fact::Independent(a) => write!(f, "constraint is {a}-independent (Def 3-1)"),
            Fact::CoversStateSpace(n) => write!(f, "{n} constraints cover Σ"),
            Fact::InductiveCover(n) => {
                write!(f, "{n} constraints form an inductive cover (Def 6-2)")
            }
            Fact::NoSpreadFrom { sources, checks } => write!(
                f,
                "no operation spreads differences out of {sources} ({checks} checks)"
            ),
            Fact::NoNewDifferenceAt { sink, checks } => write!(
                f,
                "no operation creates a new difference at {sink} ({checks} checks)"
            ),
            Fact::ReflexiveTransitive(q) => {
                write!(f, "relation {q} is reflexive and transitive")
            }
            Fact::RelationRespected { relation, checks } => write!(
                f,
                "every one-operation dependency respects {relation} ({checks} checks)"
            ),
            Fact::SubProof(c) => write!(f, "sub-proof: {}", c.conclusion),
            Fact::Note(s) => write!(f, "{s}"),
        }
    }
}

/// A structured proof produced by one of the induction engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The proof technique, named after the paper's theorem or corollary
    /// (e.g. "Corollary 4-3").
    pub technique: String,
    /// The proved statement, rendered.
    pub conclusion: String,
    /// The discharged premises, in order.
    pub facts: Vec<Fact>,
}

impl Certificate {
    /// Creates a certificate.
    pub fn new(technique: impl Into<String>, conclusion: impl Into<String>) -> Certificate {
        Certificate {
            technique: technique.into(),
            conclusion: conclusion.into(),
            facts: Vec::new(),
        }
    }

    /// Records a discharged premise.
    pub fn record(&mut self, fact: Fact) -> &mut Self {
        self.facts.push(fact);
        self
    }

    /// Total number of facts, including those inside sub-proofs.
    pub fn total_facts(&self) -> usize {
        self.facts
            .iter()
            .map(|f| match f {
                Fact::SubProof(c) => 1 + c.total_facts(),
                _ => 1,
            })
            .sum()
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "proved: {}", self.conclusion)?;
        writeln!(f, "  by {}", self.technique)?;
        for fact in &self.facts {
            match fact {
                Fact::SubProof(c) => {
                    for (i, line) in c.to_string().lines().enumerate() {
                        if i == 0 {
                            writeln!(f, "  - sub-proof: {line}")?;
                        } else {
                            writeln!(f, "    {line}")?;
                        }
                    }
                }
                other => writeln!(f, "  - {other}")?,
            }
        }
        Ok(())
    }
}

/// The result of attempting a proof technique.
///
/// `Inapplicable` means the technique's premises failed — it says nothing
/// about whether the dependency actually holds (the techniques are sound
/// but incomplete; use [`crate::query::Query`] for the exact answer).
#[derive(Debug, Clone)]
pub enum ProofOutcome {
    /// The technique applied and the statement is proved.
    Proved(Certificate),
    /// A premise failed; the reason is recorded.
    Inapplicable(String),
}

impl ProofOutcome {
    /// Whether the proof succeeded.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofOutcome::Proved(_))
    }

    /// The certificate, if proved.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            ProofOutcome::Proved(c) => Some(c),
            ProofOutcome::Inapplicable(_) => None,
        }
    }

    /// The failure reason, if inapplicable.
    pub fn reason(&self) -> Option<&str> {
        match self {
            ProofOutcome::Proved(_) => None,
            ProofOutcome::Inapplicable(r) => Some(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut c = Certificate::new("Corollary 4-3", "¬ alpha ▷φ beta");
        c.record(Fact::Autonomous);
        c.record(Fact::Invariant);
        c.record(Fact::RelationRespected {
            relation: "Cls ≤".into(),
            checks: 12,
        });
        let s = c.to_string();
        assert!(s.contains("Corollary 4-3"));
        assert!(s.contains("autonomous"));
        assert!(s.contains("12 checks"));
        assert_eq!(c.total_facts(), 3);
    }

    #[test]
    fn nested_subproofs_render_and_count() {
        let mut inner = Certificate::new("exact BFS", "¬ a ▷φ∧φ1 b");
        inner.record(Fact::Note("pair reachability exhausted".into()));
        let mut outer = Certificate::new("Theorem 4-5", "¬ a ▷φ b");
        outer.record(Fact::CoversStateSpace(2));
        outer.record(Fact::SubProof(Box::new(inner)));
        assert_eq!(outer.total_facts(), 3);
        let s = outer.to_string();
        assert!(s.contains("sub-proof"));
        assert!(s.contains("pair reachability"));
    }

    #[test]
    fn outcome_accessors() {
        let proved = ProofOutcome::Proved(Certificate::new("t", "c"));
        assert!(proved.is_proved());
        assert!(proved.certificate().is_some());
        assert!(proved.reason().is_none());
        let failed = ProofOutcome::Inapplicable("φ not autonomous".into());
        assert!(!failed.is_proved());
        assert_eq!(failed.reason(), Some("φ not autonomous"));
    }
}
