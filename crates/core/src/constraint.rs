//! Constraints φ on states (§2.4, §3.2).
//!
//! A constraint characterizes a set of *initial* states (§3.3 stresses that
//! φ is an initial, not invariant, constraint). [`Phi`] is a small predicate
//! language with logical combinators, native predicates, and extensional
//! sets; [`Phi::sat`] computes the satisfying set over the (finite) state
//! space, which is the representation every decision procedure works on.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::bitset::BitSet;
use crate::depend;
use crate::error::Result;
use crate::expr::Expr;
use crate::fastmap::Fnv64;
use crate::state::State;
use crate::system::System;

/// A set of states, represented as a bit set over global state indices.
pub type StateSet = BitSet;

/// A native predicate body: shared, thread-safe `fn(system, state) -> bool`.
pub type NativePred = Arc<dyn Fn(&System, &State) -> Result<bool> + Send + Sync>;

/// A constraint on states: the φ of the paper.
#[derive(Clone)]
pub enum Phi {
    /// The always-true constraint (no constraint at all).
    True,
    /// The unsatisfiable constraint.
    False,
    /// A boolean [`Expr`] over the state.
    Expr(Expr),
    /// A named native predicate.
    Pred {
        /// Display name used in certificates and debugging output.
        name: String,
        /// The predicate body.
        f: NativePred,
    },
    /// An extensional constraint: exactly the states in the set.
    Set(StateSet),
    /// Negation.
    Not(Box<Phi>),
    /// Conjunction.
    And(Box<Phi>, Box<Phi>),
    /// Disjunction (the "join" of §3.5).
    Or(Box<Phi>, Box<Phi>),
}

impl fmt::Debug for Phi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phi::True => f.write_str("tt"),
            Phi::False => f.write_str("ff"),
            Phi::Expr(e) => write!(f, "Expr({e:?})"),
            Phi::Pred { name, .. } => write!(f, "Pred({name})"),
            Phi::Set(s) => write!(f, "Set(|{}|)", s.count()),
            Phi::Not(p) => write!(f, "¬{p:?}"),
            Phi::And(a, b) => write!(f, "({a:?} ∧ {b:?})"),
            Phi::Or(a, b) => write!(f, "({a:?} ∨ {b:?})"),
        }
    }
}

impl Phi {
    /// A boolean-expression constraint.
    pub fn expr(e: Expr) -> Phi {
        Phi::Expr(e)
    }

    /// A named native predicate.
    pub fn pred(
        name: impl Into<String>,
        f: impl Fn(&System, &State) -> Result<bool> + Send + Sync + 'static,
    ) -> Phi {
        Phi::Pred {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// An extensional constraint from a state set.
    pub fn from_set(s: StateSet) -> Phi {
        Phi::Set(s)
    }

    /// Conjunction `self ∧ rhs`.
    #[must_use]
    pub fn and(self, rhs: Phi) -> Phi {
        Phi::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction `self ∨ rhs`.
    #[must_use]
    pub fn or(self, rhs: Phi) -> Phi {
        Phi::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation `¬self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Phi {
        Phi::Not(Box::new(self))
    }

    /// Feeds a canonical tagged encoding of the constraint into `h`,
    /// for [`crate::Query::fingerprint`]. Returns `false` if the
    /// constraint contains a native [`Phi::Pred`]: closures have no
    /// canonical identity (and pointer identity is unsound as a cache
    /// key once an `Arc` is dropped and its address reused), so such
    /// constraints are not fingerprintable.
    pub(crate) fn fingerprint_into(&self, h: &mut Fnv64) -> bool {
        self.hash_into(h, false)
    }

    /// Feeds the constraint into `h` for interning Sat(φ) inside an
    /// [`crate::oracle::Oracle`]. A native predicate hashes its name and
    /// its closure's address; the address is stable for as long as the
    /// interned entry holds the `Arc`. A hash is not an identity: every
    /// hit is confirmed with [`Phi::cache_eq`].
    pub(crate) fn cache_hash_into(&self, h: &mut impl Hasher) {
        self.hash_into(h, true);
    }

    /// The tagged encoding behind [`Phi::fingerprint_into`] and
    /// [`Phi::cache_hash_into`]. A native predicate is hashed by name and
    /// address when `pred_addresses` is set; otherwise it makes the
    /// encoding fail (`false`).
    fn hash_into(&self, h: &mut impl Hasher, pred_addresses: bool) -> bool {
        match self {
            Phi::True => h.write_u8(1),
            Phi::False => h.write_u8(2),
            Phi::Expr(e) => {
                h.write_u8(3);
                e.hash(h);
            }
            Phi::Pred { name, f } => {
                if !pred_addresses {
                    return false;
                }
                h.write_u8(4);
                name.hash(h);
                h.write_usize(Arc::as_ptr(f) as *const () as usize);
            }
            Phi::Set(s) => {
                h.write_u8(5);
                s.hash(h);
            }
            Phi::Not(p) => {
                h.write_u8(6);
                return p.hash_into(h, pred_addresses);
            }
            Phi::And(a, b) => {
                h.write_u8(7);
                return a.hash_into(h, pred_addresses) && b.hash_into(h, pred_addresses);
            }
            Phi::Or(a, b) => {
                h.write_u8(8);
                return a.hash_into(h, pred_addresses) && b.hash_into(h, pred_addresses);
            }
        }
        true
    }

    /// Whether `σ` satisfies the constraint.
    pub fn holds(&self, sys: &System, sigma: &State) -> Result<bool> {
        match self {
            Phi::True => Ok(true),
            Phi::False => Ok(false),
            Phi::Expr(e) => e.eval_bool(sys.universe(), sigma),
            Phi::Pred { f, .. } => f(sys, sigma),
            Phi::Set(s) => Ok(s.contains(sigma.encode(sys.universe()))),
            Phi::Not(p) => Ok(!p.holds(sys, sigma)?),
            Phi::And(a, b) => Ok(a.holds(sys, sigma)? && b.holds(sys, sigma)?),
            Phi::Or(a, b) => Ok(a.holds(sys, sigma)? || b.holds(sys, sigma)?),
        }
    }

    /// Computes the satisfying set `Sat(φ) = { σ | φ(σ) }`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sd_core::{examples, Expr, Phi};
    ///
    /// let sys = examples::threshold_system(15)?;
    /// let alpha = sys.universe().obj("alpha")?;
    /// let phi = Phi::expr(Expr::var(alpha).lt(Expr::int(10)));
    /// // 10 α-values × 2 β-values.
    /// assert_eq!(phi.sat(&sys)?.count(), 20);
    /// # Ok::<(), sd_core::Error>(())
    /// ```
    pub fn sat(&self, sys: &System) -> Result<StateSet> {
        let n = sys.state_count()?;
        // Whole sets are built directly; everything else (including an
        // extensional set built against another system, which is
        // re-homed) comes from the one Sat(φ) sweep.
        match self {
            Phi::True => return Ok(StateSet::full(n)),
            Phi::Set(s) => {
                debug_assert_eq!(s.capacity(), n);
                if s.capacity() == n {
                    return Ok(s.clone());
                }
            }
            _ => {}
        }
        let mut out = StateSet::new(n);
        for code in depend::sat_codes(sys, self)? {
            out.insert(code);
        }
        Ok(out)
    }

    /// `φ1 ⊆ φ2` (Thm 2-3's ordering on constraints): every state
    /// satisfying `self` satisfies `other`.
    pub fn entails(&self, sys: &System, other: &Phi) -> Result<bool> {
        Ok(self.sat(sys)?.is_subset(&other.sat(sys)?))
    }

    /// Structural equality, used to intern Sat(φ) enumerations inside an
    /// [`crate::oracle::Oracle`]. Conservative by design: native
    /// predicates compare by name *and* closure identity, so two
    /// separately constructed but extensionally equal constraints merely
    /// miss the cache — a false negative, never a wrong hit.
    pub(crate) fn cache_eq(&self, other: &Phi) -> bool {
        match (self, other) {
            (Phi::True, Phi::True) | (Phi::False, Phi::False) => true,
            (Phi::Expr(a), Phi::Expr(b)) => a == b,
            (Phi::Pred { name: n1, f: f1 }, Phi::Pred { name: n2, f: f2 }) => {
                n1 == n2 && Arc::ptr_eq(f1, f2)
            }
            (Phi::Set(a), Phi::Set(b)) => a == b,
            (Phi::Not(a), Phi::Not(b)) => a.cache_eq(b),
            (Phi::And(a1, a2), Phi::And(b1, b2)) | (Phi::Or(a1, a2), Phi::Or(b1, b2)) => {
                a1.cache_eq(b1) && a2.cache_eq(b2)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::universe::{Domain, Universe};

    fn sys() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 15).unwrap()),
            ("m".into(), Domain::boolean()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        System::new(
            u,
            vec![Op::from_cmd(
                "noop",
                Cmd::when(Expr::bool(false), Cmd::assign(a, Expr::int(0))),
            )],
        )
    }

    #[test]
    fn trivial_constraints() {
        let sys = sys();
        assert_eq!(Phi::True.sat(&sys).unwrap().count(), 32);
        assert_eq!(Phi::False.sat(&sys).unwrap().count(), 0);
    }

    #[test]
    fn expr_constraint_alpha_lt_10() {
        // The §2.2 constraint φ(σ) ≡ σ.α < 10.
        let sys = sys();
        let a = sys.universe().obj("alpha").unwrap();
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        assert_eq!(phi.sat(&sys).unwrap().count(), 10 * 2);
    }

    #[test]
    fn combinators() {
        let sys = sys();
        let a = sys.universe().obj("alpha").unwrap();
        let m = sys.universe().obj("m").unwrap();
        let lt10 = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        let mtrue = Phi::expr(Expr::var(m));
        let both = lt10.clone().and(mtrue.clone());
        assert_eq!(both.sat(&sys).unwrap().count(), 10);
        let either = lt10.clone().or(mtrue.clone());
        assert_eq!(either.sat(&sys).unwrap().count(), 20 + 6);
        let neither = lt10.not().and(mtrue.not());
        assert_eq!(neither.sat(&sys).unwrap().count(), 6);
    }

    #[test]
    fn entailment_ordering() {
        let sys = sys();
        let a = sys.universe().obj("alpha").unwrap();
        let lt5 = Phi::expr(Expr::var(a).lt(Expr::int(5)));
        let lt10 = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        assert!(lt5.entails(&sys, &lt10).unwrap());
        assert!(!lt10.entails(&sys, &lt5).unwrap());
        assert!(Phi::False.entails(&sys, &lt5).unwrap());
        assert!(lt10.entails(&sys, &Phi::True).unwrap());
    }

    #[test]
    fn native_pred_and_set_roundtrip() {
        let sys = sys();
        let a = sys.universe().obj("alpha").unwrap();
        let even = Phi::pred("alpha even", move |sys, s| {
            Ok(s.value(sys.universe(), a).as_int().unwrap_or(1) % 2 == 0)
        });
        let set = even.sat(&sys).unwrap();
        assert_eq!(set.count(), 16);
        let ext = Phi::from_set(set.clone());
        assert_eq!(ext.sat(&sys).unwrap(), set);
        // holds() agrees with sat() membership.
        for sigma in sys.states().unwrap() {
            let code = sigma.encode(sys.universe());
            assert_eq!(ext.holds(&sys, &sigma).unwrap(), set.contains(code));
        }
    }
}
