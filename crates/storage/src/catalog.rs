//! Database bootstrap — the prototype's start-up data file (§6).
//!
//! *"When the server is invoked, it initializes all the objects by
//! reading the start-up data file. The object limits are actually
//! defined at the server side … The values of OIL and OEL are randomly
//! generated within a specified range, which is varied while the
//! performance tests on object inconsistency limits are carried out."*
//!
//! [`CatalogConfig`] captures the paper's defaults: 1000 objects with
//! values in 1000–9999, OIL/OEL either fixed or drawn uniformly from a
//! range, seeded for reproducibility.

use crate::object::ObjectState;
use crate::table::ObjectTable;
use crate::PAPER_HISTORY_DEPTH;
use esr_core::bounds::Limit;
use esr_core::ids::ObjectId;
use esr_core::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How per-object limits are assigned at boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LimitAssignment {
    /// Every object gets the same limit.
    Fixed(Limit),
    /// Limits are drawn uniformly from `[lo, hi]` (inclusive), per
    /// object — the paper's random assignment within a specified range.
    UniformRange {
        /// Smallest assignable limit.
        lo: u64,
        /// Largest assignable limit.
        hi: u64,
    },
}

impl LimitAssignment {
    fn draw(&self, rng: &mut StdRng) -> Limit {
        match *self {
            LimitAssignment::Fixed(l) => l,
            LimitAssignment::UniformRange { lo, hi } => {
                assert!(lo <= hi, "invalid limit range {lo}..={hi}");
                Limit::at_most(rng.gen_range(lo..=hi))
            }
        }
    }
}

/// Configuration of the initial database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatalogConfig {
    /// Number of objects (the paper's database has ~1000).
    pub n_objects: u32,
    /// Initial values are drawn uniformly from this inclusive range
    /// (the paper's 1000–9999).
    pub value_lo: Value,
    /// Upper end of the initial-value range.
    pub value_hi: Value,
    /// Per-object committed-write history depth (the paper's 20).
    pub history_depth: usize,
    /// OIL assignment.
    pub oil: LimitAssignment,
    /// OEL assignment.
    pub oel: LimitAssignment,
    /// RNG seed for values and random limits.
    pub seed: u64,
}

impl Default for CatalogConfig {
    /// The paper's database: 1000 objects, values 1000–9999, history
    /// depth 20, unlimited object bounds (the MPL experiments hold
    /// OIL/OEL "at high values so that they do not affect the results").
    fn default() -> Self {
        CatalogConfig {
            n_objects: 1000,
            value_lo: 1000,
            value_hi: 9999,
            history_depth: PAPER_HISTORY_DEPTH,
            oil: LimitAssignment::Fixed(Limit::Unlimited),
            oel: LimitAssignment::Fixed(Limit::Unlimited),
            seed: 0x5eed,
        }
    }
}

impl CatalogConfig {
    /// The pristine object states this config describes, before any
    /// transaction has touched them, drawn one at a time as the iterator
    /// is advanced. Crash recovery starts from these when no checkpoint
    /// exists and replays the log on top; the pager streams them
    /// straight into heap pages, so a fresh paged database never holds
    /// its whole table.
    pub fn states(&self) -> impl ExactSizeIterator<Item = ObjectState> + '_ {
        self.draw(self.n_objects, |_, drawn| drawn)
    }

    /// [`CatalogConfig::states`], collected.
    pub fn build_states(&self) -> Vec<ObjectState> {
        self.states().collect()
    }

    /// Like [`CatalogConfig::build_states`] but with explicitly
    /// supplied initial values (a literal start-up data file). Limits
    /// still follow the config, and for the same seed they are the
    /// limits [`CatalogConfig::states`] assigns.
    pub fn build_states_with_values(&self, values: &[Value]) -> Vec<ObjectState> {
        self.draw(values.len() as u32, |i, _| values[i]).collect()
    }

    /// The one draw loop: for each of `n` objects in id order, a value
    /// from `value_lo..=value_hi`, then the OIL, then the OEL. `pick`
    /// maps `(index, drawn value)` to the initial value, so a supplied
    /// value replaces the draw without shifting the limits' draws.
    fn draw<'a>(
        &'a self,
        n: u32,
        pick: impl Fn(usize, Value) -> Value + 'a,
    ) -> impl ExactSizeIterator<Item = ObjectState> + 'a {
        assert!(
            self.value_lo <= self.value_hi,
            "invalid value range {}..={}",
            self.value_lo,
            self.value_hi
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..n).map(move |i| {
            let value = pick(i as usize, rng.gen_range(self.value_lo..=self.value_hi));
            let oil = self.oil.draw(&mut rng);
            let oel = self.oel.draw(&mut rng);
            ObjectState::new(ObjectId(i), value, self.history_depth, oil, oel)
        })
    }

    /// Materialise the table.
    pub fn build(&self) -> ObjectTable {
        ObjectTable::new(self.build_states())
    }

    /// Build a table with explicitly supplied initial values (a literal
    /// start-up data file). Limits still follow the config.
    pub fn build_with_values(&self, values: &[Value]) -> ObjectTable {
        ObjectTable::new(self.build_states_with_values(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = CatalogConfig::default();
        assert_eq!(c.n_objects, 1000);
        assert_eq!(c.value_lo, 1000);
        assert_eq!(c.value_hi, 9999);
        assert_eq!(c.history_depth, 20);
        let t = c.build();
        assert_eq!(t.len(), 1000);
        for v in t.values() {
            assert!((1000..=9999).contains(&v));
        }
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let c = CatalogConfig::default();
        let a = c.build().values();
        let b = c.build().values();
        assert_eq!(a, b);
        let c2 = CatalogConfig {
            seed: 99,
            ..CatalogConfig::default()
        };
        assert_ne!(a, c2.build().values());
    }

    #[test]
    fn uniform_limit_assignment() {
        let c = CatalogConfig {
            n_objects: 200,
            oil: LimitAssignment::UniformRange { lo: 10, hi: 20 },
            oel: LimitAssignment::UniformRange { lo: 5, hi: 5 },
            ..CatalogConfig::default()
        };
        let t = c.build();
        for i in 0..200u32 {
            let g = t.lock(ObjectId(i));
            let oil = g.oil.finite().expect("finite OIL");
            assert!((10..=20).contains(&oil));
            assert_eq!(g.oel, Limit::at_most(5));
        }
    }

    #[test]
    fn explicit_values() {
        let c = CatalogConfig::default();
        let t = c.build_with_values(&[7, 8, 9]);
        assert_eq!(t.values(), vec![7, 8, 9]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn supplied_values_keep_the_drawn_limits() {
        let c = CatalogConfig {
            n_objects: 300,
            oil: LimitAssignment::UniformRange { lo: 1, hi: 1_000 },
            oel: LimitAssignment::UniformRange { lo: 1, hi: 1_000 },
            seed: 7,
            ..CatalogConfig::default()
        };
        let limits = |states: Vec<ObjectState>| -> Vec<_> {
            states.into_iter().map(|s| (s.id, s.oil, s.oel)).collect()
        };
        let drawn = c.build_states();
        let supplied = c.build_states_with_values(&vec![42; 300]);
        assert!(supplied.iter().all(|s| s.value == 42));
        assert_ne!(drawn[0].value, 42);
        assert_eq!(limits(drawn), limits(supplied));
        assert_eq!(c.states().len(), 300);
    }

    #[test]
    #[should_panic(expected = "invalid value range")]
    fn bad_value_range_rejected() {
        let c = CatalogConfig {
            value_lo: 10,
            value_hi: 5,
            ..CatalogConfig::default()
        };
        let _ = c.build();
    }

    #[test]
    #[should_panic(expected = "invalid limit range")]
    fn bad_limit_range_rejected() {
        let c = CatalogConfig {
            n_objects: 1,
            oil: LimitAssignment::UniformRange { lo: 9, hi: 3 },
            ..CatalogConfig::default()
        };
        let _ = c.build();
    }
}
