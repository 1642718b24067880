//! Optimizer configuration and ablation switches.

use crate::plan::Plan;
use std::time::Duration;

/// Configuration of the branch-and-bound optimizer.
///
/// The default configuration reproduces the algorithm exactly as described
/// in the paper: Lemma-1 incumbent pruning, Lemma-2 closure (`ε ≥ ε̄`), and
/// Lemma-3 back-jumping, with successors expanded cheapest-transfer-first.
/// The remaining switches exist for the ablation experiments (E3) and for
/// bounding long searches; **every configuration returns an optimal plan**
/// (given no budget), the switches only change how much of the search space
/// is visited.
///
/// This is a passive parameter struct; fields are public by design.
///
/// # Examples
///
/// ```
/// use dsq_core::BnbConfig;
///
/// let cfg = BnbConfig { use_backjump: false, ..BnbConfig::paper() };
/// assert!(cfg.use_epsilon_bar);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BnbConfig {
    /// Apply the Lemma-2 closure: when the partial plan's bottleneck `ε`
    /// already dominates the largest cost `ε̄` any remaining service could
    /// incur, every completion costs exactly `ε` — record a candidate and
    /// stop expanding.
    pub use_epsilon_bar: bool,
    /// Apply Lemma-3 back-jumping: after establishing a bottleneck, resume
    /// the search *above* the bottleneck service instead of at the deepest
    /// level, pruning every plan that shares the prefix up to and including
    /// the bottleneck.
    pub use_backjump: bool,
    /// Compute `ε̄` over the *remaining* services only (tight, the paper's
    /// reading) rather than over precomputed whole-row maxima (loose,
    /// historically cheaper per node but weaker).
    ///
    /// With the incremental bound engine
    /// ([`SearchContext`](crate::bnb::SearchContext)) the tight mode's
    /// per-row maxima come from pre-sorted transfer rows — `O(1)` per row
    /// while the row's most expensive entry is unplaced, `O(depth)` worst
    /// case — and the closure test stops at the first row whose term
    /// exceeds `ε`, usually the first. A tight node therefore costs about
    /// as much as a loose one; the switch remains for the E3 ablation and
    /// for bound-quality comparisons.
    pub tight_epsilon_bar: bool,
    /// **Extension beyond the paper**: prune nodes whose optimistic
    /// completion bound (best prefix × best outgoing transfer per remaining
    /// service) already reaches the incumbent.
    pub use_lower_bound: bool,
    /// Seed the incumbent `ρ` with a greedy plan before the search starts.
    /// The paper starts from an empty incumbent; seeding is a conventional
    /// strengthening kept off by default for fidelity.
    pub seed_with_greedy: bool,
    /// Abort after visiting this many nodes, returning the best plan found
    /// (flagged as not proven optimal).
    pub node_limit: Option<u64>,
    /// Abort after this much wall-clock time, returning the best plan found
    /// (flagged as not proven optimal).
    pub time_limit: Option<Duration>,
    /// **Warm start**: seed the incumbent `ρ` with this complete plan
    /// (evaluated on the instance being optimized) before the search
    /// begins. Used by the `dsq-service` plan cache to resume from a
    /// cached plan of a near-identical instance; any plan whose cost is
    /// close to optimal prunes most of the tree immediately. The search
    /// still proves optimality: the result is never worse than the seed,
    /// and the returned plan is bit-identical to a cold search's whenever
    /// the seed is not itself optimal (a seed that *is* optimal is simply
    /// returned).
    ///
    /// A seed whose length disagrees with the instance or that violates
    /// the instance's precedence constraints is ignored.
    pub initial_incumbent: Option<Plan>,
}

impl BnbConfig {
    /// The algorithm exactly as published (all lemmas, no extensions).
    pub fn paper() -> Self {
        BnbConfig {
            use_epsilon_bar: true,
            use_backjump: true,
            tight_epsilon_bar: true,
            use_lower_bound: false,
            seed_with_greedy: false,
            node_limit: None,
            time_limit: None,
            initial_incumbent: None,
        }
    }

    /// Lemma-1 incumbent pruning only (both Lemma-2 and Lemma-3 disabled).
    /// The weakest sound configuration; the E3 ablation baseline.
    pub fn incumbent_only() -> Self {
        BnbConfig { use_epsilon_bar: false, use_backjump: false, ..BnbConfig::paper() }
    }

    /// The paper's algorithm without the Lemma-2 closure.
    pub fn without_epsilon_bar() -> Self {
        BnbConfig { use_epsilon_bar: false, ..BnbConfig::paper() }
    }

    /// The paper's algorithm without Lemma-3 back-jumping.
    pub fn without_backjump() -> Self {
        BnbConfig { use_backjump: false, ..BnbConfig::paper() }
    }

    /// The paper's algorithm plus every extension (greedy seed, optimistic
    /// completion bound).
    pub fn extended() -> Self {
        BnbConfig { use_lower_bound: true, seed_with_greedy: true, ..BnbConfig::paper() }
    }

    /// Returns this configuration with a node budget.
    pub fn with_node_limit(mut self, nodes: u64) -> Self {
        self.node_limit = Some(nodes);
        self
    }

    /// Returns this configuration with a wall-clock budget.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Returns this configuration warm-started from `plan` (see
    /// [`initial_incumbent`](Self::initial_incumbent)).
    pub fn with_initial_incumbent(mut self, plan: Plan) -> Self {
        self.initial_incumbent = Some(plan);
        self
    }
}

impl Default for BnbConfig {
    /// Defaults to [`BnbConfig::paper`].
    fn default() -> Self {
        BnbConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_is_default() {
        assert_eq!(BnbConfig::default(), BnbConfig::paper());
        let cfg = BnbConfig::paper();
        assert!(cfg.use_epsilon_bar && cfg.use_backjump && cfg.tight_epsilon_bar);
        assert!(!cfg.use_lower_bound && !cfg.seed_with_greedy);
        assert!(cfg.node_limit.is_none() && cfg.time_limit.is_none());
    }

    #[test]
    fn ablation_presets_toggle_the_right_switches() {
        assert!(!BnbConfig::incumbent_only().use_epsilon_bar);
        assert!(!BnbConfig::incumbent_only().use_backjump);
        assert!(!BnbConfig::without_epsilon_bar().use_epsilon_bar);
        assert!(BnbConfig::without_epsilon_bar().use_backjump);
        assert!(!BnbConfig::without_backjump().use_backjump);
        assert!(BnbConfig::without_backjump().use_epsilon_bar);
        assert!(BnbConfig::extended().use_lower_bound);
        assert!(BnbConfig::extended().seed_with_greedy);
    }

    #[test]
    fn budget_builders() {
        let cfg =
            BnbConfig::paper().with_node_limit(1000).with_time_limit(Duration::from_millis(5));
        assert_eq!(cfg.node_limit, Some(1000));
        assert_eq!(cfg.time_limit, Some(Duration::from_millis(5)));
    }

    #[test]
    fn incumbent_builder_attaches_the_plan() {
        let plan = Plan::new(vec![1, 0]).unwrap();
        let cfg = BnbConfig::paper().with_initial_incumbent(plan.clone());
        assert_eq!(cfg.initial_incumbent, Some(plan));
        assert!(BnbConfig::paper().initial_incumbent.is_none());
    }
}
