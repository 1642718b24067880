//! The paper's contribution: branch-and-bound search for the optimal
//! linear service ordering under the bottleneck cost metric.
//!
//! # Lemma-to-code map
//!
//! | Paper | Code |
//! |-------|------|
//! | Lemma 1 — `ε` never decreases along a prefix | `ε` is a running max over finalized terms (the searcher keeps it in the `eps_fin` stack); nodes with `ε ≥ ρ` are pruned, and root pairs are abandoned once their pair cost reaches `ρ` |
//! | Lemma 2 — `ε ≥ ε̄` fixes the cost of all completions | [`BnbConfig::use_epsilon_bar`]; decided by [`SearchContext::epsilon_bar_at_most`], which walks the terms of `ε̄` (including the proliferative-selectivity modification) from the incremental engine state and stops at the first one above `ε` |
//! | Lemma 3 — pruning up to the bottleneck service | [`BnbConfig::use_backjump`]; the search rewinds to the earliest position whose finalized term reaches `ρ`, which is sound because successors are expanded cheapest-transfer-first |
//!
//! # Architecture of the hot path
//!
//! Every visited node asks Lemma 2's question, "is `ε ≥ ε̄`?", and, in the
//! `extended` configuration, whether the optimistic completion bound
//! reaches `ρ`. Answering those is the optimizer's per-node cost, so the
//! work is split into three pieces (see [`context`]):
//!
//! * **[`SearchContext`]** — immutable, built once per `optimize` call and
//!   shared by reference across all [`optimize_parallel`] workers: flat
//!   structure-of-arrays copies of cost/selectivity/sink, the row-major
//!   transfer matrix, loose-mode row maxima, and per-row successor lists
//!   pre-sorted by ascending transfer. "Max/min transfer into the
//!   remaining set" is a first-remaining-entry scan of a sorted row, from
//!   its end for the max (`O(1)` while that end is unplaced, `O(depth)`
//!   worst case) instead of an unconditional `O(n)` loop, and the sorted
//!   rows double as the cheapest-transfer-first expansion order that
//!   makes Lemma 3 sound.
//! * **Early-exit predicates.** The search never evaluates `ε̄` or the
//!   lower bound in full. Each bound is one private walker over its terms
//!   (`|R| + 1` of them, computed lazily), and the search asks
//!   [`SearchContext::epsilon_bar_at_most`] and
//!   [`SearchContext::completion_lower_bound_reaches`], which stop at the
//!   first term that decides the comparison. On btsp-hard instances the
//!   first term of `ε̄` already exceeds `ε` at almost every node (1.004
//!   terms examined per closure test over 500 n = 12 searches), so most
//!   nodes cost one sorted-row lookup instead of `|R| + 1`. The
//!   predicates decide exactly as comparing against the full values —
//!   ties and `f64::max`'s NaN-skipping included — so the search tree is
//!   unchanged; `epsilon_bar` and `completion_lower_bound` remain as the
//!   values for the oracle tests and the benchmarks.
//! * **[`IncrementalBounds`]** — mutable per-worker state updated in `O(1)`
//!   on every push/pop: the placed/remaining bit sets (iterated word-level)
//!   and stacks of the inflation (`Π σ>1`) and shrink (`Π σ<1`) products
//!   over the remaining services, so no bound evaluation ever rebuilds a
//!   product from scratch. Pops truncate the stacks, restoring pre-push
//!   values exactly.
//!
//! The original closed-form bound implementations are retained in a
//! test-only `bounds` module as reference oracles; property tests pin the
//! incremental engine to them within `1e-12` over random push/pop/rewind
//! sequences, and pin the predicates to the full values at every term's
//! exact value and one ulp either side. `tests/search_tree_corpus.rs`
//! pins the search tree itself: every plan, cost and search counter, for
//! every ablation configuration.
//!
//! The private `search` module's source documents the full search-tree
//! layout, per-node checks, and the back-jumping mechanics.

#[cfg(test)]
mod bounds;
mod config;
pub mod context;
mod search;
mod stats;

pub use config::BnbConfig;
pub use context::{IncrementalBounds, SearchContext};
pub use search::{optimize, optimize_parallel, optimize_with, BnbResult};
pub use stats::SearchStats;
