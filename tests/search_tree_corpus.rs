//! Pins the branch-and-bound search tree on a seeded corpus.
//!
//! For every ablation configuration, one FNV-1a digest folds each
//! instance's returned plan, the bits of its cost and every
//! [`SearchStats`] counter except `elapsed`. The counters describe the
//! tree itself (nodes visited and expanded, closures, prunes, back-jumps,
//! roots, depth), so a change to how a node is *decided* — rather than
//! to what the search concludes — moves a digest even when every plan
//! stays optimal. A further digest pins the plans and costs of
//! `optimize_parallel` at one to four threads; the parallel counters
//! depend on scheduling and are left out.
//!
//! A refactor of the per-node bound evaluation must keep these numbers
//! bit for bit: it may make a node cheaper, never change which nodes
//! exist.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service_ordering::core::{
    optimize_parallel, optimize_with, BnbConfig, Fnv1a, QueryInstance, SearchStats, Service,
};
use service_ordering::workloads::{generate, random_dag, Family};
use std::num::NonZeroUsize;

const SIZES: [usize; 5] = [2, 3, 6, 9, 12];

/// One instance variant: the family's instance, optionally with a
/// precedence DAG, non-zero sink costs and proliferative selectivities.
fn variant(
    family: Family,
    n: usize,
    seed: u64,
    precedence: bool,
    sinks: bool,
    proliferative: bool,
) -> QueryInstance {
    let base = generate(family, n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ ((n as u64) << 8));
    let services: Vec<Service> = base
        .services()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if proliferative && i % 3 == 0 {
                Service::new(s.cost(), rng.gen_range(1.0..3.0))
            } else {
                s.clone()
            }
        })
        .collect();
    let mut builder = QueryInstance::builder().services(services).comm(base.comm().clone());
    if sinks {
        builder = builder.sink((0..n).map(|_| rng.gen_range(0.0..1.5)).collect());
    }
    if precedence {
        builder = builder.precedence(random_dag(n, 0.3, seed + n as u64));
    }
    builder.build().expect("valid variant")
}

/// Every family at every size: the plain instance, each variant alone,
/// and all three together.
fn corpus() -> Vec<QueryInstance> {
    let mut instances = Vec::new();
    for n in SIZES {
        for family in Family::ALL {
            for seed in [1, 2] {
                for (precedence, sinks, proliferative) in [
                    (false, false, false),
                    (true, false, false),
                    (false, true, false),
                    (false, false, true),
                    (true, true, true),
                ] {
                    instances.push(variant(family, n, seed, precedence, sinks, proliferative));
                }
            }
        }
    }
    instances
}

/// Folds every counter except `elapsed`. The destructuring is
/// exhaustive, so a new counter must be placed here or named as skipped.
fn write_stats(h: &mut Fnv1a, stats: &SearchStats) {
    let SearchStats {
        nodes_visited,
        nodes_expanded,
        candidates_recorded,
        lemma2_closures,
        backjumps,
        backjump_levels_saved,
        prunes_incumbent,
        prunes_lower_bound,
        roots_explored,
        roots_pruned,
        max_depth,
        elapsed: _,
        proven_optimal,
    } = stats;
    for counter in [
        nodes_visited,
        nodes_expanded,
        candidates_recorded,
        lemma2_closures,
        backjumps,
        backjump_levels_saved,
        prunes_incumbent,
        prunes_lower_bound,
        roots_explored,
        roots_pruned,
    ] {
        h.write_u64(*counter);
    }
    h.write_u64(*max_depth as u64);
    h.write_u64(u64::from(*proven_optimal));
}

fn write_plan(h: &mut Fnv1a, indices: &[usize], cost: f64) {
    for &i in indices {
        h.write_u64(i as u64);
    }
    h.write_f64_bits(cost);
}

/// The digest over `corpus` under `config`, and the summed Lemma-2
/// closures and lower-bound prunes (so a vacuous corpus shows).
fn sequential_digest(corpus: &[QueryInstance], config: &BnbConfig) -> (u64, u64, u64) {
    let mut h = Fnv1a::new();
    let (mut closures, mut lb_prunes) = (0, 0);
    for instance in corpus {
        let result = optimize_with(instance, config);
        write_plan(&mut h, &result.plan().indices(), result.cost());
        write_stats(&mut h, result.stats());
        closures += result.stats().lemma2_closures;
        lb_prunes += result.stats().prunes_lower_bound;
    }
    (h.finish(), closures, lb_prunes)
}

fn configs() -> [(&'static str, BnbConfig, u64); 6] {
    [
        ("paper", BnbConfig::paper(), PINNED_PAPER),
        ("incumbent_only", BnbConfig::incumbent_only(), PINNED_INCUMBENT_ONLY),
        ("without_epsilon_bar", BnbConfig::without_epsilon_bar(), PINNED_WITHOUT_EPSILON_BAR),
        ("without_backjump", BnbConfig::without_backjump(), PINNED_WITHOUT_BACKJUMP),
        ("extended", BnbConfig::extended(), PINNED_EXTENDED),
        (
            "loose_epsilon_bar",
            BnbConfig { tight_epsilon_bar: false, ..BnbConfig::paper() },
            PINNED_LOOSE_EPSILON_BAR,
        ),
    ]
}

#[test]
fn sequential_search_trees_are_pinned_for_every_config() {
    let corpus = corpus();
    assert_eq!(corpus.len(), SIZES.len() * Family::ALL.len() * 2 * 5);
    let mut digests = Vec::new();
    for (name, config, pinned) in configs() {
        let (digest, closures, lb_prunes) = sequential_digest(&corpus, &config);
        assert_eq!(closures > 0, config.use_epsilon_bar, "{name}: Lemma-2 closures exercised");
        assert_eq!(lb_prunes > 0, config.use_lower_bound, "{name}: lower-bound prunes exercised");
        digests.push((name, digest, pinned));
    }
    for (name, got, pinned) in &digests {
        assert_eq!(got, pinned, "{name}: search tree digest moved ({digests:?})");
    }
}

#[test]
fn parallel_plans_are_pinned_at_one_to_four_threads() {
    let corpus = corpus();
    let digests: Vec<(&str, u64, u64)> = [
        ("paper", BnbConfig::paper(), PINNED_PARALLEL_PAPER),
        ("extended", BnbConfig::extended(), PINNED_PARALLEL_EXTENDED),
    ]
    .into_iter()
    .map(|(name, config, pinned)| {
        let mut h = Fnv1a::new();
        for instance in &corpus {
            for threads in 1..=4 {
                let threads = NonZeroUsize::new(threads).expect("non-zero");
                let result = optimize_parallel(instance, &config, threads);
                write_plan(&mut h, &result.plan().indices(), result.cost());
            }
        }
        (name, h.finish(), pinned)
    })
    .collect();
    for (name, got, pinned) in &digests {
        assert_eq!(got, pinned, "{name}: parallel plan digest moved ({digests:?})");
    }
}

const PINNED_PAPER: u64 = 726997373655520051;
const PINNED_INCUMBENT_ONLY: u64 = 15195290315153170292;
const PINNED_WITHOUT_EPSILON_BAR: u64 = 5232071372868318884;
const PINNED_WITHOUT_BACKJUMP: u64 = 17288577061164596374;
const PINNED_EXTENDED: u64 = 14881332476656740822;
const PINNED_LOOSE_EPSILON_BAR: u64 = 1871658077691164688;
const PINNED_PARALLEL_PAPER: u64 = 3895279344388501629;
const PINNED_PARALLEL_EXTENDED: u64 = 11547353577301525601;
