//! Greedy construction heuristics.
//!
//! Fast `O(n³)` comparators for the plan-quality experiment (E4). All
//! variants build the plan left to right over every feasible starting
//! service and keep the best chain. The two transfer-ordered rules pick
//! each next service from successor rows sorted once per call, so a step
//! usually inspects a few entries instead of every service.

use dsq_core::{bottleneck_cost, BitSet, Plan, QueryInstance};

/// The rule a greedy chain uses to pick the next service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GreedyKind {
    /// Append the service with the cheapest transfer from the current last
    /// service — the expansion order of the branch-and-bound search run
    /// without any backtracking.
    MinTransfer,
    /// Append the service minimizing the term it finalizes for the current
    /// last service, `prefix · (c_u + σ_u · t_{u,j})`. Coincides with
    /// [`GreedyKind::MinTransfer`] except for tie handling, since `j`
    /// enters only through `t_{u,j}`; kept separate for documentation
    /// value in reports.
    MinCompletedTerm,
    /// Append the service whose own tentative term
    /// `prefix · σ_u · (c_j + σ_j · min_l t_{j,l})` is smallest — a
    /// look-ahead flavour charging the newcomer its optimistic future.
    MinTentativeTerm,
}

impl GreedyKind {
    /// All variants, for sweeps.
    pub const ALL: [GreedyKind; 3] =
        [GreedyKind::MinTransfer, GreedyKind::MinCompletedTerm, GreedyKind::MinTentativeTerm];

    /// The cubic variants only. [`GreedyKind::MinTentativeTerm`]'s
    /// look-ahead scans every unplaced successor per candidate, an extra
    /// factor of `n`, which makes it the dominant cost of
    /// [`best_greedy`]; latency-critical callers (the tiered serving
    /// path) restrict themselves to this subset via [`fast_greedy`].
    pub const FAST: [GreedyKind; 2] = [GreedyKind::MinTransfer, GreedyKind::MinCompletedTerm];
}

/// Result of a greedy construction.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    plan: Plan,
    cost: f64,
    kind: GreedyKind,
}

impl GreedyResult {
    /// The constructed plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Its bottleneck cost.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Which rule produced it.
    pub fn kind(&self) -> GreedyKind {
        self.kind
    }
}

/// Builds a plan greedily with the given rule, trying every feasible
/// starting service and returning the cheapest complete chain.
///
/// # Examples
///
/// ```
/// use dsq_baselines::{greedy, GreedyKind};
/// use dsq_core::{CommMatrix, QueryInstance, Service};
///
/// let inst = QueryInstance::from_parts(
///     vec![Service::new(1.0, 0.5), Service::new(2.0, 0.5), Service::new(3.0, 0.5)],
///     CommMatrix::uniform(3, 0.1),
/// )?;
/// let result = greedy(&inst, GreedyKind::MinTransfer);
/// assert_eq!(result.plan().len(), 3);
/// assert!(result.cost().is_finite());
/// # Ok::<(), dsq_core::ModelError>(())
/// ```
pub fn greedy(instance: &QueryInstance, kind: GreedyKind) -> GreedyResult {
    greedy_over_rows(instance, &sorted_rows(instance), kind)
}

/// [`greedy`] over successor rows already sorted by [`sorted_rows`], so
/// several rules can share one sort.
fn greedy_over_rows(
    instance: &QueryInstance,
    rows: &[Vec<usize>],
    kind: GreedyKind,
) -> GreedyResult {
    let n = instance.len();
    let mut best: Option<(Plan, f64)> = None;
    for start in 0..n {
        if let Some(dag) = instance.precedence() {
            if !dag.predecessors(start).is_empty() {
                continue;
            }
        }
        let plan =
            Plan::new(chain_from(instance, rows, start, kind)).expect("chain is a permutation");
        let cost = bottleneck_cost(instance, &plan);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((plan, cost));
        }
    }
    let (plan, cost) = best.expect("acyclic precedence admits a start");
    GreedyResult { plan, cost, kind }
}

/// The best result across [`GreedyKind::ALL`].
pub fn best_greedy(instance: &QueryInstance) -> GreedyResult {
    let rows = sorted_rows(instance);
    GreedyKind::ALL
        .into_iter()
        .map(|kind| greedy_over_rows(instance, &rows, kind))
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .expect("ALL is non-empty")
}

/// The best result across [`GreedyKind::FAST`] — `O(n³)` worst case, and
/// one successor sort plus a few row entries per step in practice. This
/// is the tier-1 heuristic of the serving layer's tiered planner; E16
/// measures its optimality gap and its latency against the exact search.
pub fn fast_greedy(instance: &QueryInstance) -> GreedyResult {
    let rows = sorted_rows(instance);
    GreedyKind::FAST
        .into_iter()
        .map(|kind| greedy_over_rows(instance, &rows, kind))
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .expect("FAST is non-empty")
}

/// Every service's successors, ascending by transfer cost with ties in
/// index order (a stable sort, and `-0.0` ties `0.0` as under `<`): the
/// first ready entry of `rows[u]` is the cheapest-transfer successor of
/// `u` that a left-to-right scan with strict `<` would pick.
fn sorted_rows(instance: &QueryInstance) -> Vec<Vec<usize>> {
    let n = instance.len();
    (0..n)
        .map(|u| {
            let t = instance.comm().row(u);
            let mut row: Vec<usize> = (0..n).filter(|&j| j != u).collect();
            row.sort_by(|&a, &b| t[a].partial_cmp(&t[b]).expect("transfer costs are finite"));
            row
        })
        .collect()
}

fn chain_from(
    instance: &QueryInstance,
    rows: &[Vec<usize>],
    start: usize,
    kind: GreedyKind,
) -> Vec<usize> {
    let n = instance.len();
    let dag = instance.precedence();
    let mut order = Vec::with_capacity(n);
    order.push(start);
    let mut placed = BitSet::new(n);
    placed.insert(start);
    let mut prefix = 1.0_f64;
    while order.len() < n {
        let u = *order.last().expect("chain non-empty");
        let ready =
            |j: usize| !placed.contains(j) && dag.is_none_or(|dag| dag.is_ready(j, &placed));
        let mut ready_row = rows[u].iter().copied().filter(|&j| ready(j));
        let j = match kind {
            GreedyKind::MinTransfer => ready_row.next(),
            // With a positive finite prefix the finalized term is a
            // non-decreasing function of `t_{u,j}`, so its minimizers are
            // the leading run of ready successors tying with the first;
            // the scan would keep the lowest index among them.
            GreedyKind::MinCompletedTerm if prefix > 0.0 && prefix.is_finite() => {
                let (row, c_u, s_u) =
                    (instance.comm().row(u), instance.cost(u), instance.selectivity(u));
                let term = |j: usize| prefix * (c_u + s_u * row[j]);
                ready_row.next().map(|first| {
                    let min = term(first);
                    ready_row.take_while(|&j| term(j) == min).fold(first, usize::min)
                })
            }
            _ => scan(instance, &placed, u, prefix, kind),
        };
        let j = j.expect("acyclic precedence always leaves a ready service");
        prefix *= instance.selectivity(u);
        order.push(j);
        placed.insert(j);
    }
    order
}

/// The next service after `u` under `kind`, by scoring every ready
/// successor in index order and keeping the first strictly smallest
/// score. The look-ahead rule, and the term rule when the prefix is zero
/// or has overflowed (its scores can then be NaN), need the full scan.
fn scan(
    instance: &QueryInstance,
    placed: &BitSet,
    u: usize,
    prefix: f64,
    kind: GreedyKind,
) -> Option<usize> {
    let n = instance.len();
    let dag = instance.precedence();
    let (row, c_u, s_u) = (instance.comm().row(u), instance.cost(u), instance.selectivity(u));
    let mut best: Option<(usize, f64)> = None;
    for (j, &t_uj) in row.iter().enumerate() {
        if placed.contains(j) || dag.is_some_and(|dag| !dag.is_ready(j, placed)) {
            continue;
        }
        let score = match kind {
            GreedyKind::MinTransfer => t_uj,
            GreedyKind::MinCompletedTerm => prefix * (c_u + s_u * t_uj),
            GreedyKind::MinTentativeTerm => {
                let min_out = (0..n)
                    .filter(|&l| l != j && !placed.contains(l))
                    .map(|l| instance.transfer(j, l))
                    .fold(instance.sink_cost(j), f64::min);
                prefix * s_u * (instance.cost(j) + instance.selectivity(j) * min_out)
            }
        };
        if best.is_none_or(|(_, s)| score < s) {
            best = Some((j, score));
        }
    }
    best.map(|(j, _)| j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use dsq_core::{CommMatrix, PrecedenceDag, Service};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(rng: &mut StdRng, n: usize) -> QueryInstance {
        QueryInstance::from_parts(
            (0..n)
                .map(|_| Service::new(rng.gen_range(0.01..4.0), rng.gen_range(0.05..1.5)))
                .collect(),
            CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.0..3.0) }),
        )
        .unwrap()
    }

    #[test]
    fn greedy_never_beats_the_optimum() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..60 {
            let n = rng.gen_range(2..8);
            let inst = random_instance(&mut rng, n);
            let opt = exhaustive(&inst).unwrap().cost();
            for kind in GreedyKind::ALL {
                let g = greedy(&inst, kind);
                assert!(g.cost() >= opt - 1e-9, "{kind:?} cost {} below optimum {opt}", g.cost());
                assert_eq!(g.kind(), kind);
            }
            let best = best_greedy(&inst);
            assert!(best.cost() >= opt - 1e-9);
            // fast_greedy drops one kind, so it sits between best_greedy
            // and the worst single kind: an upper bound on the optimum,
            // never better than the three-way minimum.
            let fast = fast_greedy(&inst);
            assert!(fast.cost() >= best.cost() - 1e-12);
            assert!(GreedyKind::FAST.contains(&fast.kind()));
        }
    }

    /// A chain built by [`scan`] alone: the reference the sorted-row
    /// picks must reproduce.
    fn chain_by_scan(instance: &QueryInstance, start: usize, kind: GreedyKind) -> Vec<usize> {
        let n = instance.len();
        let mut order = vec![start];
        let mut placed = BitSet::new(n);
        placed.insert(start);
        let mut prefix = 1.0;
        while order.len() < n {
            let u = *order.last().unwrap();
            let j = scan(instance, &placed, u, prefix, kind).unwrap();
            prefix *= instance.selectivity(u);
            order.push(j);
            placed.insert(j);
        }
        order
    }

    /// Instances built to hit every tie: transfers from a small palette
    /// (with `-0.0` beside `0.0`), costs and selectivities that include
    /// zero and overflowing values, and a random precedence DAG on some.
    fn tie_heavy_instance(rng: &mut StdRng, n: usize) -> QueryInstance {
        let palette = [-0.0, 0.0, 0.5, 0.5 + f64::EPSILON, 1.0, 2.0];
        let costs = [0.0, 1e-300, 1.0, 3.0];
        let sels = [0.0, 0.5, 1.0, 2.0, 1e200];
        let mut builder = QueryInstance::builder()
            .services((0..n).map(|_| {
                Service::new(
                    costs[rng.gen_range(0..costs.len())],
                    sels[rng.gen_range(0..sels.len())],
                )
            }))
            .comm(CommMatrix::from_fn(n, |i, j| {
                if i == j {
                    0.0
                } else {
                    palette[rng.gen_range(0..palette.len())]
                }
            }));
        if rng.gen_bool(0.3) {
            let mut dag = PrecedenceDag::new(n).unwrap();
            for a in 0..n {
                for b in a + 1..n {
                    if rng.gen_bool(0.2) {
                        dag.add_edge(a, b).unwrap();
                    }
                }
            }
            builder = builder.precedence(dag);
        }
        builder.build().unwrap()
    }

    #[test]
    fn sorted_row_picks_match_the_scan() {
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..400 {
            let n = rng.gen_range(2..10);
            let inst = if round % 2 == 0 {
                tie_heavy_instance(&mut rng, n)
            } else {
                random_instance(&mut rng, n)
            };
            let rows = sorted_rows(&inst);
            for start in 0..n {
                if inst.precedence().is_some_and(|dag| !dag.predecessors(start).is_empty()) {
                    continue;
                }
                for kind in GreedyKind::ALL {
                    assert_eq!(
                        chain_from(&inst, &rows, start, kind),
                        chain_by_scan(&inst, start, kind),
                        "{kind:?} from {start} on {inst:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn reported_cost_matches_plan() {
        let mut rng = StdRng::seed_from_u64(29);
        let inst = random_instance(&mut rng, 7);
        for kind in GreedyKind::ALL {
            let g = greedy(&inst, kind);
            let actual = dsq_core::bottleneck_cost(&inst, g.plan());
            assert!((g.cost() - actual).abs() < 1e-12);
        }
    }

    #[test]
    fn respects_precedence() {
        let mut dag = PrecedenceDag::new(4).unwrap();
        dag.add_edge(3, 0).unwrap();
        dag.add_edge(3, 1).unwrap();
        let inst = QueryInstance::builder()
            .services((0..4).map(|i| Service::new(1.0 + i as f64, 0.5)))
            .comm(CommMatrix::uniform(4, 0.2))
            .precedence(dag)
            .build()
            .unwrap();
        for kind in GreedyKind::ALL {
            let g = greedy(&inst, kind);
            assert!(g.plan().satisfies(inst.precedence().unwrap()), "{kind:?}");
            // Only WS2 and WS3 have no predecessors.
            assert!([2, 3].contains(&g.plan().indices()[0]), "{kind:?}");
        }
    }

    #[test]
    fn min_transfer_follows_cheap_edges() {
        // A ring where consecutive transfers are free in one direction.
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 1.0), Service::new(1.0, 1.0), Service::new(1.0, 1.0)],
            CommMatrix::from_rows(vec![
                vec![0.0, 0.0, 9.0],
                vec![9.0, 0.0, 0.0],
                vec![0.0, 9.0, 0.0],
            ])
            .unwrap(),
        )
        .unwrap();
        let g = greedy(&inst, GreedyKind::MinTransfer);
        // Some rotation of 0→1→2 avoids every 9.0 edge; cost 1.0.
        assert!((g.cost() - 1.0).abs() < 1e-12);
    }
}
