//! Instance canonicalization and fingerprinting for the serving layer.
//!
//! Production federated workloads re-optimize near-identical queries
//! constantly: the same pipeline of services, with cost / selectivity /
//! transfer statistics that drift slowly between requests. A plan cache
//! keyed on the *exact* floating-point parameters would never hit; this
//! module derives a **fingerprint** that is stable under (a) small
//! relative drift of every numeric parameter and (b) trivial relabelings
//! of the services, while retaining enough structure that two instances
//! sharing a fingerprint almost always share an optimal ordering.
//!
//! Two pieces:
//!
//! * [`Quantization`] — maps every strictly positive parameter to a
//!   logarithmic bucket index `round(ln v / ln(1 + r))`, so values within
//!   the relative resolution `r` of each other (usually) share a bucket.
//!   Zero gets a dedicated sentinel bucket.
//! * [`CanonicalKey`] — a **sort-normalized** view of the instance: the
//!   services are reordered by a label-independent key (quantized cost,
//!   selectivity, sink, and the sorted multisets of quantized outgoing /
//!   incoming transfer buckets), and the fingerprint hashes the quantized
//!   parameters in that canonical order. Relabeling the services permutes
//!   the canonical order back to the same sequence, so exact relabels
//!   collide (whenever the per-service keys are distinct — ties fall back
//!   to original-index order, a deliberate approximation: canonical graph
//!   labeling is as hard as graph isomorphism).
//!
//! The key also retains the permutation between original and canonical
//! index spaces, so a plan computed for one instance can be transported
//! to any other instance with the same fingerprint
//! ([`CanonicalKey::plan_to_canonical`] /
//! [`CanonicalKey::plan_from_canonical`]). Bucketing is deliberately
//! lossy: consumers (the `dsq-service` plan cache) must validate a
//! transported plan against the **exact** instance before trusting it.

use crate::hash::Fnv1a;
use crate::instance::QueryInstance;
use crate::plan::Plan;

/// Relative quantization used when fingerprinting instance parameters.
///
/// Passive parameter struct; the single knob is the relative bucket
/// width. Two values `a, b > 0` share a bucket whenever their ratio is
/// within roughly `1 ± resolution` (up to boundary effects).
///
/// # Examples
///
/// ```
/// use dsq_core::Quantization;
///
/// let q = Quantization::default();
/// assert_eq!(q.bucket(1.0), q.bucket(1.01));
/// assert_ne!(q.bucket(1.0), q.bucket(2.0));
/// assert_ne!(q.bucket(0.0), q.bucket(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantization {
    /// Relative bucket width; e.g. `0.05` buckets values into ~5% bands.
    pub resolution: f64,
}

impl Default for Quantization {
    /// 5% relative buckets — wide enough that per-request statistical
    /// drift usually stays inside one bucket, narrow enough that plans
    /// rarely change within a bucket.
    fn default() -> Self {
        Quantization { resolution: 0.05 }
    }
}

impl Quantization {
    /// A quantization with the given relative resolution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < resolution < 1` and finite.
    pub fn new(resolution: f64) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0 && resolution < 1.0,
            "quantization resolution must be in (0, 1), got {resolution}"
        );
        Quantization { resolution }
    }

    /// The logarithmic bucket index of a non-negative value. Zero maps to
    /// a dedicated sentinel bucket that no positive value can reach.
    pub fn bucket(&self, value: f64) -> i64 {
        debug_assert!(value.is_finite() && value >= 0.0, "parameters are finite non-negative");
        if value == 0.0 {
            return i64::MIN;
        }
        // ln(1+r) is strictly positive for r in (0,1); the ratio is finite
        // for every positive finite input, so the cast cannot overflow for
        // model-validated parameters.
        (value.ln() / (1.0 + self.resolution).ln()).round() as i64
    }
}

/// The canonical (sort-normalized, quantized) identity of a
/// [`QueryInstance`]: a 64-bit fingerprint plus the permutation between
/// original and canonical service indices.
///
/// # Examples
///
/// ```
/// use dsq_core::{CanonicalKey, CommMatrix, Quantization, QueryInstance, Service};
///
/// let inst = QueryInstance::from_parts(
///     vec![Service::new(1.0, 0.5), Service::new(2.0, 0.9)],
///     CommMatrix::uniform(2, 0.1),
/// )?;
/// // A 0.3% drift of one cost stays inside the default 5% buckets.
/// let drifted = QueryInstance::from_parts(
///     vec![Service::new(1.003, 0.5), Service::new(2.0, 0.9)],
///     CommMatrix::uniform(2, 0.1),
/// )?;
/// let q = Quantization::default();
/// assert_eq!(
///     CanonicalKey::new(&inst, &q).fingerprint(),
///     CanonicalKey::new(&drifted, &q).fingerprint(),
/// );
/// # Ok::<(), dsq_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalKey {
    fingerprint: u64,
    /// `from_canonical[c]` = original index of canonical position `c`.
    from_canonical: Vec<u32>,
    /// `to_canonical[o]` = canonical position of original index `o`.
    to_canonical: Vec<u32>,
}

impl CanonicalKey {
    /// Canonicalizes and fingerprints an instance under the given
    /// quantization.
    pub fn new(instance: &QueryInstance, quantization: &Quantization) -> Self {
        Self::with_phase(instance, quantization, 0.0)
    }

    /// Like [`CanonicalKey::new`], but with the bucket grid shifted by
    /// `phase` buckets (in log space): the bucket of a positive value
    /// becomes `round(ln v / ln(1 + r) − phase)`.
    ///
    /// A value drifting across a boundary of the unshifted grid sits at
    /// the **center** of the grid shifted by `0.5`, so a cache that
    /// probes both grids keeps a stable key for a parameter that walks
    /// back and forth over one boundary (multi-probe lookup). Keys with
    /// different phases never share a fingerprint: the phase is hashed
    /// in, giving each grid its own keyspace.
    ///
    /// # Panics
    ///
    /// Panics unless `phase` is finite and in `[0, 1)`.
    pub fn with_phase(instance: &QueryInstance, quantization: &Quantization, phase: f64) -> Self {
        assert!(
            phase.is_finite() && (0.0..1.0).contains(&phase),
            "grid phase must be in [0, 1), got {phase}"
        );
        let n = instance.len();
        // Quantize every parameter exactly once into flat arrays: the
        // `ln` behind each bucket dominates the fingerprint cost on the
        // serving hot path, so the divisor is hoisted and no parameter
        // is bucketed twice (the sort keys and the hash below both read
        // these arrays).
        let inv_ln_step = 1.0 / (1.0 + quantization.resolution).ln();
        let bucket = |value: f64| -> i64 {
            debug_assert!(value.is_finite() && value >= 0.0);
            if value == 0.0 {
                i64::MIN
            } else {
                (value.ln() * inv_ln_step - phase).round() as i64
            }
        };
        let scalars: Vec<i64> = (0..n)
            .flat_map(|i| {
                [
                    bucket(instance.cost(i)),
                    bucket(instance.selectivity(i)),
                    bucket(instance.sink_cost(i)),
                ]
            })
            .collect();
        let mut transfers = vec![0i64; n * n];
        for i in 0..n {
            for (j, slot) in transfers[i * n..(i + 1) * n].iter_mut().enumerate() {
                if i != j {
                    *slot = bucket(instance.transfer(i, j));
                }
            }
        }

        // Canonical order sorts services by a label-independent key: the
        // three quantized scalar parameters, then the sorted multisets of
        // outgoing and incoming transfer buckets. Ties (identical keys)
        // fall back to original index order — canonicalization is
        // best-effort for relabels. Services are sorted by the scalars
        // first, and the multisets are built only for services whose
        // scalars tie: rare on clustered instances, every service on
        // btsp-hard ones, whose scalars are all equal.
        let scalar = |o: u32| -> [i64; 3] {
            let i = 3 * o as usize;
            [scalars[i], scalars[i + 1], scalars[i + 2]]
        };
        let mut from_canonical: Vec<u32> = (0..n as u32).collect();
        from_canonical.sort_unstable_by_key(|&o| (scalar(o), o));
        let mut start = 0;
        while start < n {
            let key = scalar(from_canonical[start]);
            let len = from_canonical[start..].iter().take_while(|&&o| scalar(o) == key).count();
            if len > 1 {
                let tied = &mut from_canonical[start..start + len];
                let width = 2 * (n - 1);
                let mut multisets = vec![0i64; len * width];
                for (&o, set) in tied.iter().zip(multisets.chunks_exact_mut(width)) {
                    let o = o as usize;
                    let (out, incoming) = set.split_at_mut(n - 1);
                    let others = (0..n).filter(|&j| j != o);
                    for (slot, j) in out.iter_mut().zip(others.clone()) {
                        *slot = transfers[o * n + j];
                    }
                    for (slot, j) in incoming.iter_mut().zip(others) {
                        *slot = transfers[j * n + o];
                    }
                    out.sort_unstable();
                    incoming.sort_unstable();
                }
                let mut keyed: Vec<(&[i64], u32)> =
                    multisets.chunks_exact(width).zip(tied.iter().copied()).collect();
                keyed.sort_unstable();
                for (slot, (_, o)) in tied.iter_mut().zip(keyed) {
                    *slot = o;
                }
            }
            start += len;
        }

        let mut to_canonical = vec![0u32; n];
        for (c, &o) in from_canonical.iter().enumerate() {
            to_canonical[o as usize] = c as u32;
        }

        // FNV-1a over the quantized parameters in canonical order.
        let mut h = Fnv1a::new();
        h.write_u64(n as u64);
        // Different resolutions (and grid phases) must not share a
        // keyspace.
        h.write_u64(quantization.resolution.to_bits());
        h.write_u64(phase.to_bits());
        for &o in &from_canonical {
            let o = o as usize;
            h.write_i64(scalars[3 * o]);
            h.write_i64(scalars[3 * o + 1]);
            h.write_i64(scalars[3 * o + 2]);
        }
        for &a in &from_canonical {
            for &b in &from_canonical {
                if a != b {
                    h.write_i64(transfers[a as usize * n + b as usize]);
                }
            }
        }
        if let Some(dag) = instance.precedence() {
            let mut edges: Vec<(u32, u32)> =
                dag.edges().iter().map(|&(a, b)| (to_canonical[a], to_canonical[b])).collect();
            edges.sort_unstable();
            for (a, b) in edges {
                h.write_u64(((u64::from(a)) << 32) | u64::from(b));
            }
        }

        CanonicalKey { fingerprint: h.finish(), from_canonical, to_canonical }
    }

    /// The 64-bit fingerprint: equal for instances whose quantized
    /// canonical forms coincide.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of services in the fingerprinted instance.
    pub fn len(&self) -> usize {
        self.from_canonical.len()
    }

    /// Keys are never empty (instances aren't); always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transports a plan over the original instance into canonical index
    /// space (the representation a plan cache should store).
    ///
    /// # Panics
    ///
    /// Panics if the plan length disagrees with the key.
    pub fn plan_to_canonical(&self, plan: &Plan) -> Vec<u32> {
        assert_eq!(plan.len(), self.len(), "plan and key disagree on the service count");
        plan.services().iter().map(|s| self.to_canonical[s.index()]).collect()
    }

    /// Transports a canonical-space plan back into this instance's
    /// original labels.
    ///
    /// # Errors
    ///
    /// Returns `None` if the canonical order has the wrong length or is
    /// not a permutation (e.g. it came from a colliding fingerprint of a
    /// different-sized instance — callers treat that as a cache miss).
    pub fn plan_from_canonical(&self, canonical: &[u32]) -> Option<Plan> {
        if canonical.len() != self.len() {
            return None;
        }
        let order: Option<Vec<usize>> = canonical
            .iter()
            .map(|&c| self.from_canonical.get(c as usize).map(|&o| o as usize))
            .collect();
        Plan::new(order?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommMatrix;
    use crate::precedence::PrecedenceDag;
    use crate::service::Service;

    fn demo_instance() -> QueryInstance {
        QueryInstance::builder()
            .services(vec![Service::new(1.0, 0.5), Service::new(2.5, 0.9), Service::new(0.3, 0.2)])
            .comm(
                CommMatrix::from_rows(vec![
                    vec![0.0, 0.4, 1.1],
                    vec![0.6, 0.0, 0.9],
                    vec![1.3, 0.2, 0.0],
                ])
                .unwrap(),
            )
            .sink(vec![0.1, 0.0, 0.25])
            .build()
            .unwrap()
    }

    /// Relabels an instance: new index `k` hosts old service `perm[k]`.
    fn relabel(inst: &QueryInstance, perm: &[usize]) -> QueryInstance {
        let n = inst.len();
        QueryInstance::builder()
            .services(perm.iter().map(|&o| inst.services()[o].clone()))
            .comm(CommMatrix::from_fn(n, |i, j| inst.transfer(perm[i], perm[j])))
            .sink(perm.iter().map(|&o| inst.sink_cost(o)).collect())
            .build()
            .unwrap()
    }

    #[test]
    fn buckets_are_relative() {
        let q = Quantization::new(0.1);
        assert_eq!(q.bucket(100.0), q.bucket(101.0));
        assert_ne!(q.bucket(100.0), q.bucket(150.0));
        // The same absolute delta far down the scale lands elsewhere.
        assert_ne!(q.bucket(0.001), q.bucket(3.001));
        assert_eq!(q.bucket(0.0), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "resolution must be in (0, 1)")]
    fn zero_resolution_rejected() {
        Quantization::new(0.0);
    }

    #[test]
    fn fingerprint_is_deterministic_and_parameter_sensitive() {
        let q = Quantization::default();
        let a = CanonicalKey::new(&demo_instance(), &q);
        let b = CanonicalKey::new(&demo_instance(), &q);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());

        // A 2× change in one cost must move the fingerprint.
        let mut services: Vec<Service> = demo_instance().services().to_vec();
        services[0] = Service::new(2.0, 0.5);
        let changed = QueryInstance::builder()
            .services(services)
            .comm(demo_instance().comm().clone())
            .build()
            .unwrap();
        assert_ne!(CanonicalKey::new(&changed, &q).fingerprint(), a.fingerprint());
    }

    #[test]
    fn drift_within_resolution_usually_shares_a_bucket() {
        let q = Quantization::default();
        let base = CanonicalKey::new(&demo_instance(), &q);
        // +0.4% drift on every positive parameter: well inside 5% buckets
        // (the demo values sit away from bucket boundaries).
        let inst = demo_instance();
        let drifted = QueryInstance::builder()
            .services(
                inst.services()
                    .iter()
                    .map(|s| Service::new(s.cost() * 1.004, s.selectivity() * 1.004)),
            )
            .comm(CommMatrix::from_fn(3, |i, j| inst.transfer(i, j) * 1.004))
            .sink((0..3).map(|i| inst.sink_cost(i) * 1.004).collect())
            .build()
            .unwrap();
        assert_eq!(CanonicalKey::new(&drifted, &q).fingerprint(), base.fingerprint());
    }

    #[test]
    fn relabeling_preserves_fingerprint_and_transports_plans() {
        let q = Quantization::default();
        let inst = demo_instance();
        let key = CanonicalKey::new(&inst, &q);
        for perm in [[1, 2, 0], [2, 0, 1], [1, 0, 2]] {
            let relabeled = relabel(&inst, &perm);
            let rkey = CanonicalKey::new(&relabeled, &q);
            assert_eq!(rkey.fingerprint(), key.fingerprint(), "perm {perm:?}");

            // A plan stored in canonical space round-trips through either
            // labeling into plans that order the *same physical services*.
            let plan = Plan::new(vec![2, 0, 1]).unwrap();
            let canonical = key.plan_to_canonical(&plan);
            let transported = rkey.plan_from_canonical(&canonical).expect("valid permutation");
            // relabeled service i == original service perm[i]: mapping the
            // transported plan back through perm must recover `plan`.
            let recovered: Vec<usize> = transported.indices().iter().map(|&i| perm[i]).collect();
            assert_eq!(recovered, plan.indices(), "perm {perm:?}");
        }
    }

    #[test]
    fn plan_round_trip_is_identity_on_the_same_instance() {
        let q = Quantization::default();
        let key = CanonicalKey::new(&demo_instance(), &q);
        for order in [vec![0, 1, 2], vec![2, 1, 0], vec![1, 2, 0]] {
            let plan = Plan::new(order).unwrap();
            let canonical = key.plan_to_canonical(&plan);
            assert_eq!(key.plan_from_canonical(&canonical).unwrap(), plan);
        }
    }

    #[test]
    fn malformed_canonical_orders_are_rejected() {
        let key = CanonicalKey::new(&demo_instance(), &Quantization::default());
        assert!(key.plan_from_canonical(&[0, 1]).is_none(), "wrong length");
        assert!(key.plan_from_canonical(&[0, 1, 7]).is_none(), "out of range");
        assert!(key.plan_from_canonical(&[0, 1, 1]).is_none(), "not a permutation");
    }

    #[test]
    fn precedence_feeds_the_fingerprint() {
        let q = Quantization::default();
        let inst = demo_instance();
        let mut dag = PrecedenceDag::new(3).unwrap();
        dag.add_edge(0, 2).unwrap();
        let constrained = QueryInstance::builder()
            .services(inst.services().to_vec())
            .comm(inst.comm().clone())
            .sink((0..3).map(|i| inst.sink_cost(i)).collect())
            .precedence(dag)
            .build()
            .unwrap();
        assert_ne!(
            CanonicalKey::new(&constrained, &q).fingerprint(),
            CanonicalKey::new(&inst, &q).fingerprint()
        );
    }

    #[test]
    fn phases_partition_the_keyspace() {
        let inst = demo_instance();
        let q = Quantization::default();
        let primary = CanonicalKey::with_phase(&inst, &q, 0.0);
        assert_eq!(primary, CanonicalKey::new(&inst, &q), "phase 0 is the default grid");
        let shifted = CanonicalKey::with_phase(&inst, &q, 0.5);
        assert_ne!(primary.fingerprint(), shifted.fingerprint());
    }

    #[test]
    fn shifted_grid_is_stable_across_a_primary_boundary() {
        // Place one cost exactly on a boundary of the primary grid
        // (half-integer position in log-bucket space) and oscillate it:
        // the primary fingerprint must flip, the 0.5-shifted one must
        // not.
        let q = Quantization::new(0.05);
        let step = 1.05f64;
        let at = |offset: f64| {
            QueryInstance::builder()
                .services(vec![
                    Service::new(step.powf(3.5 + offset), 0.5),
                    Service::new(2.5, 0.9),
                    Service::new(0.3, 0.2),
                ])
                .comm(CommMatrix::uniform(3, 0.4))
                .build()
                .unwrap()
        };
        let below = at(-0.1);
        let above = at(0.1);
        assert_ne!(
            CanonicalKey::new(&below, &q).fingerprint(),
            CanonicalKey::new(&above, &q).fingerprint(),
            "the walk crosses a primary bucket boundary"
        );
        assert_eq!(
            CanonicalKey::with_phase(&below, &q, 0.5).fingerprint(),
            CanonicalKey::with_phase(&above, &q, 0.5).fingerprint(),
            "the boundary sits at the center of the shifted grid"
        );
    }

    #[test]
    #[should_panic(expected = "grid phase must be in [0, 1)")]
    fn out_of_range_phases_are_rejected() {
        CanonicalKey::with_phase(&demo_instance(), &Quantization::default(), 1.0);
    }

    #[test]
    fn resolution_changes_the_keyspace() {
        let inst = demo_instance();
        let coarse = CanonicalKey::new(&inst, &Quantization::new(0.5));
        let fine = CanonicalKey::new(&inst, &Quantization::new(0.01));
        assert_ne!(coarse.fingerprint(), fine.fingerprint());
    }
}
