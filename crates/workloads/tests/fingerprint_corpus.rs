//! Pins `CanonicalKey` output on a seeded corpus: fingerprints on both
//! probe grids (phase 0 and 0.5) and the canonical plan transports, folded
//! into one digest per quantization. Any change to how services are
//! ordered, bucketed or hashed moves a digest, so a refactor of the
//! canonicalization must keep these numbers bit for bit: they are the
//! keys of every persisted snapshot and every fleet's routing.

use dsq_core::{CanonicalKey, CommMatrix, Fnv1a, Plan, Quantization, QueryInstance, Service};
use dsq_workloads::{generate, random_dag, Family};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Instances whose services all share their three scalar buckets (cost,
/// selectivity, sink), so canonical order rests on the transfer
/// multisets, and, where those tie too, on original index order.
/// Transfers come from a three-value palette so the multisets collide
/// often; every third instance carries a random precedence DAG.
fn tie_heavy(n: usize, seed: u64) -> QueryInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let palette = [0.0, 1.5, 3.0];
    let comm =
        CommMatrix::from_fn(
            n,
            |i, j| {
                if i == j {
                    0.0
                } else {
                    palette[rng.gen_range(0..palette.len())]
                }
            },
        );
    let mut builder = QueryInstance::builder()
        .services((0..n).map(|_| Service::new(2.0, 0.5)))
        .comm(comm)
        .sink(vec![0.25; n]);
    if seed % 3 == 0 {
        builder = builder.precedence(random_dag(n, 0.3, seed));
    }
    builder.build().expect("valid tie-heavy instance")
}

/// Every family at the pinned sizes, some with precedence, plus the
/// tie-heavy set and fully uniform instances (all keys equal).
fn corpus() -> Vec<QueryInstance> {
    let mut instances = Vec::new();
    for n in [3, 6, 12, 20] {
        for family in Family::ALL {
            for seed in 0..4 {
                instances.push(generate(family, n, seed));
            }
            let base = generate(family, n, 99);
            instances.push(
                QueryInstance::builder()
                    .services(base.services().to_vec())
                    .comm(base.comm().clone())
                    .precedence(random_dag(n, 0.25, 7 + n as u64))
                    .build()
                    .expect("valid"),
            );
        }
        for seed in 0..12 {
            instances.push(tie_heavy(n, seed));
        }
        instances.push(
            QueryInstance::from_parts(vec![Service::new(1.0, 1.0); n], CommMatrix::uniform(n, 0.5))
                .expect("valid"),
        );
    }
    instances
}

fn digest(quantization: &Quantization) -> u64 {
    let mut h = Fnv1a::new();
    for instance in corpus() {
        let n = instance.len();
        let reversed = Plan::new((0..n).rev().collect()).expect("a permutation");
        let identity: Vec<u32> = (0..n as u32).collect();
        for phase in [0.0, 0.5] {
            let key = CanonicalKey::with_phase(&instance, quantization, phase);
            h.write_u64(key.fingerprint());
            for c in key.plan_to_canonical(&reversed) {
                h.write_u64(u64::from(c));
            }
            let back = key.plan_from_canonical(&identity).expect("a permutation");
            for o in back.indices() {
                h.write_u64(o as u64);
            }
        }
    }
    h.finish()
}

#[test]
fn fingerprints_and_transports_are_pinned_on_a_seeded_corpus() {
    assert_eq!(corpus().len(), 4 * (7 * 5 + 12 + 1));
    assert_eq!(digest(&Quantization::default()), PINNED_DEFAULT, "resolution 0.05");
    assert_eq!(digest(&Quantization::new(0.2)), PINNED_COARSE, "resolution 0.2");
}

const PINNED_DEFAULT: u64 = 14658899201592536277;
const PINNED_COARSE: u64 = 17463658113385331420;
