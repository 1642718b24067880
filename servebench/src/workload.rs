//! The three traffic mixes and the deterministic request streams each
//! run sends. Everything here is a function of the workload seed: the
//! daemon only ever sees the generated request texts.

use dsq_core::{format_instance, CanonicalKey, Quantization, QueryInstance};
use dsq_workloads::{generate, DriftConfig, DriftStream, Family};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Services per generated query, on every workload.
const SERVICES: usize = 12;

/// Closed-loop requests kept in memory for the cache-friendly mixes;
/// the saturation phase cycles through them.
const CLOSED_POOL: usize = 8192;

/// Half-bucket phase of the daemon cache's second probe grid.
const PROBE2_PHASE: f64 = 0.5;

/// A traffic mix; `README.md` records why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Drifting repeats of 8 base queries: validated cache hits.
    HotHits,
    /// Distinct btsp-hard queries: every request runs the exact search.
    ColdSearch,
    /// Zipf-popular drifting queries over twice the cache, pipelined.
    ChurnPipelined,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but `hot_hits`, whose
    /// run-to-run spread on a shared 2-vCPU host exceeded the bounds.
    pub const ALL: [Workload; 3] =
        [Workload::HotHits, Workload::ColdSearch, Workload::ChurnPipelined];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHits => "hot_hits",
            Workload::ColdSearch => "cold_search",
            Workload::ChurnPipelined => "churn_pipelined",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered open-loop rate, requests per second: a seventh to a ninth
    /// of what two connections saturate at on a 2-core host. At a third,
    /// queueing amplified the host's run-to-run speed differences (and,
    /// on `cold_search`, the one or two longest searches a seed drew)
    /// into latency spreads wider than any useful regression bound.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::HotHits => 2000.0,
            Workload::ColdSearch => 100.0,
            Workload::ChurnPipelined => 1500.0,
        }
    }

    /// Requests per pipelined burst; 1 keeps one request outstanding
    /// per connection.
    pub fn burst(self) -> usize {
        match self {
            Workload::HotHits | Workload::ColdSearch => 1,
            Workload::ChurnPipelined => 8,
        }
    }

    /// Whether the closed-loop pool may be cycled. A cold search must
    /// never repeat a key, so that pool ends the phase when used up.
    pub fn closed_pool_cycles(self) -> bool {
        self != Workload::ColdSearch
    }
}

/// The request texts and open-loop schedule of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Sent during set-up, before any timing: fills the cache.
    pub prefill: Vec<String>,
    /// The open-loop phase, in schedule order.
    pub open: Vec<String>,
    /// Due time of each open-loop request, from the phase start.
    pub schedule: Vec<Duration>,
    /// The closed-loop saturation pool.
    pub closed: Vec<String>,
    /// A second open-loop phase for the traced run (empty otherwise).
    pub traced: Vec<String>,
    /// Due times of the traced phase.
    pub traced_schedule: Vec<Duration>,
}

/// Phase lengths of one run.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Open-loop phase length.
    pub open: Duration,
    /// Closed-loop phase length.
    pub closed: Duration,
}

impl Phases {
    /// Half the measured time open-loop, half closed-loop, so the
    /// saturation rate averages over as long a window as the latency.
    pub fn split(seconds: u64) -> Phases {
        let total = Duration::from_secs(seconds);
        let open = total / 2;
        Phases { open, closed: total - open }
    }
}

impl Inputs {
    /// Generates every request of a run. Deterministic in
    /// `(workload, seed, phases, traced)`.
    pub fn generate(workload: Workload, seed: u64, phases: Phases, traced: bool) -> Inputs {
        let open_requests = (workload.open_rate() * phases.open.as_secs_f64()).round() as usize;
        // Half the open phase, which keeps a traced run well inside the
        // time one run may take, but at least the 1000 requests that
        // leave 10 samples beyond p99.
        let traced_requests =
            if traced { (open_requests / 2).max(1000).min(open_requests) } else { 0 };
        let mut source = Source::new(workload, seed);
        let prefill = source.take(prefill_len(workload));
        let open = source.take(open_requests);
        let closed_len = match workload {
            // Distinct keys only; sized well past the saturation rate.
            Workload::ColdSearch => (2000.0 * phases.closed.as_secs_f64()).ceil() as usize,
            Workload::HotHits | Workload::ChurnPipelined => CLOSED_POOL,
        };
        let closed = source.take(closed_len);
        let traced_texts = source.take(traced_requests);
        let rate = workload.open_rate();
        Inputs {
            prefill,
            open,
            schedule: poisson_schedule(open_requests, rate, workload.burst(), seed ^ 0x5EED_0001),
            closed,
            traced: traced_texts,
            traced_schedule: poisson_schedule(
                traced_requests,
                rate,
                workload.burst(),
                seed ^ 0x5EED_0002,
            ),
        }
    }
}

/// Set-up requests: enough to reach each mix's steady cache state.
fn prefill_len(workload: Workload) -> usize {
    match workload {
        // Long enough for each base's drift to have visited the
        // neighbouring buckets it keeps returning to.
        Workload::HotHits => 4096,
        // Past the ~512 logical plans the cache holds, so the timed
        // phase evicts from its first request.
        Workload::ColdSearch => 640,
        Workload::ChurnPipelined => 4096,
    }
}

const HOT_BASES: usize = 8;
const CHURN_BASES: usize = 1024;
/// Zipf exponent of base-query popularity on `churn_pipelined`.
const CHURN_ZIPF: f64 = 1.0;

/// The endless per-workload request generator behind [`Inputs`].
enum Source {
    Hot(DriftStream),
    Cold { seed: u64, next: u64, seen: HashSet<u64>, quantization: Quantization },
    Churn { bases: Vec<DriftStream>, cdf: Vec<f64>, rng: StdRng },
}

impl Source {
    fn new(workload: Workload, seed: u64) -> Source {
        match workload {
            // A tenth of the default drift: the statistics keep to the
            // buckets the prefill cached, so the timed phase is
            // validated hits, not the odd cold search behind them.
            Workload::HotHits => Source::Hot(DriftStream::new(DriftConfig {
                queries: HOT_BASES,
                selectivity_rate: 0.0005,
                cost_rate: 0.00025,
                ..DriftConfig::new(Family::Clustered, SERVICES, seed, usize::MAX)
            })),
            Workload::ColdSearch => Source::Cold {
                seed,
                next: 0,
                seen: HashSet::new(),
                quantization: Quantization::default(),
            },
            Workload::ChurnPipelined => {
                let bases = (0..CHURN_BASES)
                    .map(|b| {
                        let base_seed =
                            seed.wrapping_mul(CHURN_BASES as u64).wrapping_add(b as u64);
                        // A quarter of the bases walk a bucket boundary of
                        // the daemon's default 5% grid: the second probe's
                        // traffic.
                        let config = if b % 4 == 0 {
                            DriftConfig::boundary_walk(
                                Family::Clustered,
                                SERVICES,
                                base_seed,
                                usize::MAX,
                                0.05,
                            )
                        } else {
                            DriftConfig::new(Family::Clustered, SERVICES, base_seed, usize::MAX)
                        };
                        DriftStream::new(DriftConfig { queries: 1, ..config })
                    })
                    .collect();
                Source::Churn {
                    bases,
                    cdf: zipf_cdf(CHURN_BASES, CHURN_ZIPF),
                    rng: StdRng::seed_from_u64(seed ^ 0x21BF_0003),
                }
            }
        }
    }

    fn next_instance(&mut self) -> QueryInstance {
        match self {
            Source::Hot(stream) => stream.next().expect("drift streams are endless"),
            Source::Cold { seed, next, seen, quantization } => loop {
                let instance_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(*next);
                *next += 1;
                let instance = generate(Family::BtspHard, SERVICES, instance_seed);
                // Skip the rare instance whose key (primary or second
                // probe grid) an earlier one already used: no cold
                // request may hit.
                let primary = CanonicalKey::new(&instance, quantization).fingerprint();
                let shifted =
                    CanonicalKey::with_phase(&instance, quantization, PROBE2_PHASE).fingerprint();
                if !seen.contains(&primary) && !seen.contains(&shifted) {
                    seen.insert(primary);
                    seen.insert(shifted);
                    return instance;
                }
            },
            Source::Churn { bases, cdf, rng } => {
                let u: f64 = rng.gen();
                let base = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                bases[base].next().expect("drift streams are endless")
            }
        }
    }

    fn take(&mut self, count: usize) -> Vec<String> {
        (0..count).map(|_| format_instance(&self.next_instance())).collect()
    }
}

/// Cumulative Zipf(`exponent`) probabilities over `n` ranks.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Due times of `requests` requests at `rate` per second, arriving in
/// Poisson-distributed bursts of `burst` that are due together: a
/// pipelining client issues a burst at once, so no member is charged
/// the wait for later members to arrive.
fn poisson_schedule(requests: usize, rate: f64, burst: usize, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let burst_rate = rate / burst as f64;
    let mut at = 0.0f64;
    let mut schedule = Vec::with_capacity(requests);
    while schedule.len() < requests {
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / burst_rate;
        let due = Duration::from_secs_f64(at);
        schedule.extend(std::iter::repeat_n(due, burst.min(requests - schedule.len())));
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::Fnv1a;

    fn digest(inputs: &Inputs) -> u64 {
        let mut hash = Fnv1a::new();
        for text in inputs.prefill.iter().chain(&inputs.open).chain(&inputs.closed) {
            hash.write_bytes(text.as_bytes());
        }
        for at in &inputs.schedule {
            hash.write_u64(at.as_nanos() as u64);
        }
        hash.finish()
    }

    fn small() -> Phases {
        Phases { open: Duration::from_millis(400), closed: Duration::from_millis(50) }
    }

    #[test]
    fn one_seed_gives_a_byte_identical_stream() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 7, small(), true);
            let b = Inputs::generate(workload, 7, small(), true);
            assert_eq!(a.open, b.open, "{}", workload.name());
            assert_eq!(a.prefill, b.prefill);
            assert_eq!(a.closed, b.closed);
            assert_eq!(a.traced, b.traced);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(digest(&a), digest(&b));
        }
    }

    #[test]
    fn two_seeds_give_different_streams() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 7, small(), false);
            let b = Inputs::generate(workload, 8, small(), false);
            assert_ne!(a.open, b.open, "{}", workload.name());
            assert_ne!(a.schedule, b.schedule);
            assert_ne!(digest(&a), digest(&b));
        }
    }

    #[test]
    fn cold_search_never_repeats_a_key() {
        let inputs = Inputs::generate(Workload::ColdSearch, 3, small(), true);
        let quantization = Quantization::default();
        let mut keys = HashSet::new();
        for text in inputs.prefill.iter().chain(&inputs.open).chain(&inputs.closed) {
            let instance = dsq_core::parse_instance(text).expect("generated text parses");
            assert!(keys.insert(CanonicalKey::new(&instance, &quantization).fingerprint()));
        }
    }

    #[test]
    fn schedules_are_increasing_at_the_offered_rate() {
        for burst in [1, 8] {
            let schedule = poisson_schedule(20_000, 1000.0, burst, 1);
            assert_eq!(schedule.len(), 20_000);
            assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
            assert!(schedule.chunks(burst).all(|b| b.iter().all(|&due| due == b[0])));
            let span = schedule.last().expect("non-empty").as_secs_f64();
            let tolerance = 0.1 * burst as f64;
            assert!((span - 20.0).abs() < tolerance, "20k arrivals at 1000/s span {span}s");
        }
    }
}
