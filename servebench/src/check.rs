//! The output checker, and the in-process timing of each layer's public
//! functions over the same generated inputs.

use dsq_core::{
    bottleneck_cost, format_instance, optimize_with, parse_instance, BnbConfig, CanonicalKey, Plan,
    Quantization, QueryInstance,
};
use dsq_server::Response;
use dsq_service::{CacheConfig, PlanCache, ServeSource};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Accumulated wall time of one public function over many calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timer {
    total_ns: u64,
    calls: u64,
}

impl Timer {
    /// Runs `f`, adding its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = std::hint::black_box(f());
        self.total_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        value
    }

    /// Mean microseconds per call (0 before any call).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    /// Calls timed.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    fn merge(&mut self, other: &Timer) {
        self.total_ns += other.total_ns;
        self.calls += other.calls;
    }
}

/// One `ok` answer to verify against the request text that produced it.
#[derive(Debug, Clone, Copy)]
pub struct Item<'a> {
    /// The request document as sent.
    pub text: &'a str,
    /// The daemon's answer (a `Served` response).
    pub response: &'a Response,
    /// Whether to also compare against the exact optimum.
    pub optimum: bool,
}

/// The checker's findings plus the layer timings it took on the way.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Answers checked.
    pub checked: u64,
    /// Answers that failed a check.
    pub mismatches: u64,
    /// The first few mismatch descriptions.
    pub examples: Vec<String>,
    /// Sum of served cost / exact optimum over the optimum-checked items.
    pub ratio_sum: f64,
    /// Items compared against the optimum.
    pub ratio_count: u64,
    /// `parse_instance` on the request text.
    pub parse: Timer,
    /// `bottleneck_cost` of the served plan.
    pub validate: Timer,
    /// `CanonicalKey::new` under the daemon's default quantization.
    pub fingerprint: Timer,
    /// `optimize_with` (paper configuration) for the optimum.
    pub search: Timer,
    /// Expanded search nodes over the `search` calls.
    pub nodes: u64,
    /// `Response::parse` of the served line.
    pub decode: Timer,
}

impl Verdict {
    fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        for example in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(example);
            }
        }
        self.ratio_sum += other.ratio_sum;
        self.ratio_count += other.ratio_count;
        self.parse.merge(&other.parse);
        self.validate.merge(&other.validate);
        self.fingerprint.merge(&other.fingerprint);
        self.search.merge(&other.search);
        self.nodes += other.nodes;
        self.decode.merge(&other.decode);
    }

    fn flag(&mut self, what: String) {
        self.mismatches += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    fn check(&mut self, item: &Item<'_>, quantization: &Quantization) {
        self.checked += 1;
        let Response::Served { plan, cost, .. } = item.response else {
            self.flag(format!("not a served answer: `{}`", item.response.to_line()));
            return;
        };
        let line = item.response.to_line();
        if self.decode.time(|| Response::parse(&line)).as_ref() != Ok(item.response) {
            self.flag(format!("answer does not round-trip: `{line}`"));
        }
        // The instance exactly as the daemon parsed it.
        let instance = match self.parse.time(|| parse_instance(item.text)) {
            Ok(instance) => instance,
            Err(e) => return self.flag(format!("request text does not parse: {e}")),
        };
        self.fingerprint.time(|| CanonicalKey::new(&instance, quantization));
        let plan = match Plan::new(plan.clone()) {
            Ok(p) if p.len() == instance.len() => p,
            _ => {
                return self
                    .flag(format!("plan {plan:?} is not a permutation of 0..{}", instance.len()))
            }
        };
        let exact = self.validate.time(|| bottleneck_cost(&instance, &plan));
        if exact.to_bits() != cost.to_bits() {
            return self.flag(format!("reported cost {cost} but the plan costs {exact}"));
        }
        if item.optimum {
            let result = self.search.time(|| optimize_with(&instance, &BnbConfig::paper()));
            self.nodes += result.stats().nodes_expanded;
            let optimum = result.cost();
            if *cost < optimum * (1.0 - 1e-12) {
                return self.flag(format!("reported cost {cost} beats the optimum {optimum}"));
            }
            self.ratio_sum += if optimum > 0.0 { cost / optimum } else { 1.0 };
            self.ratio_count += 1;
        }
    }
}

/// Checks every item on `threads` threads.
pub fn check_all(items: &[Item<'_>], threads: usize) -> Verdict {
    let quantization = Quantization::default();
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let quantization = &quantization;
                scope.spawn(move || {
                    let mut verdict = Verdict::default();
                    for item in part {
                        verdict.check(item, quantization);
                    }
                    verdict
                })
            })
            .collect();
        let mut total = Verdict::default();
        for handle in handles {
            total.merge(handle.join().expect("checker thread panicked"));
        }
        total
    })
}

/// `PlanCache::serve` timings from a fresh cache in the daemon's
/// configuration, split by serve source, plus `format_instance`.
#[derive(Debug, Clone, Default)]
pub struct ServeTimes {
    /// Validated hits.
    pub hit: Timer,
    /// Cold searches and warm starts.
    pub miss: Timer,
    /// `format_instance` of each parsed request.
    pub encode: Timer,
}

/// Serves `texts` in order through a fresh in-process `PlanCache`
/// configured like the daemon's (`probes: 2`) until `budget` is spent,
/// then serves the last 64 again, so every workload times some hits.
pub fn serve_pass(texts: &[&str], budget: Duration) -> ServeTimes {
    let cache = PlanCache::new(CacheConfig { probes: 2, ..CacheConfig::default() });
    let config = BnbConfig::paper();
    let mut times = ServeTimes::default();
    let serve = |instance: &QueryInstance, times: &mut ServeTimes| {
        let mut timer = Timer::default();
        let answer = timer.time(|| cache.serve(instance, &config));
        match answer.source {
            ServeSource::CacheHit => times.hit.merge(&timer),
            ServeSource::WarmStart | ServeSource::Cold => times.miss.merge(&timer),
        }
    };
    let started = Instant::now();
    let mut recent = VecDeque::with_capacity(REVISIT);
    for text in texts {
        if started.elapsed() > budget {
            break;
        }
        let instance = parse_instance(text).expect("generated text parses");
        times.encode.time(|| format_instance(&instance));
        serve(&instance, &mut times);
        if recent.len() == REVISIT {
            recent.pop_front();
        }
        recent.push_back(instance);
    }
    for instance in &recent {
        serve(instance, &mut times);
    }
    times
}

/// Requests served a second time at the end of [`serve_pass`].
const REVISIT: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_service::PlanTier;

    fn served(plan: Vec<usize>, cost: f64) -> Response {
        Response::Served {
            source: ServeSource::Cold,
            cost,
            fingerprint: 0,
            plan,
            tier: PlanTier::Exact,
        }
    }

    #[test]
    fn checker_accepts_the_optimum_and_flags_corruption() {
        let instance = dsq_workloads::generate(dsq_workloads::Family::Clustered, 7, 5);
        let text = format_instance(&instance);
        let parsed = parse_instance(&text).expect("parses");
        let best = optimize_with(&parsed, &BnbConfig::paper());
        let good = served(best.plan().indices(), best.cost());
        let mut wrong_cost = good.clone();
        if let Response::Served { cost, .. } = &mut wrong_cost {
            *cost *= 1.0 + 1e-9;
        }
        let mut duplicate = best.plan().indices();
        duplicate[1] = duplicate[0];
        let short = best.plan().indices()[1..].to_vec();
        let cases = [
            (good, 0),
            (wrong_cost, 1),
            (served(duplicate, best.cost()), 1),
            (served(short, best.cost()), 1),
            (Response::Pong, 1),
        ];
        for (response, mismatches) in &cases {
            let verdict = check_all(&[Item { text: &text, response, optimum: true }], 1);
            assert_eq!(verdict.mismatches, *mismatches, "{}", response.to_line());
        }
        let verdict = check_all(&[Item { text: &text, response: &cases[0].0, optimum: true }], 1);
        assert_eq!(verdict.ratio_sum / verdict.ratio_count as f64, 1.0);
        assert!(verdict.search.calls() == 1 && verdict.nodes > 0);
    }

    #[test]
    fn checker_measures_the_excess_of_a_worse_plan() {
        let instance = dsq_workloads::generate(dsq_workloads::Family::Clustered, 7, 9);
        let text = format_instance(&instance);
        let parsed = parse_instance(&text).expect("parses");
        let best = optimize_with(&parsed, &BnbConfig::paper());
        let identity = Plan::identity(parsed.len());
        let worse = served(identity.indices(), bottleneck_cost(&parsed, &identity));
        let verdict = check_all(&[Item { text: &text, response: &worse, optimum: true }], 1);
        assert_eq!(verdict.mismatches, 0);
        let ratio = verdict.ratio_sum / verdict.ratio_count as f64;
        assert_eq!(ratio, bottleneck_cost(&parsed, &identity) / best.cost());
    }

    #[test]
    fn serve_pass_times_hits_and_misses() {
        let texts: Vec<String> = (0..20)
            .map(|s| {
                format_instance(&dsq_workloads::generate(dsq_workloads::Family::Clustered, 6, s))
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let times = serve_pass(&refs, Duration::from_secs(10));
        assert_eq!(times.miss.calls(), 20);
        assert_eq!(times.hit.calls(), 20);
        assert_eq!(times.encode.calls(), 20);
    }
}
