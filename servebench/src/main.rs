//! `servebench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload hot_hits|cold_search|churn_pipelined --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds `dsq` from the surrounding checkout, generates the
//! workload's requests from the seed, starts a fresh
//! `dsq serve --unix … --workers 1` daemon (several times, to time
//! set-up), and drives it through `dsq_server::Client`: an open-loop
//! phase on a Poisson schedule, then a closed-loop saturation phase.
//! Every `ok` answer is checked against the request it answers. The
//! last stdout line is the result object; the line before it carries
//! the run's provenance and checks. With `--trace 1` a second open-loop
//! phase is scraped for the daemon's stage histograms and the layers'
//! public functions are timed in-process; that run reports the
//! per-layer metrics instead of the end-to-end ones.

mod check;
mod daemon;
mod drive;
mod report;
mod stats;
mod workload;

use check::Item;
use daemon::{Daemon, Scrape};
use drive::{Latency, Outcome, Record};
use dsq_server::{Client, PipelineRequest, Response};
use report::{Metric, Provenance};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Inputs, Phases, Workload};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Connections (and sender threads), capped by the host's cores.
const MAX_CONNECTIONS: usize = 2;
/// Segments of the closed-loop phase; `server.sat_rps` is their median
/// rate.
const CLOSED_SEGMENTS: u32 = 20;
/// Requests per pipelined write while prefilling.
const PREFILL_BURST: usize = 32;
/// A run whose median generator lateness exceeds this share of its
/// median latency measured the generator as much as the daemon: it is
/// flagged in the details line and on stderr.
const MAX_LATE_SHARE: f64 = 0.25;
/// Time allowed for the in-process `PlanCache` pass of a traced run.
const SERVE_PASS_BUDGET: Duration = Duration::from_millis(1500);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (3..=60).contains(s))
                        .ok_or("--seconds needs an integer in 3..=60")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The checkout this benchmark was built in.
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the checkout")
        .into()
}

/// Builds the `dsq` binary from the checkout and returns its path.
fn build_dsq(root: &Path) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|dir| root.join(dir))
        .unwrap_or_else(|| root.join("target"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--package", "dsq-cli", "--bin", "dsq"])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dsq failed: {status}"));
    }
    Ok(target.join("release").join("dsq"))
}

fn optimize_requests(texts: Vec<String>) -> Vec<PipelineRequest> {
    texts.into_iter().map(PipelineRequest::Optimize).collect()
}

fn request_text(request: &PipelineRequest) -> &str {
    match request {
        PipelineRequest::Optimize(text) => text,
        _ => unreachable!("the benchmark only sends instance documents"),
    }
}

/// Starts a daemon and prefills its cache: the span `setup_s` measures.
fn set_up(
    dsq: &Path,
    socket: PathBuf,
    prefill: &[PipelineRequest],
) -> Result<(Daemon, Client, Duration), String> {
    let started = Instant::now();
    let (daemon, mut client) =
        Daemon::start(dsq, socket).map_err(|e| format!("cannot start the daemon: {e}"))?;
    for chunk in prefill.chunks(PREFILL_BURST) {
        let answers = client.pipeline(chunk).map_err(|e| format!("prefill failed: {e}"))?;
        if let Some(bad) = answers.iter().find(|a| !matches!(a, Response::Served { .. })) {
            return Err(format!("prefill answered `{}`", bad.to_line()));
        }
    }
    Ok((daemon, client, started.elapsed()))
}

/// Failure counts over a set of outcomes, before the checker runs.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    busy: u64,
    error: u64,
    desync: u64,
    io: u64,
}

impl Tally {
    fn observe(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Answer(Response::Served { .. }) => {}
            Outcome::Answer(Response::Busy { .. }) => self.busy += 1,
            Outcome::Answer(Response::Error { .. }) => self.error += 1,
            Outcome::Answer(_) => self.desync += 1,
            Outcome::Io => self.io += 1,
        }
    }

    fn failed(&self) -> u64 {
        self.busy + self.error + self.desync + self.io
    }
}

/// Sets up [`SETUPS`] daemons one after another, keeping the last one
/// and its connection. Returns each set-up's span in seconds.
fn set_up_daemons(
    dsq: &Path,
    prefill: &[PipelineRequest],
) -> Result<(Daemon, Client, Vec<f64>), String> {
    // Sockets live under a relative path: the checkout's absolute path
    // may exceed the 108-byte limit on Unix socket names.
    let run_dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let mut times = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        if let Some((daemon, _)) = live.take() {
            Daemon::shutdown(daemon).map_err(|e| format!("set-up daemon did not drain: {e}"))?;
        }
        let socket = run_dir.join(format!("dsq-{}-{k}.sock", std::process::id()));
        let (daemon, client, took) = set_up(dsq, socket, prefill)?;
        times.push(took.as_secs_f64());
        live = Some((daemon, client));
    }
    let (daemon, client) = live.expect("at least one set-up");
    Ok((daemon, client, times))
}

/// The traced open-loop phase with the scrapes around it.
struct Traced {
    records: Vec<Record>,
    latency: Latency,
    before: Scrape,
    after: Scrape,
}

/// `name`'s counter delta per served request between two scrapes.
fn per_request(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    let requests = before.counter_delta(after, "server.serve.requests").max(1);
    before.counter_delta(after, name) as f64 / requests as f64
}

/// The per-layer metrics of a traced run, in [`report::PER_LAYER`] order.
fn per_layer_metrics(
    traced: &Traced,
    untraced: &Latency,
    sat_rps: f64,
    verdict: &check::Verdict,
    serve: &check::ServeTimes,
) -> Vec<Metric> {
    let (before, after) = (&traced.before, &traced.after);
    let rtt: Vec<u64> = traced.records.iter().map(|r| r.rtt_ns).collect();
    let rtt_us = stats::mean(&rtt) / 1e3;
    let stage_us = |name: &str| before.histogram_mean_delta(after, name) / 1e3;
    let stages = [
        stage_us("server.stage.parse_ns"),
        stage_us("server.stage.queue_wait_ns"),
        stage_us("server.stage.plan_ns"),
        stage_us("server.stage.flush_ns"),
    ];
    let share = |name: &str| per_request(before, after, name);
    let mean = |name: &str| before.histogram_mean_delta(after, name);
    vec![
        Metric::new("server.parse_us", stages[0], "us"),
        Metric::new("server.queue_wait_us", stages[1], "us"),
        Metric::new("server.plan_us", stages[2], "us"),
        Metric::new("server.flush_us", stages[3], "us"),
        // Wire time and wake-ups: what the client waited beyond the
        // four stages, so the five add up to the round trip.
        Metric::new("server.residual_us", rtt_us - stages.iter().sum::<f64>(), "us"),
        Metric::new("server.pipeline_depth", mean("server.pipeline.depth"), "count"),
        Metric::new("server.coalesced", mean("server.flush.coalesced"), "count"),
        Metric::new("server.sat_rps", sat_rps, "1/s"),
        Metric::new("service.hit_share", share("server.serve.hits"), "ratio"),
        Metric::new("service.probe2_share", share("server.serve.probe2-hits"), "ratio"),
        Metric::new("service.warm_share", share("server.serve.warm-starts"), "ratio"),
        Metric::new("service.cold_share", share("server.serve.cold"), "ratio"),
        Metric::new("service.evict_per_req", share("server.cache.evictions"), "count"),
        Metric::new("service.insert_per_req", share("server.cache.insertions"), "count"),
        Metric::new("service.serve_hit_us", serve.hit.mean_us(), "us"),
        Metric::new("service.serve_miss_us", serve.miss.mean_us(), "us"),
        Metric::new("core.parse_us", verdict.parse.mean_us(), "us"),
        Metric::new("core.fingerprint_us", verdict.fingerprint.mean_us(), "us"),
        Metric::new("core.validate_us", verdict.validate.mean_us(), "us"),
        Metric::new("core.search_us", verdict.search.mean_us(), "us"),
        Metric::new(
            "core.nodes_per_search",
            verdict.nodes as f64 / verdict.search.calls().max(1) as f64,
            "count",
        ),
        Metric::new("client.encode_us", serve.encode.mean_us(), "us"),
        Metric::new("client.decode_us", verdict.decode.mean_us(), "us"),
        Metric::new("client.rtt_us", rtt_us, "us"),
        Metric::new("gen.late_p50_us", traced.latency.late_p50_ns as f64 / 1e3, "us"),
        Metric::new("gen.late_p99_us", traced.latency.late_p99_ns as f64 / 1e3, "us"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (traced.latency.p50_ns as f64 / untraced.p50_ns as f64 - 1.0),
            "%",
        ),
    ]
}

/// Self-check failures of an open-loop phase.
fn latency_problems(phase: &str, latency: &Latency) -> Vec<String> {
    let mut problems = Vec::new();
    if latency.zero_samples > 0 {
        problems.push(format!("{phase}: {} latency samples read zero", latency.zero_samples));
    }
    if latency.early > 0 {
        problems
            .push(format!("{phase}: {} requests were sent before they were due", latency.early));
    }
    if latency.beyond_p99 < 10 {
        problems.push(format!("{phase}: only {} samples beyond p99", latency.beyond_p99));
    }
    problems
}

fn run(args: &Args) -> Result<(), String> {
    let root = checkout_root();
    std::env::set_current_dir(&root)
        .map_err(|e| format!("cannot enter {}: {e}", root.display()))?;
    let dsq = build_dsq(&root)?;
    drive::tighten_timer_slack();
    let connections =
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_CONNECTIONS);
    let workload = args.workload;
    let burst = workload.burst();
    let phases = Phases::split(args.seconds);
    let inputs = Inputs::generate(workload, args.seed, phases, args.trace);
    let prefill = optimize_requests(inputs.prefill);
    let open = optimize_requests(inputs.open);
    let closed = optimize_requests(inputs.closed);
    let traced = optimize_requests(inputs.traced);

    let (daemon, mut control, setup_times) = set_up_daemons(&dsq, &prefill)?;
    // The footprint with the cache filled. The peak at the end of the
    // run adds whatever backlog a stall of the host queued up in the
    // daemon's buffers, so it is reported but not gated.
    let rss_mib =
        daemon.peak_rss_mib().map_err(|e| format!("cannot read the daemon's peak RSS: {e}"))?;
    let scrape =
        |control: &mut Client| Scrape::take(control).map_err(|e| format!("scrape failed: {e}"));
    let s0 = scrape(&mut control)?;
    let (open_records, open_latency) =
        drive::open_phase(daemon.addr(), &open, &inputs.schedule, burst, connections)
            .map_err(|e| format!("open loop: {e}"))?;
    let s1 = scrape(&mut control)?;
    let closed_run = drive::closed_loop(
        daemon.addr(),
        &closed,
        burst,
        connections,
        phases.closed,
        CLOSED_SEGMENTS,
        workload.closed_pool_cycles(),
    )
    .map_err(|e| format!("closed loop: {e}"))?;
    let traced_run = if args.trace {
        let before = scrape(&mut control)?;
        let (records, latency) =
            drive::open_phase(daemon.addr(), &traced, &inputs.traced_schedule, burst, connections)
                .map_err(|e| format!("traced open loop: {e}"))?;
        let after = scrape(&mut control)?;
        Some(Traced { records, latency, before, after })
    } else {
        None
    };
    let run_peak_rss_mib =
        daemon.peak_rss_mib().map_err(|e| format!("cannot read the daemon's peak RSS: {e}"))?;
    drop(control);
    let drained = daemon.shutdown();

    // Every ok answer of every phase is checked; the open-loop answers
    // also against the exact optimum.
    let mut tally = Tally::default();
    let mut items = Vec::new();
    let answers = (open.iter().zip(&open_records).map(|(q, r)| (q, &r.outcome, true)))
        .chain(closed_run.replies.iter().map(|(k, outcome)| (&closed[*k], outcome, false)))
        .chain(
            traced
                .iter()
                .zip(traced_run.iter().flat_map(|t| &t.records))
                .map(|(q, r)| (q, &r.outcome, false)),
        );
    for (request, outcome, optimum) in answers {
        tally.observe(outcome);
        if let Outcome::Answer(response @ Response::Served { .. }) = outcome {
            items.push(Item { text: request_text(request), response, optimum });
        }
    }
    let verdict = check::check_all(&items, connections);
    let failed = tally.failed() + verdict.mismatches;

    let sat_rps = stats::median(&closed_run.segment_rates);
    let metrics = match &traced_run {
        None => vec![
            Metric::new("setup_s", stats::median(&setup_times), "s"),
            Metric::new("p50_us", open_latency.p50_ns as f64 / 1e3, "us"),
            Metric::new("ok_share", 1.0 - failed as f64 / tally.attempted as f64, "ratio"),
            Metric::new(
                "plan_cost_ratio",
                verdict.ratio_sum / verdict.ratio_count.max(1) as f64,
                "ratio",
            ),
            Metric::new("rss_mib", rss_mib, "MiB"),
        ],
        Some(traced) => {
            let texts: Vec<&str> = prefill.iter().chain(&open).map(request_text).collect();
            let serve = check::serve_pass(&texts, SERVE_PASS_BUDGET);
            per_layer_metrics(traced, &open_latency, sat_rps, &verdict, &serve)
        }
    };
    let spec = if args.trace { &report::PER_LAYER[..] } else { &report::END_TO_END[..] };
    if !report::matches_spec(&metrics, spec) {
        return Err("the reported metrics differ from the declared list".into());
    }

    let mut problems = Vec::new();
    if let Err(e) = &drained {
        problems.push(format!("daemon did not drain cleanly: {e}"));
    }
    problems.extend(verdict.examples.iter().cloned());
    problems.extend(latency_problems("open", &open_latency));
    if let Some(traced) = &traced_run {
        problems.extend(latency_problems("traced", &traced.latency));
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("{} is not a finite number", m.name));
    }
    for problem in &problems {
        eprintln!("servebench: check failed: {problem}");
    }
    let late_flag = std::iter::once(&open_latency)
        .chain(traced_run.iter().map(|t| &t.latency))
        .any(|l| l.late_p50_ns as f64 > MAX_LATE_SHARE * l.p50_ns as f64);
    if late_flag {
        eprintln!(
            "servebench: warning: the generator ran late by a large share of the p50 latency"
        );
    }

    let details = report::details(
        workload.name(),
        args,
        &Provenance::collect(&root, args.seed),
        &[
            ("connections", connections as f64),
            ("open_samples", open_latency.samples as f64),
            ("open_segments", open_latency.segments as f64),
            ("open_p90_us", open_latency.p90_ns as f64 / 1e3),
            ("open_p99_us", open_latency.p99_ns as f64 / 1e3),
            ("open_beyond_p99", open_latency.beyond_p99 as f64),
            ("open_late_p50_us", open_latency.late_p50_ns as f64 / 1e3),
            ("open_late_p99_us", open_latency.late_p99_ns as f64 / 1e3),
            ("late_flag", f64::from(u8::from(late_flag))),
            ("open_hit_share", per_request(&s0, &s1, "server.serve.hits")),
            ("open_cold_share", per_request(&s0, &s1, "server.serve.cold")),
            ("closed_requests", closed_run.replies.len() as f64),
            ("closed_segments", closed_run.segment_rates.len() as f64),
            ("closed_sat_rps", sat_rps),
            ("run_peak_rss_mib", run_peak_rss_mib),
            (
                "closed_min_rps",
                closed_run.segment_rates.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            ("closed_max_rps", closed_run.segment_rates.iter().copied().fold(0.0, f64::max)),
            ("checked", verdict.checked as f64),
            ("mismatches", verdict.mismatches as f64),
            ("busy", tally.busy as f64),
            ("errors", tally.error as f64),
            ("desyncs", tally.desync as f64),
            ("io_failures", tally.io as f64),
        ],
        &setup_times,
        &metrics,
    );
    println!("{details}");
    println!("{}", report::result_line(problems.is_empty(), tally.attempted, failed, &metrics));
    Ok(())
}
