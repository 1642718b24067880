//! The two timed phases: an open loop on a Poisson schedule and a
//! closed loop at saturation, each over `connections` client threads
//! driving the daemon through `dsq_server::Client`.

use crate::stats;
use dsq_server::{Client, ListenAddr, PipelineRequest, Response};
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The last stretch before a due time is spun, not slept: even with a
/// 1 ns timer slack a sleep overshoots by ~15 µs, a fifth of a hit. The
/// spin yields, so a daemon thread woken on the same core runs at once.
const SPIN: Duration = Duration::from_micros(50);

/// Lead between starting the sender threads and the first due time.
const START_LEAD: Duration = Duration::from_millis(20);

/// What became of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The daemon answered with this line.
    Answer(Response),
    /// The connection failed before the answer arrived.
    Io,
}

/// One open-loop request's timing. Times are nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The answer, or the failure.
    pub outcome: Outcome,
    /// Due time → answer parsed (0 when the request failed).
    pub latency_ns: u64,
    /// Intended send time → actual send.
    pub late_ns: u64,
    /// Actual send → answer parsed: the client-observed round trip.
    pub rtt_ns: u64,
    /// Whether the request went out before it was due.
    pub early: bool,
}

/// Sets the calling thread's timer slack to 1 ns, so sleeps wake close
/// to their deadline (the Linux default slack is 50 µs). Threads spawned
/// afterwards inherit it.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one `unsigned long` argument by
    // value and only changes the calling thread's timer slack; no memory
    // of this process is passed or touched.
    let status = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
    if status != 0 {
        eprintln!("servebench: could not tighten timer slack; pacing is coarser");
    }
}

/// Moves the calling thread to the `SCHED_IDLE` policy: it runs only
/// when nothing else wants the core, the scheduler places woken threads
/// on its core as if the core were idle, and they preempt it at once.
fn lower_to_idle_policy() {
    const SCHED_IDLE: std::ffi::c_int = 5;
    #[repr(C)]
    struct SchedParam {
        sched_priority: std::ffi::c_int,
    }
    extern "C" {
        fn sched_setscheduler(
            pid: std::ffi::c_int,
            policy: std::ffi::c_int,
            param: *const SchedParam,
        ) -> std::ffi::c_int;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, properly laid out `struct sched_param`
    // for the duration of the call; pid 0 names the calling thread.
    let status = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if status != 0 {
        eprintln!("servebench: could not lower a keep-awake thread to SCHED_IDLE");
    }
}

/// Runs `f` while `threads` keep-awake threads occupy the cores. On a
/// virtualised host, waking an idle core costs a hypervisor exit of tens
/// to hundreds of microseconds that varies with the host's load; these
/// threads keep the cores out of idle at `SCHED_IDLE` priority, so they
/// give way to any other thread at once and the timed phases measure the
/// daemon rather than the hypervisor.
fn keep_awake<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let finished = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                lower_to_idle_policy();
                while !finished.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        // Stop the spinners even when `f` panics, or the scope would
        // wait for them forever.
        struct Finish<'a>(&'a AtomicBool);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _finish = Finish(&finished);
        f()
    })
}

/// Sleeps until `due`, spinning through the last [`SPIN`].
fn pace_until(due: Instant) {
    let now = Instant::now();
    if let Some(wait) = due.checked_duration_since(now) {
        if wait > SPIN {
            std::thread::sleep(wait - SPIN);
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
    }
}

/// Most segments an open-loop phase is cut into for its quantiles.
const OPEN_SEGMENTS: usize = 16;
/// Fewest samples per segment: leaves 10 beyond each segment's p99.
const MIN_SEGMENT_SAMPLES: usize = 1000;

/// Latency figures of an open-loop phase. Failed requests count as
/// infinitely late.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub segments: usize,
    /// The fewest samples beyond p99 in any segment.
    pub beyond_p99: usize,
    /// Medians over the segments of their p50, p90 and p99.
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub late_p50_ns: u64,
    pub late_p99_ns: u64,
    pub zero_samples: usize,
    pub early: usize,
}

/// Contiguous segments of an open-loop phase of `n` requests: up to
/// [`OPEN_SEGMENTS`] of at least [`MIN_SEGMENT_SAMPLES`] requests each,
/// cut on burst boundaries.
fn open_segments(n: usize, burst: usize) -> Vec<Range<usize>> {
    let count = (n / MIN_SEGMENT_SAMPLES).clamp(1, OPEN_SEGMENTS);
    let cut = |k: usize| if k == count { n } else { k * n / count / burst * burst };
    (0..count).map(|k| cut(k)..cut(k + 1)).collect()
}

/// Runs an open-loop phase segment by segment, each on fresh
/// connections and sender threads, so neither one burst of host noise
/// nor one unlucky thread placement sets the run's figures.
pub fn open_phase(
    addr: &ListenAddr,
    requests: &[PipelineRequest],
    schedule: &[Duration],
    burst: usize,
    connections: usize,
) -> io::Result<(Vec<Record>, Latency)> {
    let segments = open_segments(requests.len(), burst);
    let mut records = Vec::with_capacity(requests.len());
    for segment in &segments {
        let first_due = schedule[segment.start];
        let rebased: Vec<Duration> =
            schedule[segment.clone()].iter().map(|&due| due - first_due).collect();
        records.extend(open_loop(addr, &requests[segment.clone()], &rebased, burst, connections)?);
    }
    let latency = latency(&records, &segments);
    Ok((records, latency))
}

/// Latency figures of an open-loop phase: the median over `segments`
/// of each segment's quantiles.
fn latency(records: &[Record], segments: &[Range<usize>]) -> Latency {
    let latencies: Vec<u64> = records
        .iter()
        .map(|r| match r.outcome {
            Outcome::Answer(Response::Served { .. }) => r.latency_ns,
            _ => u64::MAX,
        })
        .collect();
    let mut quantiles = [vec![], vec![], vec![]];
    let mut beyond_p99 = usize::MAX;
    for range in segments {
        let mut segment = latencies[range.clone()].to_vec();
        segment.sort_unstable();
        beyond_p99 = beyond_p99.min(segment.len() - 1 - stats::quantile_rank(segment.len(), 0.99));
        for (values, q) in quantiles.iter_mut().zip([0.5, 0.9, 0.99]) {
            values.push(stats::quantile(&segment, q) as f64);
        }
    }
    let [p50, p90, p99] = quantiles.map(|values| stats::median(&values) as u64);
    let mut late: Vec<u64> = records.iter().map(|r| r.late_ns).collect();
    late.sort_unstable();
    Latency {
        samples: records.len(),
        segments: segments.len(),
        beyond_p99,
        p50_ns: p50,
        p90_ns: p90,
        p99_ns: p99,
        late_p50_ns: stats::quantile(&late, 0.5),
        late_p99_ns: stats::quantile(&late, 0.99),
        zero_samples: latencies.iter().filter(|&&l| l == 0).count(),
        early: records.iter().filter(|r| r.early).count(),
    }
}

/// Sends `requests` open-loop: request `i` is due at `schedule[i]` after
/// the phase start, requests are grouped into bursts of `burst`, and
/// burst `k` goes out on connection `k % connections` no earlier than
/// its **last** member is due. Every latency is measured from the
/// member's own due time. Returns one record per request, in order.
///
/// # Errors
///
/// A connection could not be opened.
fn open_loop(
    addr: &ListenAddr,
    requests: &[PipelineRequest],
    schedule: &[Duration],
    burst: usize,
    connections: usize,
) -> io::Result<Vec<Record>> {
    assert_eq!(requests.len(), schedule.len(), "one due time per request");
    let mut clients =
        (0..connections).map(|_| Client::connect(addr)).collect::<io::Result<Vec<_>>>()?;
    let epoch = Instant::now() + START_LEAD;
    let bursts: Vec<(usize, usize)> = (0..requests.len())
        .step_by(burst)
        .map(|start| (start, (start + burst).min(requests.len())))
        .collect();
    let mut records: Vec<Option<Record>> = vec![None; requests.len()];
    let per_connection: Vec<Vec<(usize, Record)>> = keep_awake(connections, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let bursts = &bursts;
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity(requests.len() / connections + burst);
                        let mut broken = false;
                        for &(start, end) in bursts.iter().skip(c).step_by(connections) {
                            let intended = epoch + schedule[end - 1];
                            pace_until(intended);
                            let sent = Instant::now();
                            let answers = if broken {
                                None
                            } else {
                                client.pipeline(&requests[start..end]).ok()
                            };
                            let done = Instant::now();
                            broken |= answers.is_none();
                            for k in start..end {
                                let due = epoch + schedule[k];
                                let outcome = match &answers {
                                    Some(answers) => Outcome::Answer(answers[k - start].clone()),
                                    None => Outcome::Io,
                                };
                                let latency_ns = match outcome {
                                    Outcome::Answer(_) => {
                                        nanos(done.saturating_duration_since(due))
                                    }
                                    Outcome::Io => 0,
                                };
                                out.push((
                                    k,
                                    Record {
                                        outcome,
                                        latency_ns,
                                        late_ns: nanos(sent.saturating_duration_since(intended)),
                                        rtt_ns: nanos(done - sent),
                                        early: sent < due,
                                    },
                                ));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("open-loop sender panicked")).collect()
        })
    });
    for (k, record) in per_connection.into_iter().flatten() {
        records[k] = Some(record);
    }
    Ok(records.into_iter().map(|r| r.expect("every request has a sender")).collect())
}

/// The closed-loop phase's answers and per-segment throughput.
#[derive(Debug)]
pub struct ClosedLoop {
    /// `(pool index, outcome)` per request sent.
    pub replies: Vec<(usize, Outcome)>,
    /// `ok` answers per second in each segment.
    pub segment_rates: Vec<f64>,
}

/// Saturates the daemon for `length`, split into `segments` equal
/// segments that each open fresh connections and sender threads, so
/// one unlucky thread placement cannot set the whole phase's rate. Each
/// connection keeps one burst of `burst` requests outstanding, taking
/// the next burst from `pool`. A cycling pool wraps around; otherwise
/// the phase ends early when the pool is used up.
///
/// # Errors
///
/// A connection could not be opened.
pub fn closed_loop(
    addr: &ListenAddr,
    pool: &[PipelineRequest],
    burst: usize,
    connections: usize,
    length: Duration,
    segments: u32,
    cycles: bool,
) -> io::Result<ClosedLoop> {
    assert!(
        pool.len() >= burst && (!cycles || pool.len().is_multiple_of(burst)),
        "pool fits whole bursts"
    );
    let next_burst = AtomicUsize::new(0);
    let mut replies = Vec::new();
    let mut segment_rates = Vec::new();
    for _ in 0..segments {
        let mut clients =
            (0..connections).map(|_| Client::connect(addr)).collect::<io::Result<Vec<_>>>()?;
        let started = Instant::now();
        let deadline = started + length / segments;
        let segment: Vec<(usize, Outcome)> = keep_awake(connections, || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .map(|client| {
                        let next_burst = &next_burst;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            while Instant::now() < deadline {
                                let mut start = next_burst.fetch_add(1, Ordering::Relaxed) * burst;
                                if cycles {
                                    start %= pool.len();
                                } else if start + burst > pool.len() {
                                    break;
                                }
                                match client.pipeline(&pool[start..start + burst]) {
                                    Ok(answers) => out.extend(
                                        answers
                                            .into_iter()
                                            .enumerate()
                                            .map(|(j, a)| (start + j, Outcome::Answer(a))),
                                    ),
                                    Err(_) => {
                                        out.extend(
                                            (start..start + burst).map(|k| (k, Outcome::Io)),
                                        );
                                        break;
                                    }
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("closed-loop sender panicked"))
                    .collect()
            })
        });
        let elapsed = started.elapsed().as_secs_f64();
        let ok = segment
            .iter()
            .filter(|(_, outcome)| matches!(outcome, Outcome::Answer(Response::Served { .. })))
            .count();
        replies.extend(segment);
        segment_rates.push(ok as f64 / elapsed);
        if !cycles && next_burst.load(Ordering::Relaxed) * burst + burst > pool.len() {
            break;
        }
    }
    Ok(ClosedLoop { replies, segment_rates })
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_server::{Server, ServerConfig};

    #[test]
    fn segments_cover_the_phase_on_burst_boundaries() {
        for (n, burst) in [(500, 1), (26_664, 1), (20_000, 8), (2_007, 8)] {
            let segments = open_segments(n, burst);
            assert_eq!(segments.first().map(|s| s.start), Some(0));
            assert_eq!(segments.last().map(|s| s.end), Some(n));
            assert!(segments.windows(2).all(|w| w[0].end == w[1].start));
            assert!(segments.iter().all(|s| s.start % burst == 0));
            assert!(segments.len() <= OPEN_SEGMENTS);
            if n >= MIN_SEGMENT_SAMPLES {
                assert!(segments.iter().all(|s| s.len() >= MIN_SEGMENT_SAMPLES - burst), "{n}");
            }
        }
    }

    #[test]
    fn zero_latencies_and_early_sends_are_counted() {
        let record = |latency_ns, early| Record {
            outcome: Outcome::Answer(Response::Pong),
            latency_ns,
            late_ns: 0,
            rtt_ns: 1,
            early,
        };
        let served = Response::Served {
            source: dsq_service::ServeSource::CacheHit,
            cost: 1.0,
            fingerprint: 0,
            plan: vec![0],
            tier: dsq_service::PlanTier::Exact,
        };
        let mut records = vec![record(0, false), record(5, true), record(7, false)];
        for r in &mut records {
            r.outcome = Outcome::Answer(served.clone());
        }
        records.push(Record { outcome: Outcome::Io, ..record(0, false) });
        let whole = 0..records.len();
        let latency = latency(&records, std::slice::from_ref(&whole));
        assert_eq!(latency.zero_samples, 1, "the failed request counts as late, not as zero");
        assert_eq!(latency.early, 1);
        assert_eq!(latency.p99_ns, u64::MAX, "a failure misses every latency limit");
    }

    #[test]
    fn pipelined_bursts_go_out_when_due_and_never_read_zero() {
        let server =
            Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &ServerConfig::default())
                .expect("server starts");
        let requests: Vec<PipelineRequest> = (0..64)
            .map(|s| {
                let instance = dsq_workloads::generate(dsq_workloads::Family::Clustered, 6, s % 4);
                PipelineRequest::Optimize(dsq_core::format_instance(&instance))
            })
            .collect();
        // Bursts of 8 due together, 2 ms apart.
        let schedule: Vec<Duration> =
            (0..64).map(|i| Duration::from_millis(2 * (i / 8) as u64)).collect();
        let (records, latency) =
            open_phase(server.listen_addr(), &requests, &schedule, 8, 2).expect("phase runs");
        server.shutdown();
        assert_eq!(records.len(), 64);
        assert!(records
            .iter()
            .all(|r| matches!(r.outcome, Outcome::Answer(Response::Served { .. }))));
        assert_eq!(latency.zero_samples, 0);
        assert_eq!(latency.early, 0);
        assert!(records.iter().all(|r| r.latency_ns >= r.rtt_ns));
    }
}
