//! The two output lines: the run's details with its provenance, and
//! the result object, which is always the last line of standard output.

use crate::Args;
use std::path::Path;
use std::process::Command;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// `(name, unit)` of the end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("ok_share", "ratio"),
    ("plan_cost_ratio", "ratio"),
    ("rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("server.parse_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.plan_us", "us"),
    ("server.flush_us", "us"),
    ("server.residual_us", "us"),
    ("server.pipeline_depth", "count"),
    ("server.coalesced", "count"),
    ("server.sat_rps", "1/s"),
    ("service.hit_share", "ratio"),
    ("service.probe2_share", "ratio"),
    ("service.warm_share", "ratio"),
    ("service.cold_share", "ratio"),
    ("service.evict_per_req", "count"),
    ("service.insert_per_req", "count"),
    ("service.serve_hit_us", "us"),
    ("service.serve_miss_us", "us"),
    ("core.parse_us", "us"),
    ("core.fingerprint_us", "us"),
    ("core.validate_us", "us"),
    ("core.search_us", "us"),
    ("core.nodes_per_search", "count"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("client.rtt_us", "us"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Whether `metrics` are exactly `spec`, in order.
pub fn matches_spec(metrics: &[Metric], spec: &[(&str, &str)]) -> bool {
    metrics.len() == spec.len()
        && metrics.iter().zip(spec).all(|(m, (name, unit))| m.name == *name && m.unit == *unit)
}

/// Where and from what a result was measured. Results from different
/// hosts are not comparable; `compare.py` refuses them.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    git: String,
    seed: u64,
    nproc: usize,
    cpu: String,
    kernel: String,
    rustc: String,
}

impl Provenance {
    /// Collects the provenance of a run in the checkout at `root`.
    pub fn collect(root: &Path, seed: u64) -> Provenance {
        let output = |program: &str, args: &[&str]| -> Option<String> {
            let out = Command::new(program).args(args).current_dir(root).output().ok()?;
            out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        // A checkout without git metadata has no revision to report; git
        // is not asked, or it would report a repository above the checkout.
        let revision = root.join(".git").exists().then(|| output("git", &["rev-parse", "HEAD"]));
        let git = match revision.flatten() {
            Some(rev) => {
                let dirty = output("git", &["status", "--porcelain", "--untracked-files=no"])
                    .is_none_or(|s| !s.is_empty());
                if dirty {
                    format!("{rev}-dirty")
                } else {
                    rev
                }
            }
            None => "none".into(),
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|k| k.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Provenance {
            git,
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            rustc: output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"git\": {}, \"seed\": {}, \"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}}}",
            json_string(&self.git),
            self.seed,
            self.nproc,
            json_string(&self.cpu),
            json_string(&self.kernel),
            json_string(&self.rustc),
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; the run fails its checks on one.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(m.name),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The details line: workload, arguments, provenance, sample counts and
/// checks, the set-up times, and the metrics.
pub fn details(
    workload: &str,
    args: &Args,
    provenance: &Provenance,
    counts: &[(&str, f64)],
    setup_times: &[f64],
    metrics: &[Metric],
) -> String {
    let counts: Vec<String> =
        counts.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
    let setups: Vec<String> = setup_times.iter().map(f64::to_string).collect();
    format!(
        "{{\"servebench\": {{\"workload\": {}, \"seconds\": {}, \"trace\": {}, \"provenance\": {}, \"counts\": {{{}}}, \"setup_s\": [{}], \"metrics\": {}}}}}",
        json_string(workload),
        args.seconds,
        u8::from(args.trace),
        provenance.to_json(),
        counts.join(", "),
        setups.join(", "),
        metrics_json(metrics),
    )
}

/// The result object: whether every check passed, requests attempted
/// and failed, and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// The `"name"` (and `"unit"`, when present) of every entry in the
    /// manifest's `section` array.
    fn manifest_entries(section: &str) -> Vec<(String, Option<String>)> {
        let body = MANIFEST.split(&format!("\"{section}\": [")).nth(1).expect("section present");
        let body = body.split(']').next().expect("section closes");
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .map(|v| v.split('"').next().unwrap().to_string())
        };
        body.split('}')
            .filter(|entry| entry.contains("\"name\""))
            .map(|entry| (field(entry, "name").expect("named"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn workload_and_metric_names_are_plain_and_match_the_manifest() {
        // Every listed workload exists; `hot_hits` runs but is not listed.
        let listed: Vec<String> =
            manifest_entries("workloads").into_iter().map(|(name, _)| name).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert!(!listed.is_empty() && listed.iter().all(|name| ours.contains(name)), "{listed:?}");
        for (section, spec) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = manifest_entries(section);
            let expected: Vec<(String, Option<String>)> =
                spec.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect();
            assert_eq!(listed, expected, "{section}");
        }
        for name in ours
            .iter()
            .map(String::as_str)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n))
        {
            assert!(is_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let metrics = [Metric::new("p50_us", 81.25, "us"), Metric::new("bad", f64::NAN, "us")];
        assert_eq!(
            result_line(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 81.25, \"unit\": \"us\"}, \"bad\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
