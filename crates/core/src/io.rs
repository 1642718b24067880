//! A plain-text instance format, for saving experiment inputs and feeding
//! the `dsq` command-line tool without pulling in a serialization
//! dependency.
//!
//! # Format
//!
//! Line-oriented, whitespace-separated, `#` starts a comment:
//!
//! ```text
//! dsq-instance v1
//! name credit-screening
//! n 3
//! service 0 0.4 0.55 region-filter      # idx cost selectivity [name…]
//! service 1 2.5 2.4 card-lookup
//! service 2 1.8 0.35
//! row 0 0.0 0.6 1.2                     # transfer costs t[0][j]
//! row 1 0.6 0.0 0.5
//! row 2 1.2 0.5 0.0
//! sink 0.0 0.0 0.0                      # optional; defaults to zeros
//! edge 0 2                              # optional precedence: 0 before 2
//! ```

use crate::comm::CommMatrix;
use crate::error::ModelError;
use crate::instance::QueryInstance;
use crate::precedence::PrecedenceDag;
use crate::service::Service;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Error raised by [`parse_instance`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseInstanceError {
    /// The header line is missing or names an unknown version.
    BadHeader,
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A required section is missing.
    MissingSection(&'static str),
    /// The parsed pieces fail model validation.
    Invalid(ModelError),
}

impl fmt::Display for ParseInstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseInstanceError::BadHeader => {
                write!(f, "expected header line `dsq-instance v1`")
            }
            ParseInstanceError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseInstanceError::MissingSection(s) => write!(f, "missing section: {s}"),
            ParseInstanceError::Invalid(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl Error for ParseInstanceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseInstanceError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ParseInstanceError {
    fn from(e: ModelError) -> Self {
        ParseInstanceError::Invalid(e)
    }
}

/// Renders an instance in the text format (see module docs).
///
/// The output round-trips through [`parse_instance`]; names containing
/// whitespace are preserved (the name is everything after the third
/// field).
pub fn format_instance(instance: &QueryInstance) -> String {
    let n = instance.len();
    let mut out = String::from("dsq-instance v1\n");
    out.push_str(&format!("name {}\n", instance.name()));
    out.push_str(&format!("n {n}\n"));
    for (i, s) in instance.services().iter().enumerate() {
        match s.name() {
            Some(name) => {
                out.push_str(&format!("service {i} {} {} {name}\n", s.cost(), s.selectivity()))
            }
            None => out.push_str(&format!("service {i} {} {}\n", s.cost(), s.selectivity())),
        }
    }
    for i in 0..n {
        out.push_str(&format!("row {i}"));
        for j in 0..n {
            out.push_str(&format!(" {}", instance.transfer(i, j)));
        }
        out.push('\n');
    }
    if (0..n).any(|i| instance.sink_cost(i) != 0.0) {
        out.push_str("sink");
        for i in 0..n {
            out.push_str(&format!(" {}", instance.sink_cost(i)));
        }
        out.push('\n');
    }
    if let Some(dag) = instance.precedence() {
        for &(a, b) in dag.edges() {
            out.push_str(&format!("edge {a} {b}\n"));
        }
    }
    out
}

/// Whether `b` is an ASCII character that [`char::is_whitespace`]
/// accepts. Unlike [`u8::is_ascii_whitespace`] this includes the
/// vertical tab, so ASCII lines split and trim exactly as `str` does.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// [`str::trim`], with a byte-level fast path for ASCII text.
fn trim(text: &str, ascii: bool) -> &str {
    if !ascii {
        return text.trim();
    }
    let bytes = text.as_bytes();
    let start = bytes.iter().position(|&b| !is_space(b)).unwrap_or(bytes.len());
    let end = bytes.iter().rposition(|&b| !is_space(b)).map_or(start, |i| i + 1);
    &text[start..end]
}

/// Replaces `out` with the whitespace-separated fields of `line`: the
/// same fields as [`str::split_whitespace`], found without decoding
/// characters when the line is ASCII.
fn split_fields<'a>(line: &'a str, ascii: bool, out: &mut Vec<&'a str>) {
    out.clear();
    if !ascii {
        out.extend(line.split_whitespace());
        return;
    }
    let bytes = line.as_bytes();
    let mut at = 0;
    while at < bytes.len() {
        while at < bytes.len() && is_space(bytes[at]) {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && !is_space(bytes[at]) {
            at += 1;
        }
        if start < at {
            out.push(&line[start..at]);
        }
    }
}

/// Parses the text format (see module docs).
///
/// # Errors
///
/// Returns [`ParseInstanceError`] describing the offending line or the
/// model-validation failure.
pub fn parse_instance(text: &str) -> Result<QueryInstance, ParseInstanceError> {
    // `(line number, content without comment and surrounding
    // whitespace, whether that content is ASCII)` of non-empty lines.
    let mut lines = text.lines().enumerate().filter_map(|(i, raw)| {
        let content = raw.find('#').map_or(raw, |at| &raw[..at]);
        let ascii = content.is_ascii();
        let line = trim(content, ascii);
        (!line.is_empty()).then_some((i + 1, line, ascii))
    });

    match lines.next() {
        Some((_, "dsq-instance v1", _)) => {}
        _ => return Err(ParseInstanceError::BadHeader),
    }

    let mut name: Option<String> = None;
    let mut n: Option<usize> = None;
    // Each entry of `services` and `rows` is set by a line of its own,
    // at least 7 bytes long (`row 0 0`; a `service` line is longer), so
    // the document sets fewer than
    // `cap` of them. The tables are sized to `min(n, cap)`: an `n` the
    // document cannot fill costs no more memory than the document. An
    // index at or past `cap` is dropped; it never matters, since some
    // index below `cap` is then undeclared and reported first.
    let cap = text.len() / 7 + 1;
    let mut services: Vec<Option<Service>> = Vec::new();
    // Every `row` line's values, appended in line order; `rows[i]` is
    // where the latest declaration of row `i` sits.
    let mut values: Vec<f64> = Vec::new();
    let mut rows: Vec<Option<Range<usize>>> = Vec::new();
    let mut sink: Option<Vec<f64>> = None;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut fields: Vec<&str> = Vec::new();

    let malformed = |line: usize, reason: &str| ParseInstanceError::Malformed {
        line,
        reason: reason.to_string(),
    };

    for (lineno, line, ascii) in lines {
        split_fields(line, ascii, &mut fields);
        let index = |count: usize, reason: &str| {
            fields
                .get(1)
                .and_then(|f| f.parse().ok())
                .filter(|&i: &usize| i < count)
                .ok_or_else(|| malformed(lineno, reason))
        };
        match fields[0] {
            "name" => {
                let rest = trim(&line["name".len()..], ascii);
                if rest.is_empty() {
                    return Err(malformed(lineno, "name requires a value"));
                }
                name = Some(rest.to_string());
            }
            "n" => {
                let v: usize = fields
                    .get(1)
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| malformed(lineno, "n requires a positive integer"))?;
                n = Some(v);
                services.resize(v.min(cap), None);
                rows.resize(v.min(cap), None);
            }
            "service" => {
                let count = n.ok_or_else(|| malformed(lineno, "`n` must come before `service`"))?;
                let idx = index(count, "service index out of range")?;
                let cost: f64 = fields
                    .get(2)
                    .and_then(|f| f.parse().ok())
                    .filter(|c: &f64| c.is_finite() && *c >= 0.0)
                    .ok_or_else(|| malformed(lineno, "bad service cost"))?;
                let sel: f64 = fields
                    .get(3)
                    .and_then(|f| f.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| malformed(lineno, "bad service selectivity"))?;
                let mut service = Service::new(cost, sel);
                if fields.len() > 4 {
                    service = service.with_name(fields[4..].join(" "));
                }
                if let Some(slot) = services.get_mut(idx) {
                    *slot = Some(service);
                }
            }
            "row" => {
                let count = n.ok_or_else(|| malformed(lineno, "`n` must come before `row`"))?;
                let idx = index(count, "row index out of range")?;
                let start = values.len();
                for f in &fields[2..] {
                    values.push(f.parse().map_err(|_| malformed(lineno, "bad transfer cost"))?);
                }
                if values.len() - start != count {
                    return Err(malformed(lineno, "row width must equal n"));
                }
                if let Some(slot) = rows.get_mut(idx) {
                    *slot = Some(start..values.len());
                }
            }
            "sink" => {
                let count = n.ok_or_else(|| malformed(lineno, "`n` must come before `sink`"))?;
                let values: Vec<f64> = fields[1..]
                    .iter()
                    .map(|f| f.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| malformed(lineno, "bad sink cost"))?;
                if values.len() != count {
                    return Err(malformed(lineno, "sink width must equal n"));
                }
                sink = Some(values);
            }
            "edge" => {
                let endpoint = |k: usize| {
                    fields
                        .get(k)
                        .and_then(|f| f.parse::<usize>().ok())
                        .ok_or_else(|| malformed(lineno, "bad edge endpoint"))
                };
                edges.push((endpoint(1)?, endpoint(2)?));
            }
            other => {
                return Err(malformed(lineno, &format!("unknown keyword `{other}`")));
            }
        }
    }

    let count = n.ok_or(ParseInstanceError::MissingSection("n"))?;
    let undeclared = |what: &str, i: usize| ParseInstanceError::Malformed {
        line: 0,
        reason: format!("{what} {i} was never declared"),
    };
    if let Some(i) = (0..count).find(|&i| !matches!(services.get(i), Some(Some(_)))) {
        return Err(undeclared("service", i));
    }
    if let Some(i) = (0..count).find(|&i| !matches!(rows.get(i), Some(Some(_)))) {
        return Err(undeclared("row", i));
    }
    let services: Vec<Service> = services.into_iter().flatten().collect();
    let comm = CommMatrix::from_row_slices(count, rows.into_iter().flatten().map(|r| &values[r]))?;

    let mut builder = QueryInstance::builder()
        .name(name.unwrap_or_else(|| "query".into()))
        .services(services)
        .comm(comm);
    if let Some(sink) = sink {
        builder = builder.sink(sink);
    }
    if !edges.is_empty() {
        let mut dag = PrecedenceDag::new(count)?;
        for (a, b) in edges {
            dag.add_edge(a, b)?;
        }
        builder = builder.precedence(dag);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryInstance {
        let mut dag = PrecedenceDag::new(3).expect("n > 0");
        dag.add_edge(0, 2).expect("valid edge");
        QueryInstance::builder()
            .name("sample query")
            .service(Service::new(0.5, 0.8).with_name("region filter"))
            .service(Service::new(1.25, 2.0))
            .service(Service::new(0.0, 1.0).with_name("sinkish"))
            .comm(CommMatrix::from_fn(3, |i, j| (i * 3 + j) as f64 * 0.5))
            .sink(vec![0.0, 0.25, 0.0])
            .precedence(dag)
            .build()
            .expect("valid")
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample();
        let text = format_instance(&original);
        let parsed = parse_instance(&text).expect("round trip parses");
        assert_eq!(parsed, original);
    }

    #[test]
    fn round_trip_without_optional_sections() {
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 0.5), Service::new(2.0, 1.5)],
            CommMatrix::uniform(2, 0.25),
        )
        .expect("valid");
        let text = format_instance(&inst);
        assert!(!text.contains("sink"), "zero sinks are omitted");
        assert!(!text.contains("edge"));
        assert_eq!(parse_instance(&text).expect("parses"), inst);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "dsq-instance v1\n\n# a comment\nname t\nn 1\nservice 0 1.0 0.5 # trailing\nrow 0 0.0\n";
        let inst = parse_instance(text).expect("parses");
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.cost(0), 1.0);
    }

    #[test]
    fn header_is_required() {
        assert_eq!(parse_instance("name x\n"), Err(ParseInstanceError::BadHeader));
        assert_eq!(parse_instance(""), Err(ParseInstanceError::BadHeader));
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let text =
            "dsq-instance v1\nn 2\nservice 0 1.0 0.5\nservice 1 -3 0.5\nrow 0 0 0\nrow 1 0 0\n";
        match parse_instance(text) {
            Err(ParseInstanceError::Malformed { line, reason }) => {
                assert_eq!(line, 4);
                assert!(reason.contains("cost"));
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn missing_pieces_are_reported() {
        let text = "dsq-instance v1\nn 2\nservice 0 1.0 0.5\nservice 1 1.0 0.5\nrow 0 0 0\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Malformed { reason, .. }) if reason.contains("row 1")
        ));
        let text = "dsq-instance v1\nname x\n";
        assert_eq!(parse_instance(text), Err(ParseInstanceError::MissingSection("n")));
    }

    #[test]
    fn unknown_keywords_are_rejected() {
        let text = "dsq-instance v1\nn 1\nservice 0 1 1\nrow 0 0\nbogus 3\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Malformed { reason, .. }) if reason.contains("bogus")
        ));
    }

    #[test]
    fn cyclic_edges_fail_validation() {
        let text = "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1\nrow 1 1 0\nedge 0 1\nedge 1 0\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Invalid(ModelError::PrecedenceCycle))
        ));
    }

    #[test]
    fn row_width_is_checked() {
        let text = "dsq-instance v1\nn 2\nservice 0 1 1\nservice 1 1 1\nrow 0 0 1 2\nrow 1 1 0\n";
        assert!(matches!(
            parse_instance(text),
            Err(ParseInstanceError::Malformed { reason, .. }) if reason.contains("width")
        ));
    }

    #[test]
    fn an_n_the_document_cannot_fill_is_not_allocated_for() {
        // A few bytes declaring four billion services: the tables are sized
        // to what the document can hold, not to `n` (which once meant a
        // 16-exabyte matrix), and the result is the usual first gap.
        let never = |what: &str| ParseInstanceError::Malformed {
            line: 0,
            reason: format!("{what} was never declared"),
        };
        assert_eq!(parse_instance("dsq-instance v1\nn 4000000000\n# c\n"), Err(never("service 0")));
        let max = format!("dsq-instance v1\nn {}\nservice 0 1 1\n", usize::MAX);
        assert_eq!(parse_instance(&max), Err(never("service 1")));
        // An index past what the document can hold is range-checked
        // against `n` as before, and still leaves a lower gap.
        let far = "dsq-instance v1\nn 4000000000\nservice 3999999999 1 1\nrow 3999999999 0\n";
        assert_eq!(
            parse_instance(far),
            Err(ParseInstanceError::Malformed { line: 4, reason: "row width must equal n".into() })
        );
        let far = "dsq-instance v1\nn 4000000000\nservice 3999999999 1 1\n";
        assert_eq!(parse_instance(far), Err(never("service 0")));
        // A later, smaller `n` replaces an oversized one.
        let redeclared = "dsq-instance v1\nn 100\nn 1\nservice 0 0 0\nrow 0 0\n";
        assert_eq!(parse_instance(redeclared).expect("parses").len(), 1);
    }

    #[test]
    fn error_display_and_source() {
        let e = ParseInstanceError::Invalid(ModelError::EmptyInstance);
        assert!(e.to_string().contains("invalid instance"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ParseInstanceError::BadHeader.to_string().contains("dsq-instance"));
    }

    /// Every result here (instance or error variant, line and reason)
    /// is pinned exactly: non-ASCII whitespace, `\r\n` line ends,
    /// duplicate and re-declared sections, and each error path, so a
    /// faster tokenizer or matrix layout cannot change what any document
    /// parses to.
    const PINNED: &[(&str, &str)] = &[
        ("",
         r#"Err(BadHeader)"#),
        ("name x\n",
         r#"Err(BadHeader)"#),
        ("dsq-instance v2\nn 1\nservice 0 1 1\nrow 0 0\n",
         r#"Err(BadHeader)"#),
        ("dsq-instance\u{a0}v1\nn 1\nservice 0 1 1\nrow 0 0\n",
         r#"Err(BadHeader)"#),
        ("dsq-instance  v1\nn 1\nservice 0 1 1\nrow 0 0\n",
         r#"Err(BadHeader)"#),
        ("\n# lead\n\t\n  dsq-instance v1  \r\nn 1\r\nservice 0 1 0.5\r\nrow 0 0\r\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }], comm: CommMatrix { n: 1, data: [0.0] }, sink: [0.0], precedence: None })"#),
        ("\u{2003}dsq-instance v1\u{3000}\nn 1\nservice 0 1 0.5\nrow 0 0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }], comm: CommMatrix { n: 1, data: [0.0] }, sink: [0.0], precedence: None })"#),
        ("dsq-instance v1\nn\u{a0}2\nservice\u{2009}0 1 0.5\nservice 1 2 0.25\nrow 0 0\u{2009}1\nrow 1 1\u{3000}0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\nname \u{3000}alpha\u{a0} beta\t\nn 1\nservice 0 1 0.5  my   svc\u{a0}x\nrow 0 0\n",
         r#"Ok(QueryInstance { name: "alpha\u{a0} beta", services: [Service { cost: 1.0, selectivity: 0.5, name: Some("my svc x") }], comm: CommMatrix { n: 1, data: [0.0] }, sink: [0.0], precedence: None })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nrow 0 0 7\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 7.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5 first\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nservice 0 3 0.75\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 3.0, selectivity: 0.75, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nrow 0 0 1\nn 3\nservice 1 2 0.25\nservice 2 2 0.25\nrow 1 1 0 1\nrow 2 1 1 0\n",
         r#"Err(Invalid(DimensionMismatch { what: "communication matrix row", expected: 3, found: 2 }))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nrow 0 0 1\nn 3\nn 2\nservice 1 2 0.25\nrow 1 1 0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\nn 100\nn 1\nservice 0 0 0\nrow 0 0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 0.0, selectivity: 0.0, name: None }], comm: CommMatrix { n: 1, data: [0.0] }, sink: [0.0], precedence: None })"#),
        ("dsq-instance v1\nn 1\nservice 0 1 0.5\nn 100000\nrow 0 0\n",
         r#"Err(Malformed { line: 5, reason: "row width must equal n" })"#),
        ("dsq-instance v1\nn 1\nservice 0 1 0.5\nrow 0 0\nn 100000\nn 1\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }], comm: CommMatrix { n: 1, data: [0.0] }, sink: [0.0], precedence: None })"#),
        ("dsq-instance v1\nn 100000\nservice 99999 1 0.5\nservice 3 1 0.5\nn 4\nservice 0 1 0.5\n",
         r#"Err(Malformed { line: 0, reason: "service 1 was never declared" })"#),
        ("dsq-instance v1\nn 3\nservice 0 1 0.5\nservice 1 2 0.25\nservice 2 2 0.25\nrow 0 0 -1 1\nrow 1 1 0 1\nrow 2 1 1 0\nn 2\nrow 1 1 0\n",
         r#"Err(Invalid(DimensionMismatch { what: "communication matrix row", expected: 2, found: 3 }))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 x\nrow 1 1 0\n",
         r#"Err(Malformed { line: 5, reason: "bad transfer cost" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1 x\nrow 1 1 0\n",
         r#"Err(Malformed { line: 5, reason: "bad transfer cost" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0\nrow 1 1 0\n",
         r#"Err(Malformed { line: 5, reason: "row width must equal n" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 -1\nrow 1 1 0\n",
         r#"Err(Invalid(InvalidValue { what: "transfer cost", value: -1.0 }))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 NaN\nrow 1 1 0\n",
         r#"Err(Invalid(InvalidValue { what: "transfer cost", value: NaN }))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1e400\nrow 1 1 0\n",
         r#"Err(Invalid(InvalidValue { what: "transfer cost", value: inf }))"#),
        ("dsq-instance v1\nn 2\nservice 0 -0 0.5\nservice 1 2 -0\nrow 0 -0 +1\nrow 1 1.5e-3 0\nsink -0 0.125\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: -0.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: -0.0, name: None }], comm: CommMatrix { n: 2, data: [-0.0, 1.0, 0.0015, 0.0] }, sink: [-0.0, 0.125], precedence: None })"#),
        ("dsq-instance v1\nn 2\nservice 0 inf 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 3, reason: "bad service cost" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0x10\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 3, reason: "bad service selectivity" })"#),
        ("dsq-instance v1\nn 2\nservice 2 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 3, reason: "service index out of range" })"#),
        ("dsq-instance v1\nservice 0 1 0.5\nn 2\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 2, reason: "`n` must come before `service`" })"#),
        ("dsq-instance v1\nrow 0 0 1\nn 2\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 2, reason: "`n` must come before `row`" })"#),
        ("dsq-instance v1\nsink 0 1\nn 2\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 2, reason: "`n` must come before `sink`" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nsink 0\n",
         r#"Err(Malformed { line: 7, reason: "sink width must equal n" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nsink 0 NaN\n",
         r#"Err(Invalid(InvalidValue { what: "sink cost", value: NaN }))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nsink 0 q\n",
         r#"Err(Malformed { line: 7, reason: "bad sink cost" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nedge 0\n",
         r#"Err(Malformed { line: 7, reason: "bad edge endpoint" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nedge 0 5\n",
         r#"Err(Invalid(PrecedenceOutOfRange { service: 5, len: 2 }))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nedge 1 1\n",
         r#"Err(Invalid(SelfPrecedence(1)))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nedge 0 1 extra\nedge 1 0\n",
         r#"Err(Invalid(PrecedenceCycle))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nedge 1 0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: Some(PrecedenceDag { n: 2, preds: [{1}, {}], edges: [(1, 0)] }) })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrоw 1 1 0\n",
         r#"Err(Malformed { line: 6, reason: "unknown keyword `rоw`" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nnamex foo\n",
         r#"Err(Malformed { line: 7, reason: "unknown keyword `namex`" })"#),
        ("dsq-instance v1\nn -1\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 2, reason: "n requires a positive integer" })"#),
        ("dsq-instance v1\nn +2 trailing\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\nn ٣\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\n",
         r#"Err(Malformed { line: 2, reason: "n requires a positive integer" })"#),
        ("dsq-instance v1\nn 0\n# nothing else declared here, padding the document\n",
         r#"Err(Invalid(EmptyInstance))"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nrow 0 0 1\nrow 1 1 0\n# padding padding\n",
         r#"Err(Malformed { line: 0, reason: "service 1 was never declared" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 1 1 0\n# padding\n",
         r#"Err(Malformed { line: 0, reason: "row 0 was never declared" })"#),
        ("dsq-instance v1\nname only\n",
         r#"Err(MissingSection("n"))"#),
        ("dsq-instance v1\nname\nn 1\nservice 0 1 0.5\nrow 0 0\n",
         r#"Err(Malformed { line: 2, reason: "name requires a value" })"#),
        ("dsq-instance v1\nname \u{a0}  \nn 1\nservice 0 1 0.5\nrow 0 0\n",
         r#"Err(Malformed { line: 2, reason: "name requires a value" })"#),
        ("dsq-instance v1\nname a#b\nn 1 # count\nservice 0 1 0.5 #svc\n#\nrow 0 0 # t\n",
         r#"Ok(QueryInstance { name: "a", services: [Service { cost: 1.0, selectivity: 0.5, name: None }], comm: CommMatrix { n: 1, data: [0.0] }, sink: [0.0], precedence: None })"#),
        ("dsq-instance v1\nn 2\nservice 0\u{b}1\u{c}0.5\nservice 1\t2\r0.25\nrow 0 0\u{b}1\nrow 1 1\u{c}0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\r\nn 2\r\n\r\nservice 0 1 0.5\r\nservice 1 2 0.25\r\n# c\r\nrow 0 0 1\r\nrow 1 1 0\r\nbogus\r\n",
         r#"Err(Malformed { line: 9, reason: "unknown keyword `bogus`" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5 été\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: Some("été") }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nsink 0 0\nsink 0.5 0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.5, 0.0], precedence: None })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 ٣\nrow 1 1 0\n",
         r#"Err(Malformed { line: 5, reason: "bad transfer cost" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\u{a0}\nrow 1 1 0\n",
         r#"Ok(QueryInstance { name: "query", services: [Service { cost: 1.0, selectivity: 0.5, name: None }, Service { cost: 2.0, selectivity: 0.25, name: None }], comm: CommMatrix { n: 2, data: [0.0, 1.0, 1.0, 0.0] }, sink: [0.0, 0.0], precedence: None })"#),
        ("dsq-instance v1\nn 18446744073709551616\nservice 0 1 0.5\nrow 0 0\n",
         r#"Err(Malformed { line: 2, reason: "n requires a positive integer" })"#),
        ("dsq-instance v1\nn 2\nservice 0 1 0.5\nservice 1 2 0.25\nrow 0 0 1\nrow 1 1 0\nedge 18446744073709551616 0\n",
         r#"Err(Malformed { line: 7, reason: "bad edge endpoint" })"#),
    ];

    #[test]
    fn parse_results_are_pinned_on_a_table_of_documents() {
        for (i, (doc, expected)) in PINNED.iter().enumerate() {
            assert_eq!(&format!("{:?}", parse_instance(doc)), expected, "case {i}: {doc:?}");
        }
    }
}
