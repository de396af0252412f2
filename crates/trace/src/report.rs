//! The [`FlowTrace`] report: everything the flight recorder captured,
//! with a deterministic JSON form.

use std::collections::BTreeMap;

use crate::json::{self, Json, JsonError};
use crate::metrics::{Histogram, Metrics, HISTOGRAM_BUCKETS};
use crate::span::SpanNode;

/// Schema tag written into every serialized trace.
pub const SCHEMA: &str = "varitune-trace/1";

/// A captured trace: the span tree plus the merged metric set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowTrace {
    /// Root spans in open order.
    pub spans: Vec<SpanNode>,
    /// Counters and histograms, merged across all workers.
    pub metrics: Metrics,
}

impl FlowTrace {
    /// All span names, depth-first pre-order across the roots.
    #[must_use]
    pub fn span_names(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for root in &self.spans {
            root.names_preorder(&mut names);
        }
        names
    }

    /// Counter value by name (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Renders the deterministic JSON form: keys sorted (`BTreeMap`),
    /// integers only, two-space indentation, trailing newline. In default
    /// builds (no `wall-clock`) the output is byte-identical across
    /// reruns of the same workload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.metrics.counters {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (name, hist) in &self.metrics.histograms {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            out.push_str(": ");
            write_histogram(&mut out, hist);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"spans\": [");
        first = true;
        for span in &self.spans {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            write_span(&mut out, span, 2);
        }
        out.push_str(if first { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    /// Parses a trace previously rendered by [`FlowTrace::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON or a schema mismatch.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let root = json::parse(text)?;
        let schema_err = |message: &str| JsonError {
            offset: 0,
            message: message.to_owned(),
        };
        match root.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(schema_err(&format!("unknown schema '{other}'"))),
            None => return Err(schema_err("missing schema tag")),
        }
        let mut counters = BTreeMap::new();
        for (name, value) in root
            .get("counters")
            .and_then(Json::members)
            .ok_or_else(|| schema_err("missing counters object"))?
        {
            let v = value
                .as_u64()
                .ok_or_else(|| schema_err("counter value is not an integer"))?;
            counters.insert(name.clone(), v);
        }
        let mut histograms = BTreeMap::new();
        for (name, value) in root
            .get("histograms")
            .and_then(Json::members)
            .ok_or_else(|| schema_err("missing histograms object"))?
        {
            histograms.insert(name.clone(), parse_histogram(value, &schema_err)?);
        }
        let spans = root
            .get("spans")
            .and_then(Json::as_array)
            .ok_or_else(|| schema_err("missing spans array"))?
            .iter()
            .map(|s| parse_span(s, &schema_err))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            spans,
            metrics: Metrics {
                counters,
                histograms,
            },
        })
    }
}

fn write_histogram(out: &mut String, hist: &Histogram) {
    out.push_str(&format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
        hist.count, hist.sum, hist.min, hist.max
    ));
    for (i, (bucket, count)) in hist.sparse_buckets().into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{bucket}, {count}]"));
    }
    out.push_str("]}");
}

fn parse_histogram(
    value: &Json,
    schema_err: &impl Fn(&str) -> JsonError,
) -> Result<Histogram, JsonError> {
    let field = |name: &str| {
        value
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| schema_err(&format!("histogram missing integer '{name}'")))
    };
    let mut hist = Histogram::new();
    hist.count = field("count")?;
    hist.sum = field("sum")?;
    hist.min = field("min")?;
    hist.max = field("max")?;
    for pair in value
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| schema_err("histogram missing buckets"))?
    {
        let pair = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| schema_err("bucket entry is not a pair"))?;
        let index = pair[0]
            .as_u64()
            .map(|i| i as usize)
            .filter(|&i| i < HISTOGRAM_BUCKETS)
            .ok_or_else(|| schema_err("bucket index out of range"))?;
        let count = pair[1]
            .as_u64()
            .ok_or_else(|| schema_err("bucket count is not an integer"))?;
        hist.buckets[index] = count;
    }
    Ok(hist)
}

fn write_span(out: &mut String, span: &SpanNode, indent: usize) {
    let pad = "  ".repeat(indent);
    out.push_str(&pad);
    out.push_str("{\"name\": ");
    json::write_escaped(out, &span.name);
    if let Some(nanos) = span.nanos {
        out.push_str(&format!(", \"nanos\": {nanos}"));
    }
    if span.children.is_empty() {
        out.push('}');
        return;
    }
    out.push_str(", \"children\": [\n");
    for (i, child) in span.children.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write_span(out, child, indent + 1);
    }
    out.push('\n');
    out.push_str(&pad);
    out.push_str("]}");
}

fn parse_span(
    value: &Json,
    schema_err: &impl Fn(&str) -> JsonError,
) -> Result<SpanNode, JsonError> {
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| schema_err("span missing name"))?
        .to_owned();
    let nanos = value.get("nanos").and_then(Json::as_u64);
    let children = match value.get("children").and_then(Json::as_array) {
        Some(items) => items
            .iter()
            .map(|c| parse_span(c, schema_err))
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    Ok(SpanNode {
        name,
        nanos,
        children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> FlowTrace {
        let mut metrics = Metrics::new();
        metrics.add("core.kept_cells", 304);
        metrics.add("variation.trials", 20);
        metrics.observe("sta.dirty_cone", 3);
        metrics.observe("sta.dirty_cone", 900);
        FlowTrace {
            spans: vec![SpanNode {
                name: "flow.prepare".into(),
                nanos: None,
                children: vec![SpanNode {
                    name: "flow.characterize".into(),
                    nanos: None,
                    children: Vec::new(),
                }],
            }],
            metrics,
        }
    }

    #[test]
    fn json_round_trips() {
        let trace = sample_trace();
        let text = trace.to_json();
        let parsed = FlowTrace::from_json(&text).unwrap();
        assert_eq!(parsed, trace);
        // And the rendering itself is a fixed point.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn json_is_deterministic_text() {
        let a = sample_trace().to_json();
        let b = sample_trace().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"varitune-trace/1\""));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn empty_trace_serializes_and_parses() {
        let empty = FlowTrace::default();
        let parsed = FlowTrace::from_json(&empty.to_json()).unwrap();
        assert_eq!(parsed, empty);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let text = sample_trace().to_json().replace("varitune-trace/1", "v2");
        assert!(FlowTrace::from_json(&text).is_err());
    }

    #[test]
    fn span_names_walk_preorder() {
        let trace = sample_trace();
        assert_eq!(trace.span_names(), ["flow.prepare", "flow.characterize"]);
    }
}
