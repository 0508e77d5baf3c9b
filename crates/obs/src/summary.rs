//! Plain-text hierarchical span summary.
//!
//! Groups spans by their *name path* (root span name → … → span name) and
//! reports, per path: call count, total inclusive time, and p50/p95/p99
//! **self-time** — the span's duration minus the duration of its direct
//! children, i.e. time actually spent in that phase rather than delegated.
//! Self-times feed a [`Histogram`], so the percentiles are true
//! tail quantiles (≤1% relative error), and the table is sorted by
//! cumulative (inclusive) time descending so the most expensive subtree
//! reads first.

use std::collections::{BTreeMap, HashMap};

use crate::hist::Histogram;
use crate::Trace;

/// Guard against corrupted parent links; real traces nest far shallower.
const MAX_DEPTH: usize = 64;

#[derive(Default)]
struct Node {
    count: u64,
    total_ns: u64,
    self_times: Option<Histogram>,
    children: BTreeMap<String, Node>,
}

impl Node {
    /// Inclusive time used for ordering: a node that never recorded
    /// itself (e.g. an `<orphan>` placeholder) sorts by its subtree.
    fn sort_total(&self) -> u64 {
        if self.count > 0 {
            self.total_ns
        } else {
            self.children.values().map(Node::sort_total).sum()
        }
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn render(out: &mut String, name: &str, node: &Node, depth: usize) {
    if node.count > 0 {
        let label = format!("{}{}", "  ".repeat(depth), name);
        let hist = node.self_times.as_ref();
        let q = |q: f64| hist.map_or(0, |h| h.quantile(q));
        out.push_str(&format!(
            "{:<52} {:>9} {:>12} {:>13} {:>13} {:>13}\n",
            label,
            node.count,
            fmt_ms(node.total_ns),
            fmt_us(q(0.50)),
            fmt_us(q(0.95)),
            fmt_us(q(0.99)),
        ));
    }
    // Children by cumulative time descending; name breaks ties stably.
    let mut children: Vec<(&String, &Node)> = node.children.iter().collect();
    children.sort_by(|a, b| b.1.sort_total().cmp(&a.1.sort_total()).then(a.0.cmp(b.0)));
    for (child_name, child) in children {
        render(out, child_name, child, depth + 1);
    }
}

/// Render the hierarchical summary of `trace` as aligned plain text.
pub fn summarize(trace: &Trace) -> String {
    let index: HashMap<u64, usize> =
        trace.events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();

    // Sum of direct children's inclusive durations, per parent id.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for e in &trace.events {
        if let Some(parent) = e.parent {
            *child_ns.entry(parent).or_insert(0) += e.duration_ns();
        }
    }

    // Fold every span into the path tree; parent links are walked
    // bounded and cycle-safe.
    let mut root = Node::default();
    for e in &trace.events {
        let mut path = vec![e.name.to_string()];
        let mut cursor = e.parent;
        while let Some(pid) = cursor {
            if path.len() >= MAX_DEPTH {
                break;
            }
            match index.get(&pid) {
                Some(&i) => {
                    path.push(trace.events[i].name.to_string());
                    cursor = trace.events[i].parent;
                }
                None => {
                    path.push("<orphan>".to_string());
                    break;
                }
            }
        }
        path.reverse();
        let mut node = &mut root;
        for part in path {
            node = node.children.entry(part).or_default();
        }
        node.count += 1;
        node.total_ns += e.duration_ns();
        let self_ns = e.duration_ns().saturating_sub(child_ns.get(&e.id).copied().unwrap_or(0));
        node.self_times.get_or_insert_with(Histogram::default).record(self_ns);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{:<52} {:>9} {:>12} {:>13} {:>13} {:>13}\n",
        "span", "count", "total ms", "p50 self µs", "p95 self µs", "p99 self µs"
    ));
    let mut top: Vec<(&String, &Node)> = root.children.iter().collect();
    top.sort_by(|a, b| b.1.sort_total().cmp(&a.1.sort_total()).then(a.0.cmp(b.0)));
    for (name, node) in top {
        render(&mut out, name, node, 0);
    }

    if !trace.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, value) in &trace.counters {
            out.push_str(&format!("  {name:<50} {value:>12}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn groups_by_path_and_indents_children() {
        let rec = Recorder::enabled();
        for _ in 0..3 {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        rec.counter_add("things", 42);
        let text = summarize(&rec.snapshot());
        let outer_line = text.lines().find(|l| l.trim_start().starts_with("outer")).unwrap();
        let inner_line = text.lines().find(|l| l.trim_start().starts_with("inner")).unwrap();
        assert!(outer_line.starts_with("outer"));
        assert!(inner_line.starts_with("  inner"), "child should be indented: {inner_line:?}");
        assert!(outer_line.split_whitespace().any(|w| w == "3"));
        assert!(text.contains("things"));
        assert!(text.contains("42"));
        assert!(text.contains("p95 self µs"));
    }

    #[test]
    fn self_time_excludes_children() {
        use crate::{SpanEvent, Trace};
        use std::borrow::Cow;
        let mk = |name: &str, id, parent, begin_ns, end_ns| SpanEvent {
            name: Cow::Owned(name.to_string()),
            id,
            parent,
            tid: 1,
            begin_ns,
            end_ns,
            args: vec![],
        };
        let trace = Trace {
            events: vec![
                mk("root", 1, None, 0, 10_000_000),            // 10 ms inclusive
                mk("child", 2, Some(1), 1_000_000, 9_000_000), // 8 ms
            ],
            counters: vec![],
        };
        let text = summarize(&trace);
        // Root self time = 10 - 8 = 2 ms = 2000 µs, within the ≤1%
        // histogram resolution.
        let root_line = text.lines().find(|l| l.starts_with("root")).unwrap();
        let p50: f64 = root_line.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!((p50 - 2000.0).abs() <= 20.0, "expected ≈2000 µs self time: {root_line:?}");
    }

    #[test]
    fn orphan_parents_are_grouped_not_crashed() {
        use crate::{SpanEvent, Trace};
        use std::borrow::Cow;
        let trace = Trace {
            events: vec![SpanEvent {
                name: Cow::Borrowed("lost"),
                id: 5,
                parent: Some(999),
                tid: 1,
                begin_ns: 0,
                end_ns: 10,
                args: vec![],
            }],
            counters: vec![],
        };
        let text = summarize(&trace);
        assert!(text.contains("lost"));
    }

    #[test]
    fn table_is_sorted_by_cumulative_time_descending() {
        use crate::{SpanEvent, Trace};
        use std::borrow::Cow;
        let mk = |name: &str, id, begin_ns, end_ns| SpanEvent {
            name: Cow::Owned(name.to_string()),
            id,
            parent: None,
            tid: 1,
            begin_ns,
            end_ns,
            args: vec![],
        };
        let trace = Trace {
            // "cheap" first in time, but "expensive" must print first.
            events: vec![
                mk("cheap", 1, 0, 1_000),
                mk("expensive", 2, 2_000, 50_000_000),
                mk("middling", 3, 1_000, 2_000_000),
            ],
            counters: vec![],
        };
        let text = summarize(&trace);
        let pos = |name: &str| text.find(name).unwrap();
        assert!(pos("expensive") < pos("middling"), "{text}");
        assert!(pos("middling") < pos("cheap"), "{text}");
    }
}
