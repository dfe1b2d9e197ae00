//! Allocation guard for the wire. A served what-if reply is streamed into
//! one pre-sized `String`, so its allocation count does not grow with its
//! rows; parsing a reply builds its tree once, with one allocation per
//! container; and writing a tree never copies it. Counted by `support`'s
//! global allocator.

use ir_bgp::WhatIfAnswer;
use ir_serve::protocol::ok_response;
use serde_json::{Key, Value};
use support::{allocations, answer};

mod support;

/// The reply as the serving loop's writer thread sends it, terminator
/// included.
fn wire_line(answer: &WhatIfAnswer) -> String {
    let mut line = ok_response(Some(7), answer);
    line.push('\n');
    line
}

#[test]
fn a_reply_costs_the_same_few_allocations_at_any_width() {
    let (narrow, answer_10) = (answer(10), answer(1_000));
    let (_, at_10) = allocations(|| wire_line(&narrow));
    let (line, at_1000) = allocations(|| wire_line(&answer_10));
    assert!(line.len() > 100_000, "{} bytes", line.len());
    assert_eq!(at_10, at_1000, "allocations grow with the row count");
    assert!(at_1000 <= 4, "{at_1000} allocations");
}

/// The heap blocks a tree holds, which is what cloning it allocates: one
/// per non-empty string, array and object, and one per member name too
/// long to sit inline in its `Key`.
fn containers(v: &Value) -> usize {
    match v {
        Value::String(s) => usize::from(!s.is_empty()),
        Value::Array(items) => {
            usize::from(!items.is_empty()) + items.iter().map(containers).sum::<usize>()
        }
        Value::Object(members) => {
            usize::from(!members.is_empty())
                + members
                    .iter()
                    .map(|(k, v)| usize::from(k.len() > Key::INLINE) + containers(v))
                    .sum::<usize>()
        }
        _ => 0,
    }
}

#[test]
fn parsing_a_reply_builds_its_tree_once() {
    let line = ok_response(Some(7), &answer(1_000));
    let (tree, parse) = allocations(|| serde_json::from_str::<Value>(&line).unwrap());
    let (_, clone) = allocations(|| tree.clone());
    assert_eq!(clone, containers(&tree), "allocations to clone");
    // A parse that handed back a copy of its tree would pay `clone` on top.
    assert!(
        (parse as f64) < 0.6 * (parse + clone) as f64,
        "parse {parse} vs parse + clone {}",
        parse + clone
    );
}

#[test]
fn a_parse_allocates_per_container_not_per_member() {
    let line = ok_response(Some(7), &answer(1_000));
    let (tree, parse) = allocations(|| serde_json::from_str::<Value>(&line).unwrap());
    let containers = containers(&tree);
    // Each row is five containers (the row, two routes, their two paths)
    // and eleven member names: a parse that allocated per name, or grew
    // each container by doubling, would pay several times this.
    assert!(containers > 5_000, "{containers} containers");
    // What the parser may add: its two scratch stacks, grown by doubling.
    assert!(
        parse <= containers + 16,
        "{parse} allocations for {containers} containers"
    );
    assert!(
        exact_size(&tree),
        "a container was built with spare capacity"
    );
}

/// Whether every array and object in the tree holds no spare capacity.
fn exact_size(v: &Value) -> bool {
    match v {
        Value::Array(items) => items.capacity() == items.len() && items.iter().all(exact_size),
        Value::Object(members) => {
            members.capacity() == members.len() && members.iter().all(|(_, v)| exact_size(v))
        }
        _ => true,
    }
}

#[test]
fn writing_a_tree_does_not_copy_it() {
    let line = ok_response(Some(7), &answer(1_000));
    let tree: Value = serde_json::from_str(&line).unwrap();
    let (written, n) = allocations(|| serde_json::to_string(&tree).unwrap());
    assert_eq!(written, line);
    // Only the output grows, by doubling: no allocation per node.
    let doublings = (usize::BITS - line.len().leading_zeros()) as usize;
    assert!(n <= doublings, "{n} allocations for {} bytes", line.len());
}
