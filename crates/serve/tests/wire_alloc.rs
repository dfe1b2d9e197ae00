//! Allocation guard for the wire. A served what-if reply is streamed into
//! one pre-sized `String`, so its allocation count does not grow with its
//! rows; parsing a reply builds its tree once; and writing a tree never
//! copies it. Counted by a global allocator with a per-thread counter, so
//! tests running side by side do not see each other's allocations.

use ir_bgp::{AsPath, CertificateDelta, DeltaStats, Route, RouteDiff, WhatIfAnswer};
use ir_serve::protocol::ok_response;
use ir_types::{Asn, Prefix, Timestamp};
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made on this thread so far.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while thread-locals tear down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations (fresh or grown) it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn prefix() -> Prefix {
    "10.0.0.0/24".parse().unwrap()
}

/// A hijack-shaped answer: every row moves from a learned route to the
/// attacker's prepended, poisoned one.
fn answer(rows: u32) -> WhatIfAnswer {
    let diffs = (0..rows)
        .map(|i| {
            let path = AsPath::origin(Asn(64_500)).prepend_n(Asn(3356), 2);
            let mut before = Route::originate(prefix(), path.prepend(Asn(i)), Timestamp(90));
            before.learned_from = Some(Asn(i));
            before.local_pref = 200;
            let forged = AsPath::poisoned(Asn(65_000), &[Asn(7), Asn(8)]).prepend(Asn(i + 1));
            let mut after = Route::originate(prefix(), forged, Timestamp(u64::from(i)));
            after.learned_from = Some(Asn(i + 1));
            after.local_pref = -5;
            RouteDiff {
                asn: Asn(100_000 + i),
                before: Some(before),
                after: Some(after),
            }
        })
        .collect();
    WhatIfAnswer {
        prefix: prefix(),
        diffs,
        stats: DeltaStats {
            deltas_applied: 1,
            ases_seeded: 2,
            activations: 3_000,
            imports: 9_000,
            rounds: 12,
            routes_retained: 19_000,
            routes_changed: rows as usize,
            converged: true,
            deadline_aborted: false,
        },
        certificate: Some(CertificateDelta::Preserved),
    }
}

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

#[test]
fn parsing_a_reply_builds_its_tree_once() {
    let line = ok_response(Some(7), &answer(1_000));
    let (tree, parse) = allocations(|| serde_json::from_str::<Value>(&line).unwrap());
    let (_, clone) = allocations(|| tree.clone());
    assert!(clone > 10_000, "{clone} allocations to clone");
    // A parse that handed back a copy of its tree would pay `clone` on top.
    assert!(
        (parse as f64) < 0.6 * (parse + clone) as f64,
        "parse {parse} vs parse + clone {}",
        parse + clone
    );
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
