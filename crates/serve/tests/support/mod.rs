//! Shared by the wire tests: a counting global allocator, whose counter is
//! per thread so tests running side by side do not see each other's
//! allocations, and a hijack-shaped answer of any width.

use ir_bgp::{AsPath, CertificateDelta, DeltaStats, Route, RouteDiff, WhatIfAnswer};
use ir_types::{Asn, Prefix, Timestamp};
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
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn prefix() -> Prefix {
    "10.0.0.0/24".parse().unwrap()
}

/// A hijack-shaped answer: every row moves from a learned route to the
/// attacker's prepended, poisoned one.
pub fn answer(rows: u32) -> WhatIfAnswer {
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
