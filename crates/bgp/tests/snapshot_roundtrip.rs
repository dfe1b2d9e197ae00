//! Snapshot/restore round-trip: a converged `RoutingUniverse` serialized
//! to bytes and reloaded must be *the same universe* — route-for-route
//! (ages included), accounting included, and byte-identical when saved
//! again. This is what lets a service converge the full prefix set once,
//! persist it, and answer what-if queries from a cold start without
//! re-propagating.

use ir_bgp::universe::prefix_owners;
use ir_bgp::{
    snapshot_staging_path, ActivationOrder, Delta, RoutingUniverse, WhatIfEngine, WhatIfQuery,
};
use ir_topology::GeneratorConfig;
use ir_types::Prefix;

#[test]
fn snapshot_bytes_round_trip_exactly() {
    let w = GeneratorConfig::tiny().build(9);
    let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let bytes = u.to_snapshot_bytes().expect("serialize");
    let loaded = RoutingUniverse::from_snapshot_bytes(&bytes).expect("deserialize");
    // Re-serializing the loaded universe reproduces the image bit for bit:
    // nothing was lost, reordered, or regenerated differently.
    let bytes2 = loaded.to_snapshot_bytes().expect("re-serialize");
    assert_eq!(bytes, bytes2, "snapshot is not byte-stable");
}

#[test]
fn loaded_universe_equals_original_route_for_route() {
    let w = GeneratorConfig::tiny().build(7);
    let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let loaded = RoutingUniverse::from_snapshot_bytes(&u.to_snapshot_bytes().expect("serialize"))
        .expect("deserialize");
    assert!(u.prefixes().eq(loaded.prefixes()));
    for &p in &ps {
        assert_eq!(u.origin(p), loaded.origin(p));
        for x in 0..w.graph.len() {
            assert_eq!(u.route(p, x), loaded.route(p, x), "{p} at node {x}");
        }
    }
    assert_eq!(u.unconverged(), loaded.unconverged());
    assert_eq!(u.resilience(), loaded.resilience());
    assert_eq!(u.engine_stats(), loaded.engine_stats());
    // Shape sharing survived: shared tables are still one allocation each.
    assert_eq!(u.resident_bytes(), loaded.resident_bytes());
}

#[test]
fn snapshot_file_round_trips() {
    let w = GeneratorConfig::tiny().build(5);
    let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(6).collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ir_universe_snapshot_{}.bin", std::process::id()));
    u.save_snapshot(&path).expect("save");
    let loaded = RoutingUniverse::load_snapshot(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    for &p in &ps {
        for x in 0..w.graph.len() {
            assert_eq!(u.route(p, x), loaded.route(p, x));
        }
    }
}

#[test]
fn whatif_engine_hydrated_from_snapshot_answers_like_fresh() {
    let w = GeneratorConfig::tiny().build(3);
    let owners = prefix_owners(&w);
    let ps: Vec<Prefix> = owners.keys().copied().collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let loaded = RoutingUniverse::from_snapshot_bytes(&u.to_snapshot_bytes().expect("serialize"))
        .expect("deserialize");
    let adopted = WhatIfEngine::from_universe(&w, &loaded, ActivationOrder::default())
        .expect("hydrate from loaded snapshot");
    let fresh = WhatIfEngine::new(&w, &ps);
    assert_eq!(adopted.shape_count(), fresh.shape_count());
    for &p in &ps {
        let origin = owners[&p];
        let oidx = w.graph.index_of(origin).unwrap();
        let peer_asn = w.graph.asn(w.graph.links(oidx)[0].peer);
        for delta in [
            Delta::LinkDown {
                a: origin,
                b: peer_asn,
            },
            Delta::NeighborPref {
                of: peer_asn,
                neighbor: origin,
                delta: Some(-400),
            },
            Delta::Withdraw,
        ] {
            let q = WhatIfQuery::single(p, delta);
            assert_eq!(adopted.query(&q), fresh.query(&q), "{p}");
        }
    }
}

#[test]
fn corrupt_snapshots_are_rejected_not_trusted() {
    let w = GeneratorConfig::tiny().build(5);
    let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(4).collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let bytes = u.to_snapshot_bytes().expect("serialize");
    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(RoutingUniverse::from_snapshot_bytes(&bad).is_err());
    // Truncations at every eighth byte: must error, never panic.
    for cut in (0..bytes.len()).step_by(8) {
        assert!(
            RoutingUniverse::from_snapshot_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} silently accepted"
        );
    }
    // Bit flips anywhere in the image — counters and ages included — are
    // caught by the CRC32 trailer before structural decoding even starts.
    for i in (8..bytes.len()).step_by(97) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x40;
        assert!(
            RoutingUniverse::from_snapshot_bytes(&flipped).is_err(),
            "bit flip at byte {i} silently accepted"
        );
    }
}

#[test]
fn torn_writes_fail_the_crc_at_every_kib_boundary() {
    let w = GeneratorConfig::tiny().build(11);
    let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let bytes = u.to_snapshot_bytes().expect("serialize");
    assert!(bytes.len() > 4096, "image too small to exercise truncation");
    // A torn write is a prefix of the real image: every 1 KiB truncation
    // point must be rejected — structurally or by the CRC trailer.
    for cut in (0..bytes.len()).step_by(1024) {
        assert!(
            RoutingUniverse::from_snapshot_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} silently accepted",
            bytes.len()
        );
    }
    // Including the worst case: everything but the trailer's last byte.
    assert!(RoutingUniverse::from_snapshot_bytes(&bytes[..bytes.len() - 1]).is_err());
}

#[test]
fn single_byte_flips_fail_the_crc_everywhere() {
    let w = GeneratorConfig::tiny().build(11);
    let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(3).collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let bytes = u.to_snapshot_bytes().expect("serialize");
    // Dense sweep: flip one byte at every offset (trailer included).
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x01;
        assert!(
            RoutingUniverse::from_snapshot_bytes(&flipped).is_err(),
            "single-byte flip at {i} silently accepted"
        );
    }
}

#[test]
fn save_is_atomic_and_recovery_discards_staging_debris() {
    let w = GeneratorConfig::tiny().build(5);
    let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(4).collect();
    let u = RoutingUniverse::compute(&w, &ps);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ir_snapshot_atomic_{}.iruniv", std::process::id()));
    let staging = snapshot_staging_path(&path);
    u.save_snapshot(&path).expect("save");
    assert!(path.exists());
    assert!(
        !staging.exists(),
        "staging file must not survive a clean save"
    );
    // Simulate a crash mid-save: torn bytes parked at the staging path.
    let good = std::fs::read(&path).expect("read back");
    std::fs::write(&staging, &good[..good.len() / 2]).expect("plant debris");
    // A torn staging file must never decode as a snapshot...
    assert!(RoutingUniverse::from_snapshot_bytes(&good[..good.len() / 2]).is_err());
    // ...and recovery cleans it up and serves the last published image.
    let recovered = RoutingUniverse::recover_snapshot(&path).expect("recover");
    assert!(!staging.exists(), "recovery must discard staging debris");
    assert_eq!(
        recovered.to_snapshot_bytes().expect("re-serialize"),
        good,
        "recovered universe is not byte-identical to the last good save"
    );
    let _ = std::fs::remove_file(&path);
}
