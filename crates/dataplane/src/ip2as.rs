//! IP→AS mapping and traceroute → AS-path conversion (Chen et al., §3.1).
//!
//! The origin table is what a researcher builds from public BGP feeds: each
//! announced prefix mapped to its origin AS. Hop addresses are resolved by
//! longest-prefix match; unresolvable hops (IXP fabric, unresponsive) are
//! bridged; consecutive duplicates are collapsed; paths with AS-level loops
//! (a conversion artifact) are rejected.

use crate::trace::Traceroute;
use ir_bgp::RoutingUniverse;
use ir_types::{Asn, Ipv4, Prefix};

/// Prefix → origin-AS table, as derived from BGP data.
#[derive(Debug, Clone, Default)]
pub struct OriginTable {
    /// Sorted by (base address, length): the sort order doubles as the
    /// lookup index, so LPM is a binary search plus a short backward walk
    /// instead of a full scan.
    entries: Vec<(Prefix, Asn)>,
    /// Shortest prefix length present — bounds the backward walk.
    min_len: u8,
}

impl OriginTable {
    /// Builds the table from a converged routing universe (every announced
    /// prefix with its origin).
    pub fn from_universe(u: &RoutingUniverse) -> OriginTable {
        let entries: Vec<(Prefix, Asn)> = u
            .prefixes()
            .filter_map(|p| u.origin(p).map(|o| (p, o)))
            .collect();
        Self::from_entries(entries)
    }

    /// Builds a table from explicit entries (tests, partial-feed studies).
    pub fn from_entries(mut entries: Vec<(Prefix, Asn)>) -> OriginTable {
        entries.sort_unstable();
        entries.dedup();
        let min_len = entries.iter().map(|(p, _)| p.len).min().unwrap_or(32);
        OriginTable { entries, min_len }
    }

    /// Longest-prefix match.
    pub fn lookup(&self, ip: Ipv4) -> Option<Asn> {
        self.lookup_entry(ip).map(|(_, a)| a)
    }

    /// Longest-prefix match, returning the matching prefix itself.
    pub fn lookup_prefix(&self, ip: Ipv4) -> Option<Prefix> {
        self.lookup_entry(ip).map(|(p, _)| p)
    }

    fn lookup_entry(&self, ip: Ipv4) -> Option<(Prefix, Asn)> {
        // Any prefix containing `ip` has its base in [ip & mask(min_len),
        // ip]; entries are sorted by base, so walk backward from the first
        // entry past `ip` until bases drop below the floor.
        let floor = ip.0 & Prefix::mask(self.min_len);
        let pos = self.entries.partition_point(|(p, _)| p.base.0 <= ip.0);
        let mut best: Option<(Prefix, Asn)> = None;
        for &(p, a) in self.entries[..pos].iter().rev() {
            if p.base.0 < floor {
                break;
            }
            if p.contains(ip) && best.is_none_or(|(b, _)| p.len > b.len) {
                best = Some((p, a));
            }
        }
        best
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Converts a traceroute into an AS-level path.
///
/// Returns `None` when the traceroute did not complete or the conversion
/// detects an AS-level loop (an artifact that would poison the analysis;
/// the paper discards such paths). The probe's own AS is always the first
/// element.
pub fn as_path_of(tr: &Traceroute, table: &OriginTable) -> Option<Vec<Asn>> {
    if !tr.reached {
        return None;
    }
    let mut path = vec![tr.src_as];
    for hop in &tr.hops {
        let Some(ip) = hop.ip else { continue }; // unresponsive hop: bridge
        let Some(asn) = table.lookup(ip) else {
            continue;
        }; // IXP/unmapped: bridge
        if path.last() != Some(&asn) {
            path.push(asn);
        }
    }
    // Reject AS-level loops: an AS reappearing non-consecutively.
    let mut seen = std::collections::BTreeSet::new();
    for a in &path {
        if !seen.insert(*a) {
            return None;
        }
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Hop;

    fn table() -> OriginTable {
        OriginTable::from_entries(vec![
            ("10.1.0.0/16".parse().unwrap(), Asn(100)),
            ("10.1.2.0/24".parse().unwrap(), Asn(200)), // more specific
            ("10.2.0.0/16".parse().unwrap(), Asn(300)),
        ])
    }

    fn hop(ip: Option<Ipv4>) -> Hop {
        Hop {
            ip,
            true_asn: None,
            true_city: None,
        }
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let t = table();
        assert_eq!(t.lookup(Ipv4::new(10, 1, 2, 5)), Some(Asn(200)));
        assert_eq!(t.lookup(Ipv4::new(10, 1, 3, 5)), Some(Asn(100)));
        assert_eq!(t.lookup(Ipv4::new(192, 0, 2, 1)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn indexed_lookup_agrees_with_linear_scan() {
        // A denser table with nested and adjacent prefixes.
        let mut entries: Vec<(Prefix, Asn)> = Vec::new();
        for i in 0u32..32 {
            entries.push((
                Prefix {
                    base: Ipv4(10 << 24 | i << 16),
                    len: 16,
                },
                Asn(1000 + i),
            ));
            if i % 3 == 0 {
                entries.push((
                    Prefix {
                        base: Ipv4(10 << 24 | i << 16 | 2 << 8),
                        len: 24,
                    },
                    Asn(2000 + i),
                ));
            }
        }
        entries.push((
            Prefix {
                base: Ipv4(10 << 24),
                len: 8,
            },
            Asn(7),
        ));
        let t = OriginTable::from_entries(entries.clone());
        for x in 0u32..(1 << 14) {
            let ip = Ipv4((10 << 24) | (x * 997));
            let linear = entries
                .iter()
                .filter(|(p, _)| p.contains(ip))
                .max_by_key(|(p, _)| p.len)
                .map(|&(_, a)| a);
            assert_eq!(t.lookup(ip), linear, "mismatch at {ip:?}");
        }
        assert_eq!(t.lookup(Ipv4::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn lpm_index_agrees_with_linear_scan_everywhere() {
        // A generated world's whole universe: probe inside, at the edges
        // of, and just outside every announced prefix.
        let w = ir_topology::GeneratorConfig::tiny().build(11);
        let t = OriginTable::from_universe(&RoutingUniverse::compute_all(&w));
        let prefixes: Vec<Prefix> = t.entries.iter().map(|&(p, _)| p).collect();
        for p in &prefixes {
            let outside = Ipv4(p.base.0.wrapping_sub(1));
            for ip in [p.addr(0), p.addr(1), p.addr(p.size() - 1), outside] {
                let linear = prefixes
                    .iter()
                    .filter(|q| q.contains(ip))
                    .max_by_key(|q| q.len)
                    .copied();
                assert_eq!(t.lookup_prefix(ip), linear, "mismatch at {ip}");
            }
        }
    }

    fn mk_trace(hops: Vec<Hop>, reached: bool) -> Traceroute {
        Traceroute {
            src_as: Asn(1),
            dst_ip: Ipv4::new(10, 2, 0, 9),
            dst_hostname: None,
            hops,
            reached,
        }
    }

    #[test]
    fn conversion_collapses_and_bridges() {
        let t = table();
        let tr = mk_trace(
            vec![
                hop(Some(Ipv4::new(10, 1, 0, 1))),   // AS100
                hop(Some(Ipv4::new(10, 1, 0, 2))),   // AS100 again → collapse
                hop(None),                           // star → bridge
                hop(Some(Ipv4::new(198, 32, 0, 5))), // unmapped IXP → bridge
                hop(Some(Ipv4::new(10, 2, 0, 9))),   // AS300
            ],
            true,
        );
        assert_eq!(as_path_of(&tr, &t), Some(vec![Asn(1), Asn(100), Asn(300)]));
    }

    #[test]
    fn loops_are_rejected() {
        let t = table();
        let tr = mk_trace(
            vec![
                hop(Some(Ipv4::new(10, 1, 0, 1))), // AS100
                hop(Some(Ipv4::new(10, 2, 0, 1))), // AS300
                hop(Some(Ipv4::new(10, 1, 0, 3))), // AS100 again → loop
            ],
            true,
        );
        assert_eq!(as_path_of(&tr, &t), None);
    }

    #[test]
    fn unreached_is_discarded() {
        let t = table();
        let tr = mk_trace(vec![hop(Some(Ipv4::new(10, 1, 0, 1)))], false);
        assert_eq!(as_path_of(&tr, &t), None);
    }

    #[test]
    fn probe_as_always_first_even_if_unmapped_first_hop() {
        let t = table();
        let tr = mk_trace(vec![hop(None), hop(Some(Ipv4::new(10, 2, 0, 9)))], true);
        assert_eq!(as_path_of(&tr, &t), Some(vec![Asn(1), Asn(300)]));
    }
}
