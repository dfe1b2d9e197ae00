//! Business relationships between ASes.
//!
//! Two views exist and both are needed:
//!
//! * [`Relationship`] — the relationship of a *neighbor as seen from a local
//!   AS* ("my customer", "my peer", …). This is what routing policy and
//!   decision classification reason about.
//! * [`EdgeRel`] — the label on an undirected edge of the AS graph in
//!   canonical orientation, as found in CAIDA-style topology files.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Relationship of a neighbor from the local AS's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// The neighbor pays the local AS for transit (revenue).
    Customer,
    /// Same organization; routes are exchanged as if internal.
    Sibling,
    /// Settlement-free exchange of customer routes.
    Peer,
    /// The local AS pays the neighbor for transit (cost).
    Provider,
}

impl Relationship {
    /// Gao–Rexford preference rank: lower is preferred (cheaper).
    ///
    /// Sibling routes are ranked alongside customer routes. That is the
    /// classification's convention: the paper (§4.2) marks decisions routed
    /// via a sibling as satisfying the *Best* condition, and organizations
    /// do not charge themselves. The routing engine ranks a route learned
    /// from a sibling by the tier it had at the sibling instead (customer,
    /// peer or provider), so an organization routes as one network.
    pub fn rank(self) -> u8 {
        match self {
            Relationship::Customer | Relationship::Sibling => 0,
            Relationship::Peer => 1,
            Relationship::Provider => 2,
        }
    }

    /// The same relationship seen from the other side of the link.
    pub fn reverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
            Relationship::Sibling => Relationship::Sibling,
        }
    }

    /// Gao–Rexford export rule: may a route of tier `self` be exported to a
    /// neighbor with relationship `to`?
    ///
    /// Customer routes go to everyone; peer and provider routes go only to
    /// customers and siblings (the same network). The routing engine asks
    /// this of a route's tier, which for a route learned from a sibling is
    /// the tier it had at the sibling; `Sibling` as `self` reads as the
    /// customer tier, the one a route the sibling originated carries.
    pub fn exportable_to(self, to: Relationship) -> bool {
        match self {
            Relationship::Customer | Relationship::Sibling => true,
            Relationship::Peer | Relationship::Provider => {
                matches!(to, Relationship::Customer | Relationship::Sibling)
            }
        }
    }
}

impl fmt::Display for Relationship {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relationship::Customer => "customer",
            Relationship::Sibling => "sibling",
            Relationship::Peer => "peer",
            Relationship::Provider => "provider",
        })
    }
}

/// Label on an AS-graph edge `(a, b)` in canonical orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EdgeRel {
    /// `a` is a customer of `b` (CAIDA "-1" with a listed first).
    CustomerToProvider,
    /// Settlement-free peering (CAIDA "0").
    PeerToPeer,
    /// Same organization (CAIDA "1" in sibling-annotated files).
    SiblingToSibling,
}

impl EdgeRel {
    /// Relationship of `b` as seen from `a`, given this edge label on `(a,b)`.
    pub fn from_a(self) -> Relationship {
        match self {
            EdgeRel::CustomerToProvider => Relationship::Provider,
            EdgeRel::PeerToPeer => Relationship::Peer,
            EdgeRel::SiblingToSibling => Relationship::Sibling,
        }
    }

    /// Relationship of `a` as seen from `b`.
    pub fn from_b(self) -> Relationship {
        self.from_a().reverse()
    }

    /// The label of the reversed edge `(b, a)`.
    pub fn flipped(self) -> (EdgeRel, bool) {
        match self {
            EdgeRel::CustomerToProvider => (EdgeRel::CustomerToProvider, true),
            other => (other, false),
        }
    }

    /// CAIDA serial-1 numeric code (`-1` c2p, `0` p2p, `1` sibling).
    pub fn caida_code(self) -> i8 {
        match self {
            EdgeRel::CustomerToProvider => -1,
            EdgeRel::PeerToPeer => 0,
            EdgeRel::SiblingToSibling => 1,
        }
    }

    /// Parses a CAIDA serial-1 numeric code.
    pub fn from_caida_code(code: i8) -> Option<EdgeRel> {
        match code {
            -1 => Some(EdgeRel::CustomerToProvider),
            0 => Some(EdgeRel::PeerToPeer),
            1 => Some(EdgeRel::SiblingToSibling),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_prefers_customer_routes() {
        assert!(Relationship::Customer.rank() < Relationship::Peer.rank());
        assert!(Relationship::Peer.rank() < Relationship::Provider.rank());
        assert_eq!(Relationship::Sibling.rank(), Relationship::Customer.rank());
    }

    #[test]
    fn reverse_is_involutive() {
        for r in [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
            Relationship::Sibling,
        ] {
            assert_eq!(r.reverse().reverse(), r);
        }
    }

    #[test]
    fn gao_rexford_export_matrix() {
        use Relationship::*;
        // Customer routes are exported to everyone.
        for to in [Customer, Peer, Provider, Sibling] {
            assert!(Customer.exportable_to(to), "customer route to {to}");
        }
        // Peer/provider routes only to customers and siblings.
        for from in [Peer, Provider] {
            assert!(from.exportable_to(Customer));
            assert!(from.exportable_to(Sibling));
            assert!(!from.exportable_to(Peer));
            assert!(!from.exportable_to(Provider));
        }
    }

    #[test]
    fn edge_rel_views_are_consistent() {
        let e = EdgeRel::CustomerToProvider;
        assert_eq!(e.from_a(), Relationship::Provider); // a pays b
        assert_eq!(e.from_b(), Relationship::Customer);
        assert_eq!(EdgeRel::PeerToPeer.from_a(), Relationship::Peer);
        assert_eq!(EdgeRel::SiblingToSibling.from_b(), Relationship::Sibling);
    }

    #[test]
    fn caida_codes_roundtrip() {
        for e in [
            EdgeRel::CustomerToProvider,
            EdgeRel::PeerToPeer,
            EdgeRel::SiblingToSibling,
        ] {
            assert_eq!(EdgeRel::from_caida_code(e.caida_code()), Some(e));
        }
        assert_eq!(EdgeRel::from_caida_code(7), None);
    }
}
