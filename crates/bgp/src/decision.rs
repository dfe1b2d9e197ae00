//! The BGP decision process.
//!
//! The comparison order mirrors the Cisco best-path algorithm subset the
//! paper reasons about (§3.2, Table 2):
//!
//! 1. highest local preference (relationship tiers + policy deltas),
//! 2. shortest AS-path length (an AS-set counts as one hop),
//! 3. lowest IGP cost to the exit ("intradomain tie-breaker" / hot potato),
//! 4. oldest route,
//! 5. lowest neighbor ASN (router-id proxy), then entry city.
//!
//! Origin code and MED are skipped: all synthetic routes share them, just
//! as the paper's analysis never needs them.

use crate::route::Route;
use ir_types::{Asn, CityId};
use std::cmp::Ordering;

/// Which decision step selected a route over the runner-up, in decision
/// order: the ground truth the paper's magnet experiment (§3.2) infers from
/// the outside, checked against the inferences by `ir-experiments::exp_table2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DecisionStep {
    /// Route won on local preference.
    LocalPref,
    /// Tied on pref; won on AS-path length.
    PathLength,
    /// Tied further; won on IGP cost.
    IgpCost,
    /// Tied further; won on route age.
    RouteAge,
    /// Fell through to the neighbor-ASN (router-id) tie-breaker.
    RouterId,
    /// Only one candidate existed.
    OnlyRoute,
}

/// What [`decide`] reads, in order; both [`Route`] and the engines' compact
/// rows project into it. `router_id` (neighbor ASN, `None` for a local
/// route, then entry city) is called only once the first four steps tie.
pub struct DecisionKey<R> {
    pub local_pref: i32,
    pub path_len: usize,
    pub igp_cost: u32,
    pub age: u64,
    pub router_id: R,
}

/// The decision process: `Ordering::Less` when `a` is **better** than `b`,
/// and the first step at which the two differ (`RouterId` once the first
/// four tie, whatever the router id says). The only place the order lives;
/// inlined, as the engine's selection calls it once per candidate.
#[inline]
pub fn decide<R: Fn() -> (Option<Asn>, Option<CityId>)>(
    a: &DecisionKey<R>,
    b: &DecisionKey<R>,
) -> (Ordering, DecisionStep) {
    use DecisionStep::*;
    let differs = |o: Ordering, step| o.is_ne().then_some((o, step));
    // Higher local preference, shorter path, lower IGP cost, older route;
    // then lower neighbor ASN (local routes first), then entry city.
    differs(b.local_pref.cmp(&a.local_pref), LocalPref)
        .or_else(|| differs(a.path_len.cmp(&b.path_len), PathLength))
        .or_else(|| differs(a.igp_cost.cmp(&b.igp_cost), IgpCost))
        .or_else(|| differs(a.age.cmp(&b.age), RouteAge))
        .unwrap_or_else(|| ((a.router_id)().cmp(&(b.router_id)()), RouterId))
}

/// A materialized route's decision key.
fn key(r: &Route) -> DecisionKey<impl Fn() -> (Option<Asn>, Option<CityId>) + '_> {
    DecisionKey {
        local_pref: r.local_pref,
        path_len: r.path.len(),
        igp_cost: r.igp_cost,
        age: r.age.0,
        router_id: || (r.learned_from, r.entry_city),
    }
}

/// Returns `Ordering::Less` when `a` is **better** than `b`.
pub fn compare(a: &Route, b: &Route) -> Ordering {
    decide(&key(a), &key(b)).0
}

/// One pass for the best candidate under [`decide`] (ties keep the earlier)
/// and the step that separates it from the runner-up (`OnlyRoute` alone):
/// the deepest step at which it beats any other, as no other agrees with it
/// longer than the runner-up — which, for a new best, is the old best.
pub(crate) fn rank<T, R: Fn() -> (Option<Asn>, Option<CityId>)>(
    candidates: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> DecisionKey<R>,
) -> Option<(T, DecisionStep)> {
    let mut candidates = candidates.into_iter();
    let mut best = candidates.next()?;
    let mut step = None;
    for c in candidates {
        let (order, s) = decide(&key(&c), &key(&best));
        if order.is_lt() {
            (best, step) = (c, Some(s));
        } else {
            step = step.max(Some(s));
        }
    }
    Some((best, step.unwrap_or(DecisionStep::OnlyRoute)))
}

/// Picks the best route among candidates; also reports which decision step
/// separated it from the runner-up.
pub fn select(candidates: &[Route]) -> Option<(&Route, DecisionStep)> {
    rank(candidates, |r| key(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use ir_types::{Asn, CityId, Prefix, Relationship, Timestamp};

    fn route(pref: i32, hops: &[u32], igp: u32, age: u64, from: u32) -> Route {
        let mut path = AsPath::origin(Asn(hops[hops.len() - 1]));
        for h in hops[..hops.len() - 1].iter().rev() {
            path = path.prepend(Asn(*h));
        }
        Route {
            prefix: "10.0.0.0/24".parse::<Prefix>().unwrap(),
            path,
            learned_from: Some(Asn(from)),
            entry_city: Some(CityId(0)),
            rel: Some(Relationship::Peer),
            local_pref: pref,
            igp_cost: igp,
            age: Timestamp(age),
        }
    }

    #[test]
    fn local_pref_dominates_shorter_path() {
        let a = route(300, &[1, 2, 3, 4], 9, 9, 9);
        let b = route(200, &[1, 2], 1, 1, 1);
        assert_eq!(compare(&a, &b), Ordering::Less);
        let cands = [a.clone(), b];
        let (best, step) = select(&cands).unwrap();
        assert_eq!(best, &a);
        assert_eq!(step, DecisionStep::LocalPref);
    }

    #[test]
    fn path_length_then_igp_then_age_then_routerid() {
        let long = route(200, &[1, 2, 3], 1, 1, 1);
        let short = route(200, &[1, 2], 9, 9, 9);
        let cands = [long, short];
        assert_eq!(select(&cands).unwrap().1, DecisionStep::PathLength);

        let cheap = route(200, &[1, 2], 1, 9, 9);
        let costly = route(200, &[1, 2], 5, 1, 1);
        let cands = [costly, cheap.clone()];
        let (best, step) = select(&cands).unwrap();
        assert_eq!((best, step), (&cheap, DecisionStep::IgpCost));

        let old = route(200, &[1, 2], 5, 1, 9);
        let new = route(200, &[1, 2], 5, 2, 1);
        let cands = [new, old.clone()];
        let sel = select(&cands).unwrap();
        assert_eq!(sel.0, &old);
        assert_eq!(sel.1, DecisionStep::RouteAge);

        let lo = route(200, &[1, 2], 5, 1, 3);
        let hi = route(200, &[9, 2], 5, 1, 9);
        let cands = [hi, lo.clone()];
        let sel = select(&cands).unwrap();
        assert_eq!(sel.0, &lo);
        assert_eq!(sel.1, DecisionStep::RouterId);

        // Two sessions to the same neighbor: the entry city decides.
        let mut far = lo.clone();
        far.entry_city = Some(CityId(4));
        let cands = [far, lo.clone()];
        assert_eq!(select(&cands).unwrap(), (&lo, DecisionStep::RouterId));
    }

    #[test]
    fn single_candidate_is_only_route() {
        let r = route(100, &[1], 1, 1, 1);
        assert_eq!(
            select(std::slice::from_ref(&r)).unwrap().1,
            DecisionStep::OnlyRoute
        );
        assert!(select(&[]).is_none());
    }

    #[test]
    fn comparison_is_a_total_order() {
        let rs = [
            route(300, &[1, 2], 1, 1, 1),
            route(200, &[1, 2], 1, 1, 1),
            route(200, &[1, 2, 3], 1, 1, 1),
            route(200, &[1, 2], 2, 1, 1),
            route(200, &[1, 2], 1, 5, 1),
            route(200, &[1, 2], 1, 1, 7),
        ];
        // Antisymmetry + transitivity smoke check via sort stability.
        let mut sorted = rs.to_vec();
        sorted.sort_by(compare);
        for w in sorted.windows(2) {
            assert_ne!(compare(&w[0], &w[1]), Ordering::Greater);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::path::AsPath;
    use ir_types::{Asn, CityId, Prefix, Relationship, Timestamp};
    use proptest::prelude::*;

    prop_compose! {
        // Narrow ranges, so candidates often tie deep into the order.
        fn arb_route()(
            pref in -1i32..2,
            hops in 1usize..4,
            igp in 0u32..3,
            age in 0u64..3,
            from in proptest::option::of(1u32..4),
            city in proptest::option::of(0u16..3),
        ) -> Route {
            let mut path = AsPath::origin(Asn(9_999));
            for h in 0..hops.saturating_sub(1) {
                path = path.prepend(Asn(100 + h as u32));
            }
            Route {
                prefix: "10.0.0.0/24".parse::<Prefix>().unwrap(),
                path,
                learned_from: from.map(Asn),
                entry_city: city.map(CityId),
                rel: Some(Relationship::Peer),
                local_pref: pref,
                igp_cost: igp,
                age: Timestamp(age),
            }
        }
    }

    proptest! {
        /// `compare` is a strict weak ordering usable by `sort_by`:
        /// antisymmetric and transitive over arbitrary routes.
        #[test]
        fn compare_is_consistent(a in arb_route(), b in arb_route(), c in arb_route()) {
            use Ordering::*;
            // Antisymmetry.
            match compare(&a, &b) {
                Less => prop_assert_eq!(compare(&b, &a), Greater),
                Greater => prop_assert_eq!(compare(&b, &a), Less),
                Equal => prop_assert_eq!(compare(&b, &a), Equal),
            }
            // Transitivity (≤ chains).
            if compare(&a, &b) != Greater && compare(&b, &c) != Greater {
                prop_assert_ne!(compare(&a, &c), Greater);
            }
        }

        /// `select` always returns the minimum under `compare`, and the
        /// reported decision step is the first attribute that separates it
        /// from the true runner-up (the minimum of the other candidates).
        #[test]
        fn select_returns_the_minimum(routes in proptest::collection::vec(arb_route(), 1..8)) {
            let (best, step) = select(&routes).expect("non-empty");
            for r in &routes {
                prop_assert_ne!(compare(r, best), Ordering::Less, "{:?} beats selected", r);
            }
            let mut rest = routes.clone();
            rest.remove(routes.iter().position(|r| std::ptr::eq(r, best)).unwrap());
            let expected = match rest.iter().min_by(|a, b| compare(a, b)) {
                None => DecisionStep::OnlyRoute,
                Some(u) if u.local_pref != best.local_pref => DecisionStep::LocalPref,
                Some(u) if u.path.len() != best.path.len() => DecisionStep::PathLength,
                Some(u) if u.igp_cost != best.igp_cost => DecisionStep::IgpCost,
                Some(u) if u.age != best.age => DecisionStep::RouteAge,
                Some(_) => DecisionStep::RouterId,
            };
            prop_assert_eq!(step, expected);
        }
    }
}
