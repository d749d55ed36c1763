//! The resolution model: TLD-zone delegation plus per-domain authoritative
//! behaviour.

use idnre_zonefile::{RecordType, Zone};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// What a domain's authoritative name server does with an A query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuthBehavior {
    /// Answers with this address.
    Answer(Ipv4Addr),
    /// Answers `REFUSED` — the misconfiguration the paper highlights
    /// ("e.g., DNS REFUSED error").
    Refuse,
    /// Answers `SERVFAIL`.
    ServFail,
    /// Never answers (the server exists but drops queries).
    Timeout,
    /// A lame delegation: the zone delegates to this server, but it is not
    /// actually authoritative for the domain and never produces an answer.
    /// Observationally identical to [`AuthBehavior::Timeout`] — the paper's
    /// crawler cannot tell the two apart either — but modelled explicitly
    /// so populations can declare *why* a name goes dark. A delegated
    /// domain with no configured behaviour defaults to this.
    Lame,
}

impl AuthBehavior {
    /// The terminal outcome an A query for a delegated name reaches when
    /// its authoritative server behaves like this. The one place the
    /// behaviour→outcome mapping lives: [`Resolver::resolve`] applies it
    /// after its delegation and behaviour-table lookups, and
    /// [`crate::crawl_host`] applies it to a record-derived host model.
    pub fn outcome(self) -> ResolutionOutcome {
        match self {
            AuthBehavior::Answer(ip) => ResolutionOutcome::Resolved(ip),
            AuthBehavior::Refuse => ResolutionOutcome::Refused,
            AuthBehavior::ServFail => ResolutionOutcome::ServFail,
            AuthBehavior::Timeout | AuthBehavior::Lame => ResolutionOutcome::Timeout,
        }
    }
}

/// Terminal outcome of resolving one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResolutionOutcome {
    /// An address was obtained.
    Resolved(Ipv4Addr),
    /// The TLD zone has no delegation for the name.
    NxDomain,
    /// The authoritative server refused the query.
    Refused,
    /// The authoritative server failed.
    ServFail,
    /// No response before the deadline.
    Timeout,
}

impl ResolutionOutcome {
    /// Whether an address was obtained.
    pub fn is_resolved(self) -> bool {
        matches!(self, ResolutionOutcome::Resolved(_))
    }
}

/// An iterative resolver over loaded TLD zones.
///
/// Delegations come from zone files (every registered domain in a TLD zone
/// carries NS records); what happens *below* the delegation is configured
/// per domain with [`AuthBehavior`]. A delegated domain with no configured
/// behaviour is a lame delegation ([`AuthBehavior::Lame`]): the query goes
/// unanswered, so it resolves to [`ResolutionOutcome::Timeout`].
#[derive(Debug, Clone, Default)]
pub struct Resolver {
    delegated: HashSet<String>,
    behaviors: HashMap<String, AuthBehavior>,
}

impl Resolver {
    /// Creates a resolver with no zones loaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the delegations (NS record owners) of a TLD zone.
    pub fn add_zone(&mut self, zone: &Zone) {
        let origin = zone.origin.to_string();
        for record in zone.records_of(RecordType::Ns) {
            let owner = record.owner.to_string();
            if owner != origin {
                self.delegated.insert(owner);
            }
        }
    }

    /// Sets the authoritative behaviour for a domain (implies delegation).
    pub fn set_behavior(&mut self, domain: &str, behavior: AuthBehavior) {
        let key = domain.to_ascii_lowercase();
        self.delegated.insert(key.clone());
        self.behaviors.insert(key, behavior);
    }

    /// Whether the name has a delegation in a loaded zone.
    pub fn is_delegated(&self, domain: &str) -> bool {
        self.delegated.contains(&domain.to_ascii_lowercase())
    }

    /// Serves one wire-format query, producing the wire-format response a
    /// sensor would capture — or `None` when the authoritative server times
    /// out (no packet at all).
    ///
    /// # Errors
    ///
    /// Returns `Some` response with rcode `FORMERR` on undecodable queries
    /// that still carry a readable header; fully garbled bytes yield `None`.
    pub fn serve_wire(&self, query_bytes: &[u8]) -> Option<Vec<u8>> {
        use crate::wire::{self, Message, Rcode};
        let query = match wire::decode(query_bytes) {
            Ok(message) if !message.questions.is_empty() => message,
            Ok(message) => {
                return Some(wire::encode(&Message::response_to(
                    &message,
                    Rcode::FormErr,
                )))
            }
            Err(_) => return None,
        };
        let name = query.questions[0].name.clone();
        let mut response = match self.resolve(&name) {
            ResolutionOutcome::Resolved(ip) => {
                let mut r = Message::response_to(&query, Rcode::NoError);
                r.answers.push(crate::wire::WireRecord::a(&name, 300, ip));
                r
            }
            ResolutionOutcome::NxDomain => Message::response_to(&query, Rcode::NxDomain),
            ResolutionOutcome::Refused => Message::response_to(&query, Rcode::Refused),
            ResolutionOutcome::ServFail => Message::response_to(&query, Rcode::ServFail),
            ResolutionOutcome::Timeout => return None,
        };
        response.recursion_desired = query.recursion_desired;
        Some(wire::encode(&response))
    }

    /// Resolves a name to its terminal outcome.
    pub fn resolve(&self, domain: &str) -> ResolutionOutcome {
        let key = domain.to_ascii_lowercase();
        if !self.delegated.contains(&key) {
            return ResolutionOutcome::NxDomain;
        }
        self.behaviors
            .get(&key)
            .copied()
            .unwrap_or(AuthBehavior::Lame)
            .outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_zonefile::parse_zone;

    fn resolver() -> Resolver {
        let zone = parse_zone(
            "com",
            "@ IN NS a.gtld-servers.net.\nexample IN NS ns1.example.com.\nlame IN NS ns1.lame.com.\n",
        )
        .unwrap();
        let mut r = Resolver::new();
        r.add_zone(&zone);
        r
    }

    #[test]
    fn undelegated_names_are_nxdomain() {
        assert_eq!(
            resolver().resolve("missing.com"),
            ResolutionOutcome::NxDomain
        );
    }

    #[test]
    fn apex_ns_records_are_not_delegations() {
        assert!(!resolver().is_delegated("com"));
    }

    #[test]
    fn lame_delegations_time_out() {
        // In the zone (NS present) but the child server never answers:
        // the implicit default for an unconfigured delegation...
        assert_eq!(resolver().resolve("lame.com"), ResolutionOutcome::Timeout);
        // ...and the explicit behaviour pin the same terminal outcome.
        let mut r = resolver();
        r.set_behavior("lame.com", AuthBehavior::Lame);
        assert_eq!(r.resolve("lame.com"), ResolutionOutcome::Timeout);
        // A lame server emits no packet at all on the wire.
        let query = crate::wire::encode(&crate::wire::Message::query(9, "lame.com"));
        assert!(r.serve_wire(&query).is_none());
    }

    #[test]
    fn behaviours_map_to_outcomes() {
        let mut r = resolver();
        let ip = Ipv4Addr::new(203, 0, 113, 5);
        r.set_behavior("example.com", AuthBehavior::Answer(ip));
        assert_eq!(r.resolve("EXAMPLE.com"), ResolutionOutcome::Resolved(ip));
        r.set_behavior("example.com", AuthBehavior::Refuse);
        assert_eq!(r.resolve("example.com"), ResolutionOutcome::Refused);
        r.set_behavior("example.com", AuthBehavior::ServFail);
        assert_eq!(r.resolve("example.com"), ResolutionOutcome::ServFail);
    }

    #[test]
    fn wire_round_trip_through_the_server() {
        use crate::wire::{self, Message, Rcode};
        let mut r = resolver();
        let ip = Ipv4Addr::new(203, 0, 113, 5);
        r.set_behavior("example.com", AuthBehavior::Answer(ip));

        let query = wire::encode(&Message::query(0xBEEF, "example.com"));
        let response = wire::decode(&r.serve_wire(&query).unwrap()).unwrap();
        assert_eq!(response.id, 0xBEEF);
        assert_eq!(response.rcode, Rcode::NoError);
        assert_eq!(response.answers[0].a_addr(), Some(ip));

        let nx = wire::encode(&Message::query(1, "missing.com"));
        let response = wire::decode(&r.serve_wire(&nx).unwrap()).unwrap();
        assert_eq!(response.rcode, Rcode::NxDomain);

        r.set_behavior("example.com", AuthBehavior::Refuse);
        let refused = wire::encode(&Message::query(2, "example.com"));
        let response = wire::decode(&r.serve_wire(&refused).unwrap()).unwrap();
        assert_eq!(response.rcode, Rcode::Refused);

        r.set_behavior("example.com", AuthBehavior::Timeout);
        let dropped = wire::encode(&Message::query(3, "example.com"));
        assert!(r.serve_wire(&dropped).is_none());

        // Garbage in, nothing out.
        assert!(r.serve_wire(&[0xFF; 4]).is_none());
    }

    #[test]
    fn set_behavior_implies_delegation() {
        let mut r = Resolver::new();
        r.set_behavior("solo.net", AuthBehavior::Refuse);
        assert!(r.is_delegated("solo.net"));
        assert_eq!(r.resolve("solo.net"), ResolutionOutcome::Refused);
    }
}
