//! The release-scheme registry: the single source of truth for which
//! policies exist, what they are called, and how to construct them.
//!
//! Every layer above the core — the experiment engine, `Scenario` files,
//! the `earlyreg-exp` CLI, the `earlyreg-serve` JSON API — enumerates
//! policies from here instead of hard-coding a list, so registering a new
//! scheme in this one table makes it reachable everywhere.  The table holds
//! exactly the paper's three schemes, which the figures plot in
//! [`PAPER_POLICIES`] order.
//!
//! Registry ids flow verbatim into experiment cache keys (a policy
//! serializes as its id string), so **adding** a scheme never invalidates
//! cached points — new ids extend the keyspace.  Renaming or reordering
//! existing entries does (that warrants a `CACHE_VERSION` bump, as the
//! variant-name → id migration itself did), and additionally breaks
//! `ReleasePolicy`'s derived ordering; append only.

use crate::scheme::ReleaseScheme;
use crate::schemes::{BasicScheme, ConventionalScheme, ExtendedScheme};
use crate::types::{ReleasePolicy, RenameConfig};

/// Constructor signature of a registered scheme.
pub type SchemeBuilder = fn(&RenameConfig) -> Box<dyn ReleaseScheme>;

/// Everything the world needs to know about one registered scheme.
pub struct PolicyDescriptor {
    /// The policy handle (its slot must equal the descriptor's position).
    pub policy: ReleasePolicy,
    /// Stable string id: reports, cache keys, scenario files, the JSON API.
    pub id: &'static str,
    /// Additional accepted spellings for [`parse`].
    pub aliases: &'static [&'static str],
    /// One-line description (CLI `list`, `GET /experiments`).
    pub title: &'static str,
    /// Construct the scheme.
    pub build: SchemeBuilder,
}

static DESCRIPTORS: [PolicyDescriptor; 3] = [
    PolicyDescriptor {
        policy: ReleasePolicy::Conventional,
        id: "conv",
        aliases: &["conventional"],
        title: "conventional release at redefinition commit (paper Section 2)",
        build: |_| Box::new(ConventionalScheme),
    },
    PolicyDescriptor {
        policy: ReleasePolicy::Basic,
        id: "basic",
        aliases: &[],
        title: "basic early release via the Last-Uses Table (paper Section 3)",
        build: |_| Box::new(BasicScheme::new()),
    },
    PolicyDescriptor {
        policy: ReleasePolicy::Extended,
        id: "extended",
        aliases: &["ext"],
        title: "extended early release with the Release Queue (paper Section 4)",
        build: |config| Box::new(ExtendedScheme::new(config)),
    },
];

/// The paper's canonical comparison set (Figures 10 and 11), in plot order.
pub const PAPER_POLICIES: [ReleasePolicy; 3] = [
    ReleasePolicy::Conventional,
    ReleasePolicy::Basic,
    ReleasePolicy::Extended,
];

/// All registered descriptors, in [`ReleasePolicy`] order.
pub fn descriptors() -> &'static [PolicyDescriptor] {
    &DESCRIPTORS
}

/// All registered policies, in order.
pub fn registered() -> impl Iterator<Item = ReleasePolicy> {
    DESCRIPTORS.iter().map(|d| d.policy)
}

/// The registered ids, in order (error messages, CLI/API listings).
pub fn ids() -> Vec<&'static str> {
    DESCRIPTORS.iter().map(|d| d.id).collect()
}

/// Look a policy up by exact id.
pub fn by_id(id: &str) -> Option<ReleasePolicy> {
    DESCRIPTORS.iter().find(|d| d.id == id).map(|d| d.policy)
}

/// Parse a policy name (id or alias, case-insensitive).  Unknown names fail
/// with a message that enumerates every registered id.
pub fn parse(name: &str) -> Result<ReleasePolicy, String> {
    let lower = name.to_ascii_lowercase();
    DESCRIPTORS
        .iter()
        .find(|d| d.id == lower || d.aliases.contains(&lower.as_str()))
        .map(|d| d.policy)
        .ok_or_else(|| format!("unknown policy '{name}' (registered: {})", ids().join(", ")))
}

/// Build the scheme for `policy`.
pub fn build(policy: ReleasePolicy, config: &RenameConfig) -> Box<dyn ReleaseScheme> {
    (policy.descriptor().build)(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_slots_match_policy_indices() {
        for (index, descriptor) in descriptors().iter().enumerate() {
            assert_eq!(descriptor.policy.index(), index, "{}", descriptor.id);
        }
    }

    #[test]
    fn ids_are_unique_and_parse_round_trips() {
        let ids = ids();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[i + 1..].contains(id), "duplicate id {id}");
            assert_eq!(parse(id).unwrap().label(), *id);
        }
        assert_eq!(parse("CONVENTIONAL").unwrap(), ReleasePolicy::Conventional);
        assert_eq!(parse("ext").unwrap(), ReleasePolicy::Extended);
    }

    #[test]
    fn unknown_policy_error_enumerates_registered_ids() {
        let error = parse("bogus").unwrap_err();
        for id in ids() {
            assert!(error.contains(id), "error must list '{id}': {error}");
        }
    }

    #[test]
    fn the_registry_holds_exactly_the_paper_policies() {
        assert_eq!(
            PAPER_POLICIES.map(|p| p.label()),
            ["conv", "basic", "extended"]
        );
        assert_eq!(registered().collect::<Vec<_>>(), PAPER_POLICIES);
    }

    #[test]
    fn every_scheme_builds_with_its_policy() {
        let config = RenameConfig::icpp02(ReleasePolicy::Extended, 48, 48);
        for descriptor in descriptors() {
            assert_eq!(
                build(descriptor.policy, &config).policy(),
                descriptor.policy,
                "{}",
                descriptor.id
            );
        }
    }
}
