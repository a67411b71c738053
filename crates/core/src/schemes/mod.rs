//! The built-in release schemes.
//!
//! Each submodule is one self-contained [`ReleaseScheme`](crate::scheme::ReleaseScheme)
//! implementation; the [registry](crate::registry) wires them to their
//! string ids.  `conventional`, `basic` and `extended` reproduce the paper's
//! three mechanisms bit-identically to the pre-refactor hard-wired engine
//! (pinned by `tests/stats_equivalence.rs`).

pub mod basic;
pub mod conventional;
pub mod extended;

mod lus;

pub use basic::BasicScheme;
pub use conventional::ConventionalScheme;
pub use extended::ExtendedScheme;
