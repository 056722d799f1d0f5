//! Key Distribution Service (KDS) and secure DEK caching for SHIELD.
//!
//! The paper integrates with SSToolkit, an external decentralized KDS that
//! issues each Data Encryption Key (DEK) under a unique identifier and
//! enforces server authorization (§5.2, §5.4, §6.1). This crate reproduces
//! that contract in-process:
//!
//! * [`Kds`] — the service trait: generate a fresh DEK, fetch an existing
//!   DEK by [`DekId`], authorize/revoke servers.
//! * [`LocalKds`] — a single-node KDS with configurable generation/fetch
//!   latency (the paper measures ~2750 µs per issued key) and a pluggable
//!   [`ProvisioningPolicy`] including the one-time provisioning safeguard.
//! * [`ReplicatedKds`] — a decentralized ensemble of replicas with failure
//!   injection, modeling the high-availability requirement of §5.2.
//! * [`SecureDekCache`] — the on-disk DEK cache of §5.2: entries wrapped
//!   with a PBKDF2(passkey)-derived key and authenticated with HMAC-SHA-256.
//!   The passkey is never persisted; the cache is shared by instances on the
//!   same server and pruned when files (and thus their DEKs) die.
//! * [`DekResolver`] — cache-in-front-of-KDS composition used by the engine:
//!   `resolve` consults the cache first and only then pays the network trip.

pub mod cache;
pub mod local;
pub mod replicated;
pub mod resolver;

use std::fmt;

pub use cache::{CacheError, SecureDekCache};
pub use local::{KdsConfig, LocalKds, ProvisioningPolicy};
pub use replicated::ReplicatedKds;
pub use resolver::{DekResolver, ResolverError, ResolverStats, RetryPolicy};

use shield_crypto::{Algorithm, Dek, DekId};

/// Identity of a server (compute node, storage node, compaction worker…)
/// in the eyes of the KDS.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// Errors returned by KDS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdsError {
    /// The requesting server is not authorized.
    Unauthorized(ServerId),
    /// No DEK with this identifier exists (or it was revoked).
    UnknownDek(DekId),
    /// One-time provisioning: this DEK has already been handed out.
    AlreadyProvisioned(DekId),
    /// The service (or every replica) is unavailable.
    Unavailable(String),
}

impl fmt::Display for KdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KdsError::Unauthorized(s) => write!(f, "{s} is not authorized"),
            KdsError::UnknownDek(id) => write!(f, "unknown DEK {id}"),
            KdsError::AlreadyProvisioned(id) => {
                write!(f, "DEK {id} already provisioned (one-time policy)")
            }
            KdsError::Unavailable(m) => write!(f, "KDS unavailable: {m}"),
        }
    }
}

impl std::error::Error for KdsError {}

impl KdsError {
    /// Whether retrying the same request could succeed.
    ///
    /// Only [`KdsError::Unavailable`] is transient (a replica outage or a
    /// timed-out round trip); authorization and provisioning denials are
    /// policy decisions that retrying cannot change, and an unknown DEK-ID
    /// stays unknown.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, KdsError::Unavailable(_))
    }
}

/// Result alias for KDS operations.
pub type KdsResult<T> = Result<T, KdsError>;

/// Counters describing KDS traffic, used by the evaluation harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KdsStats {
    /// DEKs generated.
    pub generated: u64,
    /// DEK fetch requests served.
    pub fetched: u64,
    /// Requests denied (authorization or provisioning policy).
    pub denied: u64,
    /// Failover events (requests re-routed past a down replica). Always
    /// zero for single-node implementations.
    pub failovers: u64,
}

/// The Key Distribution Service contract (paper §5.2):
/// decentralized-capable, DEK-ID addressed, authorization-enforcing.
pub trait Kds: Send + Sync {
    /// Issues a fresh DEK for `algorithm` to `requester`.
    fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek>;
    /// Resolves a DEK-ID (read from file metadata) to key material.
    fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek>;
    /// Deletes a DEK, e.g. when the file it protected was compacted away.
    fn revoke_dek(&self, id: DekId) -> KdsResult<()>;
    /// Grants `server` the right to request DEKs.
    fn authorize_server(&self, server: ServerId);
    /// Revokes `server`'s access (the breached-server response of §5.4).
    fn revoke_server(&self, server: ServerId);
    /// Traffic counters.
    fn stats(&self) -> KdsStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_id_display() {
        assert_eq!(ServerId(7).to_string(), "server-7");
    }

    #[test]
    fn error_display() {
        let e = KdsError::Unauthorized(ServerId(3));
        assert!(e.to_string().contains("server-3"));
        let e = KdsError::AlreadyProvisioned(DekId(1));
        assert!(e.to_string().contains("one-time"));
    }
}
