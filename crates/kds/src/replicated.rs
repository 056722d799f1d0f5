//! A decentralized KDS ensemble: several replicas over one key store.
//!
//! Paper §5.2 requires the KDS to be "decentralized … for high
//! availability"; §5.4 warns that a centralized mapping service "could
//! become a single point of failure". [`ReplicatedKds`] models the property
//! that matters to SHIELD: requests succeed as long as *any* replica is up,
//! and per-replica outages only add failover attempts, never data loss.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use shield_crypto::{Algorithm, Dek, DekId};

use crate::{Kds, KdsConfig, KdsError, KdsResult, KdsStats, LocalKds, ServerId};

struct Replica {
    available: AtomicBool,
}

/// A KDS made of `n` replicas sharing replicated state.
///
/// Since all replicas answer from the same logical key store, this
/// implementation keeps the store in the first replica and treats the
/// others as request endpoints: an unavailable endpoint forces a failover,
/// modeled as one extra `fetch_latency` sleep per failed attempt.
pub struct ReplicatedKds {
    /// The authoritative store (replica state is logically replicated).
    primary: Arc<LocalKds>,
    endpoints: Vec<Replica>,
    failovers: AtomicU64,
    next: AtomicU64,
}

impl ReplicatedKds {
    /// Creates an ensemble of `replicas` endpoints with a shared config.
    ///
    /// # Panics
    /// Panics if `replicas == 0`.
    #[must_use]
    pub fn new(replicas: usize, config: KdsConfig) -> Self {
        assert!(replicas > 0, "need at least one replica");
        let endpoints = (0..replicas)
            .map(|_| Replica { available: AtomicBool::new(true) })
            .collect();
        ReplicatedKds {
            primary: Arc::new(LocalKds::new(config)),
            endpoints,
            failovers: AtomicU64::new(0),
            next: AtomicU64::new(0),
        }
    }

    /// Marks replica `index` as down (requests to it fail over).
    /// An out-of-range index is ignored: fault-injection scripts may target
    /// a larger ensemble than actually deployed.
    pub fn fail_replica(&self, index: usize) {
        if let Some(replica) = self.endpoints.get(index) {
            replica.available.store(false, Ordering::SeqCst);
        }
    }

    /// Brings replica `index` back up. Out-of-range indexes are ignored.
    pub fn recover_replica(&self, index: usize) {
        if let Some(replica) = self.endpoints.get(index) {
            replica.available.store(true, Ordering::SeqCst);
        }
    }

    /// Marks every replica as down: a total KDS outage.
    pub fn fail_all(&self) {
        for replica in &self.endpoints {
            replica.available.store(false, Ordering::SeqCst);
        }
    }

    /// Brings every replica back up.
    pub fn recover_all(&self) {
        for replica in &self.endpoints {
            replica.available.store(true, Ordering::SeqCst);
        }
    }

    /// Number of failover events observed so far.
    #[must_use]
    pub fn failover_count(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Picks an available endpoint round-robin, counting failovers for each
    /// unavailable endpoint skipped. Returns `None` if everything is down.
    fn pick_endpoint(&self) -> Option<usize> {
        let n = self.endpoints.len();
        let start = (self.next.fetch_add(1, Ordering::Relaxed) as usize) % n;
        for probe in 0..n {
            let i = (start + probe) % n;
            if self.endpoints[i].available.load(Ordering::SeqCst) {
                return Some(i);
            }
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    fn ensure_available(&self) -> KdsResult<()> {
        match self.pick_endpoint() {
            Some(_) => Ok(()),
            None => Err(KdsError::Unavailable("all replicas down".to_string())),
        }
    }
}

impl Kds for ReplicatedKds {
    fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek> {
        self.ensure_available()?;
        self.primary.generate_dek(requester, algorithm)
    }

    fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek> {
        self.ensure_available()?;
        self.primary.fetch_dek(requester, id)
    }

    fn revoke_dek(&self, id: DekId) -> KdsResult<()> {
        self.ensure_available()?;
        self.primary.revoke_dek(id)
    }

    fn authorize_server(&self, server: ServerId) {
        self.primary.authorize_server(server);
    }

    fn revoke_server(&self, server: ServerId) {
        self.primary.revoke_server(server);
    }

    fn stats(&self) -> KdsStats {
        KdsStats {
            failovers: self.failover_count(),
            ..self.primary.stats()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: ServerId = ServerId(1);

    /// Number of replicas currently marked available.
    fn available(kds: &ReplicatedKds) -> usize {
        kds.endpoints.iter().filter(|r| r.available.load(Ordering::SeqCst)).count()
    }

    #[test]
    fn survives_single_replica_failure() {
        let kds = ReplicatedKds::new(3, KdsConfig::default());
        let dek = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        kds.fail_replica(0);
        assert_eq!(available(&kds), 2);
        // Still serving.
        assert!(kds.fetch_dek(S, dek.id()).is_ok());
    }

    #[test]
    fn total_outage_reported() {
        let kds = ReplicatedKds::new(2, KdsConfig::default());
        let dek = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        kds.fail_replica(0);
        kds.fail_replica(1);
        assert!(matches!(
            kds.fetch_dek(S, dek.id()),
            Err(KdsError::Unavailable(_))
        ));
        kds.recover_replica(1);
        assert!(kds.fetch_dek(S, dek.id()).is_ok());
    }

    #[test]
    fn failovers_are_counted() {
        let kds = ReplicatedKds::new(2, KdsConfig::default());
        kds.fail_replica(0);
        for _ in 0..10 {
            let _ = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        }
        // Round-robin hits the dead endpoint about half the time.
        assert!(kds.failover_count() >= 3, "failovers {}", kds.failover_count());
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ReplicatedKds::new(0, KdsConfig::default());
    }

    #[test]
    fn out_of_range_fail_and_recover_are_noops() {
        let kds = ReplicatedKds::new(2, KdsConfig::default());
        // Indexes past the ensemble must not panic and must not change state.
        kds.fail_replica(7);
        kds.recover_replica(100);
        assert_eq!(available(&kds), 2);
        assert!(kds.generate_dek(S, Algorithm::Aes128Ctr).is_ok());
    }

    #[test]
    fn total_outage_is_unavailable_for_every_operation() {
        let kds = ReplicatedKds::new(3, KdsConfig::default());
        let dek = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        kds.fail_all();
        assert_eq!(available(&kds), 0);
        assert!(matches!(
            kds.generate_dek(S, Algorithm::Aes128Ctr),
            Err(KdsError::Unavailable(_))
        ));
        assert!(matches!(kds.fetch_dek(S, dek.id()), Err(KdsError::Unavailable(_))));
        assert!(matches!(kds.revoke_dek(dek.id()), Err(KdsError::Unavailable(_))));
        // Outage errors are the retryable kind.
        assert!(kds.fetch_dek(S, dek.id()).unwrap_err().is_retryable());
        kds.recover_all();
        assert_eq!(available(&kds), 3);
        assert!(kds.fetch_dek(S, dek.id()).is_ok());
    }

    #[test]
    fn failovers_surface_in_stats() {
        let kds = ReplicatedKds::new(2, KdsConfig::default());
        kds.fail_replica(0);
        for _ in 0..10 {
            let _ = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        }
        assert_eq!(kds.stats().failovers, kds.failover_count());
        assert!(kds.stats().failovers >= 3);
    }
}
