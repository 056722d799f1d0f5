//! A single-node KDS with configurable latency and provisioning policy.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use shield_crypto::{Algorithm, Dek, DekId};

use crate::{Kds, KdsError, KdsResult, KdsStats, ServerId};

/// How many times a DEK may be handed out (paper §5.4's second safeguard).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProvisioningPolicy {
    /// No limit — suitable for trusted monolithic deployments.
    #[default]
    Unlimited,
    /// Each server may fetch a given DEK at most once; the secure local
    /// cache makes re-fetches unnecessary for honest servers.
    OncePerServer,
    /// A DEK may be fetched at most once in total after generation. An
    /// attacker who learns a DEK-ID from plaintext metadata cannot replay
    /// the request once the legitimate consumer has it.
    OnceGlobal,
}

/// Configuration for [`LocalKds`].
#[derive(Clone, Debug)]
pub struct KdsConfig {
    /// Simulated time to generate and send a DEK. The paper measures
    /// SSToolkit at ~2750 µs per key (§6.3); tests default to zero.
    pub generation_latency: Duration,
    /// Simulated time to serve a fetch request.
    pub fetch_latency: Duration,
    /// Provisioning policy.
    pub provisioning: ProvisioningPolicy,
    /// When true, unknown servers are implicitly authorized (convenient
    /// default for monolithic tests); when false, only servers passed to
    /// [`Kds::authorize_server`] may issue requests.
    pub open_enrollment: bool,
}

impl Default for KdsConfig {
    fn default() -> Self {
        KdsConfig {
            generation_latency: Duration::ZERO,
            fetch_latency: Duration::ZERO,
            provisioning: ProvisioningPolicy::Unlimited,
            open_enrollment: true,
        }
    }
}

impl KdsConfig {
    /// The profile of the paper's SSToolkit deployment: ~2750 µs per
    /// generated key, ~500 µs (one intra-DC round trip) per fetch.
    #[must_use]
    pub fn sstoolkit_like() -> Self {
        KdsConfig {
            generation_latency: Duration::from_micros(2750),
            fetch_latency: Duration::from_micros(500),
            provisioning: ProvisioningPolicy::Unlimited,
            open_enrollment: true,
        }
    }
}

#[derive(Default)]
struct Store {
    keys: HashMap<DekId, Dek>,
    authorized: HashSet<ServerId>,
    revoked: HashSet<ServerId>,
    /// (dek, server) pairs already provisioned, for the one-time policies.
    provisioned: HashSet<(DekId, ServerId)>,
    /// DEKs fetched at least once, for `OnceGlobal`.
    fetched_once: HashSet<DekId>,
}

/// An in-process KDS standing in for the paper's SSToolkit deployment.
pub struct LocalKds {
    config: Mutex<KdsConfig>,
    store: Mutex<Store>,
    generated: AtomicU64,
    fetched: AtomicU64,
    denied: AtomicU64,
}

impl Default for LocalKds {
    fn default() -> Self {
        Self::new(KdsConfig::default())
    }
}

impl LocalKds {
    /// Creates a KDS with the given configuration.
    #[must_use]
    pub fn new(config: KdsConfig) -> Self {
        LocalKds {
            config: Mutex::new(config),
            store: Mutex::new(Store::default()),
            generated: AtomicU64::new(0),
            fetched: AtomicU64::new(0),
            denied: AtomicU64::new(0),
        }
    }

    /// Number of live (non-revoked) DEKs currently stored.
    #[must_use]
    pub fn live_dek_count(&self) -> usize {
        self.store.lock().keys.len()
    }

    /// True if the DEK with this id is still stored.
    #[must_use]
    pub fn has_dek(&self, id: DekId) -> bool {
        self.store.lock().keys.contains_key(&id)
    }

    fn check_authorized(&self, store: &Store, server: ServerId) -> KdsResult<()> {
        if store.revoked.contains(&server) {
            return Err(KdsError::Unauthorized(server));
        }
        let open = self.config.lock().open_enrollment;
        if open || store.authorized.contains(&server) {
            Ok(())
        } else {
            Err(KdsError::Unauthorized(server))
        }
    }
}

impl Kds for LocalKds {
    fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek> {
        let latency = self.config.lock().generation_latency;
        {
            let mut store = self.store.lock();
            self.check_authorized(&store, requester).inspect_err(|_| {
                self.denied.fetch_add(1, Ordering::Relaxed);
            })?;
            let dek = Dek::generate(algorithm);
            store.keys.insert(dek.id(), dek.clone());
            // Generation counts as the first provisioning to the requester.
            store.provisioned.insert((dek.id(), requester));
            self.generated.fetch_add(1, Ordering::Relaxed);
            drop(store);
            if !latency.is_zero() {
                std::thread::sleep(latency);
            }
            Ok(dek)
        }
    }

    fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek> {
        let (latency, policy) = {
            let cfg = self.config.lock();
            (cfg.fetch_latency, cfg.provisioning)
        };
        let dek = {
            let mut store = self.store.lock();
            self.check_authorized(&store, requester).inspect_err(|_| {
                self.denied.fetch_add(1, Ordering::Relaxed);
            })?;
            let Some(dek) = store.keys.get(&id).cloned() else {
                self.denied.fetch_add(1, Ordering::Relaxed);
                return Err(KdsError::UnknownDek(id));
            };
            match policy {
                ProvisioningPolicy::Unlimited => {}
                ProvisioningPolicy::OncePerServer => {
                    if !store.provisioned.insert((id, requester)) {
                        self.denied.fetch_add(1, Ordering::Relaxed);
                        return Err(KdsError::AlreadyProvisioned(id));
                    }
                }
                ProvisioningPolicy::OnceGlobal => {
                    if store.fetched_once.contains(&id) {
                        self.denied.fetch_add(1, Ordering::Relaxed);
                        return Err(KdsError::AlreadyProvisioned(id));
                    }
                    store.fetched_once.insert(id);
                }
            }
            self.fetched.fetch_add(1, Ordering::Relaxed);
            dek
        };
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        Ok(dek)
    }

    fn revoke_dek(&self, id: DekId) -> KdsResult<()> {
        let mut store = self.store.lock();
        store
            .keys
            .remove(&id)
            .map(|_| ())
            .ok_or(KdsError::UnknownDek(id))
    }

    fn authorize_server(&self, server: ServerId) {
        let mut store = self.store.lock();
        store.revoked.remove(&server);
        store.authorized.insert(server);
    }

    fn revoke_server(&self, server: ServerId) {
        let mut store = self.store.lock();
        store.authorized.remove(&server);
        store.revoked.insert(server);
    }

    fn stats(&self) -> KdsStats {
        KdsStats {
            generated: self.generated.load(Ordering::Relaxed),
            fetched: self.fetched.load(Ordering::Relaxed),
            denied: self.denied.load(Ordering::Relaxed),
            failovers: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S1: ServerId = ServerId(1);
    const S2: ServerId = ServerId(2);

    #[test]
    fn generate_and_fetch() {
        let kds = LocalKds::default();
        let dek = kds.generate_dek(S1, Algorithm::Aes128Ctr).unwrap();
        let fetched = kds.fetch_dek(S2, dek.id()).unwrap();
        assert_eq!(fetched.key_bytes(), dek.key_bytes());
        assert_eq!(kds.stats().generated, 1);
        assert_eq!(kds.stats().fetched, 1);
    }

    #[test]
    fn unknown_dek_denied() {
        let kds = LocalKds::default();
        assert_eq!(
            kds.fetch_dek(S1, DekId(42)),
            Err(KdsError::UnknownDek(DekId(42)))
        );
        assert_eq!(kds.stats().denied, 1);
    }

    #[test]
    fn closed_enrollment_requires_authorization() {
        let kds = LocalKds::new(KdsConfig { open_enrollment: false, ..KdsConfig::default() });
        assert!(matches!(
            kds.generate_dek(S1, Algorithm::Aes128Ctr),
            Err(KdsError::Unauthorized(_))
        ));
        kds.authorize_server(S1);
        assert!(kds.generate_dek(S1, Algorithm::Aes128Ctr).is_ok());
    }

    #[test]
    fn revoked_server_locked_out() {
        let kds = LocalKds::default();
        let dek = kds.generate_dek(S1, Algorithm::Aes128Ctr).unwrap();
        kds.revoke_server(S2);
        assert_eq!(kds.fetch_dek(S2, dek.id()), Err(KdsError::Unauthorized(S2)));
        // Re-authorizing restores access.
        kds.authorize_server(S2);
        assert!(kds.fetch_dek(S2, dek.id()).is_ok());
    }

    #[test]
    fn once_per_server_policy() {
        let kds = LocalKds::new(KdsConfig {
            provisioning: ProvisioningPolicy::OncePerServer,
            ..KdsConfig::default()
        });
        let dek = kds.generate_dek(S1, Algorithm::Aes128Ctr).unwrap();
        // Generator already got it once; a re-fetch is denied.
        assert_eq!(
            kds.fetch_dek(S1, dek.id()),
            Err(KdsError::AlreadyProvisioned(dek.id()))
        );
        // A different server gets exactly one shot.
        assert!(kds.fetch_dek(S2, dek.id()).is_ok());
        assert_eq!(
            kds.fetch_dek(S2, dek.id()),
            Err(KdsError::AlreadyProvisioned(dek.id()))
        );
    }

    #[test]
    fn once_global_policy() {
        let kds = LocalKds::new(KdsConfig {
            provisioning: ProvisioningPolicy::OnceGlobal,
            ..KdsConfig::default()
        });
        let dek = kds.generate_dek(S1, Algorithm::Aes128Ctr).unwrap();
        assert!(kds.fetch_dek(S2, dek.id()).is_ok());
        // Any further fetch, by anyone, is denied — the attacker-replay case.
        assert_eq!(
            kds.fetch_dek(ServerId(99), dek.id()),
            Err(KdsError::AlreadyProvisioned(dek.id()))
        );
    }

    #[test]
    fn revoke_dek_removes_it() {
        let kds = LocalKds::default();
        let dek = kds.generate_dek(S1, Algorithm::Aes128Ctr).unwrap();
        assert!(kds.has_dek(dek.id()));
        kds.revoke_dek(dek.id()).unwrap();
        assert!(!kds.has_dek(dek.id()));
        assert_eq!(kds.fetch_dek(S1, dek.id()), Err(KdsError::UnknownDek(dek.id())));
        assert_eq!(kds.revoke_dek(dek.id()), Err(KdsError::UnknownDek(dek.id())));
    }

    #[test]
    fn generation_latency_is_charged() {
        let kds = LocalKds::new(KdsConfig {
            generation_latency: Duration::from_millis(5),
            ..KdsConfig::default()
        });
        let start = std::time::Instant::now();
        kds.generate_dek(S1, Algorithm::Aes128Ctr).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
