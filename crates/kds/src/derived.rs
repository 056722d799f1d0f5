//! A hierarchical-derivation KDS (the "hierarchical derivation" policy of
//! paper §5.4): instead of storing every DEK, the service holds one master
//! key and *derives* each DEK from the DEK-ID with HKDF-style expansion.
//!
//! Properties relative to [`crate::LocalKds`]:
//!
//! * **stateless key material** — replicas need only the master key, so
//!   "decentralized" is trivial: every replica can answer every fetch;
//! * **no per-key storage** — revoking a single DEK requires a denylist
//!   (kept here), while rotating the *master* key invalidates everything;
//! * identical interface — SHIELD is agnostic to the policy as long as a
//!   DEK-ID resolves to a key (§5.4), which this demonstrates.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use shield_crypto::{Algorithm, Dek, DekId, HmacKey};

use crate::{Kds, KdsError, KdsResult, KdsStats, ServerId};

/// A KDS that derives DEKs from a master key: `DEK = HKDF(master, DEK-ID)`.
pub struct DerivedKds {
    /// The master key, expanded once; scrubbed when the service drops.
    master: HmacKey,
    state: Mutex<State>,
    generated: AtomicU64,
    fetched: AtomicU64,
    denied: AtomicU64,
}

#[derive(Default)]
struct State {
    /// Ids issued by `generate_dek`, with the algorithm each was issued
    /// for (fetches of underived ids are denied, so an attacker cannot
    /// mint valid DEK-IDs). This tiny map is the only replicated state.
    issued: HashMap<DekId, Algorithm>,
    /// Individually revoked DEKs.
    revoked_deks: HashSet<DekId>,
    revoked_servers: HashSet<ServerId>,
}

impl DerivedKds {
    /// Creates a service deriving from `master`.
    #[must_use]
    pub fn new(master: [u8; 32]) -> Self {
        DerivedKds {
            master: HmacKey::new(&master),
            state: Mutex::new(State::default()),
            generated: AtomicU64::new(0),
            fetched: AtomicU64::new(0),
            denied: AtomicU64::new(0),
        }
    }

    /// Creates a service with a random master key.
    #[must_use]
    pub fn random() -> Self {
        let mut master = [0u8; 32];
        shield_crypto::secure_random(&mut master);
        Self::new(master)
    }

    /// Derives the key material for `id` (deterministic in the master).
    fn derive(&self, id: DekId, algorithm: Algorithm) -> Dek {
        // HKDF-expand-like: one HMAC block is enough for ≤32-byte keys.
        let okm = self.master.mac(&[b"shield-dek", &id.to_bytes(), &[algorithm.tag()]]);
        Dek::from_parts(id, algorithm, okm[..algorithm.key_len()].to_vec())
    }

    fn check_server(&self, state: &State, server: ServerId) -> KdsResult<()> {
        if state.revoked_servers.contains(&server) {
            self.denied.fetch_add(1, Ordering::Relaxed);
            return Err(KdsError::Unauthorized(server));
        }
        Ok(())
    }
}

impl Kds for DerivedKds {
    fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek> {
        let mut state = self.state.lock();
        self.check_server(&state, requester)?;
        let id = DekId::random();
        state.issued.insert(id, algorithm);
        self.generated.fetch_add(1, Ordering::Relaxed);
        Ok(self.derive(id, algorithm))
    }

    fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek> {
        let state = self.state.lock();
        self.check_server(&state, requester)?;
        let Some(&algorithm) = state.issued.get(&id) else {
            self.denied.fetch_add(1, Ordering::Relaxed);
            return Err(KdsError::UnknownDek(id));
        };
        if state.revoked_deks.contains(&id) {
            self.denied.fetch_add(1, Ordering::Relaxed);
            return Err(KdsError::UnknownDek(id));
        }
        self.fetched.fetch_add(1, Ordering::Relaxed);
        Ok(self.derive(id, algorithm))
    }

    fn revoke_dek(&self, id: DekId) -> KdsResult<()> {
        let mut state = self.state.lock();
        if !state.issued.contains_key(&id) || !state.revoked_deks.insert(id) {
            return Err(KdsError::UnknownDek(id));
        }
        Ok(())
    }

    fn authorize_server(&self, server: ServerId) {
        self.state.lock().revoked_servers.remove(&server);
    }

    fn revoke_server(&self, server: ServerId) {
        self.state.lock().revoked_servers.insert(server);
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

impl DerivedKds {
    /// Fetches a DEK for an explicit algorithm (useful when a replica has
    /// the id but not yet the issued-set metadata; SHIELD's file headers
    /// carry the algorithm tag).
    pub fn fetch_dek_for(
        &self,
        requester: ServerId,
        id: DekId,
        algorithm: Algorithm,
    ) -> KdsResult<Dek> {
        {
            let state = self.state.lock();
            self.check_server(&state, requester)?;
            if !state.issued.contains_key(&id) || state.revoked_deks.contains(&id) {
                self.denied.fetch_add(1, Ordering::Relaxed);
                return Err(KdsError::UnknownDek(id));
            }
        }
        self.fetched.fetch_add(1, Ordering::Relaxed);
        Ok(self.derive(id, algorithm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: ServerId = ServerId(1);

    #[test]
    fn derivation_is_deterministic_and_unique() {
        let kds = DerivedKds::new([7u8; 32]);
        let a = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        let again = kds.fetch_dek(S, a.id()).unwrap();
        assert_eq!(a.key_bytes(), again.key_bytes());
        let b = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        assert_ne!(a.key_bytes(), b.key_bytes());
    }

    #[test]
    fn replicas_with_same_master_agree() {
        let master = [9u8; 32];
        let a = DerivedKds::new(master);
        let b = DerivedKds::new(master);
        let dek = a.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        // Replica b can serve the same id once it knows it was issued —
        // model replication of the (tiny) issued-set.
        b.state.lock().issued.insert(dek.id(), Algorithm::Aes128Ctr);
        let from_b = b.fetch_dek(S, dek.id()).unwrap();
        assert_eq!(dek.key_bytes(), from_b.key_bytes());
    }

    #[test]
    fn unissued_ids_are_rejected() {
        let kds = DerivedKds::random();
        // An attacker cannot mint a valid DEK-ID.
        assert!(matches!(
            kds.fetch_dek(S, DekId(12345)),
            Err(KdsError::UnknownDek(_))
        ));
        assert_eq!(kds.stats().denied, 1);
    }

    #[test]
    fn revocation_works_per_dek_and_per_server() {
        let kds = DerivedKds::random();
        let dek = kds.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        kds.revoke_dek(dek.id()).unwrap();
        assert!(kds.fetch_dek(S, dek.id()).is_err());
        assert!(kds.revoke_dek(dek.id()).is_err(), "double revoke");
        kds.revoke_server(S);
        assert!(matches!(
            kds.generate_dek(S, Algorithm::Aes128Ctr),
            Err(KdsError::Unauthorized(_))
        ));
        kds.authorize_server(S);
        assert!(kds.generate_dek(S, Algorithm::Aes128Ctr).is_ok());
    }

    #[test]
    fn different_masters_differ() {
        let a = DerivedKds::new([1u8; 32]);
        let b = DerivedKds::new([2u8; 32]);
        let dek = a.generate_dek(S, Algorithm::Aes128Ctr).unwrap();
        b.state.lock().issued.insert(dek.id(), Algorithm::Aes128Ctr);
        let other = b.fetch_dek(S, dek.id()).unwrap();
        assert_ne!(dek.key_bytes(), other.key_bytes());
    }

    #[test]
    fn chacha_keys_derive_with_full_length() {
        let kds = DerivedKds::random();
        let dek = kds.generate_dek(S, Algorithm::ChaCha20).unwrap();
        assert_eq!(dek.key_bytes().len(), 32);
        let fetched = kds.fetch_dek_for(S, dek.id(), Algorithm::ChaCha20).unwrap();
        assert_eq!(dek.key_bytes(), fetched.key_bytes());
    }

    /// End-to-end with the engine: SHIELD over a DerivedKds.
    #[test]
    fn works_as_shield_backend() {
        use crate::DekResolver;
        use std::sync::Arc;

        let kds = Arc::new(DerivedKds::random());
        let resolver = DekResolver::new(
            kds.clone() as Arc<dyn Kds>,
            None,
            S,
            Algorithm::Aes128Ctr,
        );
        let dek = resolver.new_dek().unwrap();
        let resolved = resolver.resolve(dek.id()).unwrap();
        assert_eq!(dek.key_bytes(), resolved.key_bytes());
    }
}
