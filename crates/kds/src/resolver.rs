//! The cache-in-front-of-KDS composition the LSM engine uses.
//!
//! `new_dek` is called once per created file (unique DEK per file, §5.2);
//! `resolve` is called when opening a file whose plaintext metadata names a
//! DEK-ID (§5.4). Resolution order is secure cache → KDS, so restarts and
//! co-located instances avoid per-file network trips.
//!
//! The resolver is the engine's only line of defense against KDS outages,
//! so it is hardened the way the paper's availability argument (§5.2)
//! requires: transient [`KdsError::Unavailable`] failures are retried under
//! a [`RetryPolicy`] with capped exponential backoff and deterministic
//! jitter, each attempt is held to a deadline, and when the KDS is fully
//! down the resolver enters *degraded mode* — DEKs already in the secure
//! cache keep resolving (existing files stay readable) while only uncached
//! fetches fail.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use shield_core::{Event, EventListener, Section};
use shield_crypto::{Algorithm, Dek, DekId};

use crate::{CacheError, Kds, KdsError, SecureDekCache, ServerId};

/// Retry/timeout discipline for KDS round trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on the per-retry backoff.
    pub max_backoff: Duration,
    /// Deadline for a single attempt. An attempt whose round trip exceeds
    /// this — even a nominally successful one — counts as a timeout and is
    /// retried, mirroring an RPC client that has already hung up. `None`
    /// disables the deadline.
    pub attempt_timeout: Option<Duration>,
    /// Seed for the deterministic jitter applied to each backoff, so a
    /// given test seed always produces the same retry schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            attempt_timeout: None,
            jitter_seed: 0x5133_1dde_c0de_d00d,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based), jittered by `rng`:
    /// the exponential delay is scaled into `[50%, 100%]` so concurrent
    /// resolvers do not retry in lockstep.
    fn backoff(&self, retry: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        let nanos = exp.as_nanos() as u64;
        Duration::from_nanos(nanos / 2 + rng.next() % (nanos / 2 + 1))
    }
}

/// Small deterministic RNG for backoff jitter (same generator as the
/// fault-injection env, so seeded runs are reproducible end to end).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Errors from DEK resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolverError {
    /// The KDS refused or failed the request.
    Kds(KdsError),
    /// The secure cache failed (I/O or corruption).
    Cache(CacheError),
}

impl fmt::Display for ResolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolverError::Kds(e) => write!(f, "kds: {e}"),
            ResolverError::Cache(e) => write!(f, "cache: {e}"),
        }
    }
}

impl std::error::Error for ResolverError {}

impl From<KdsError> for ResolverError {
    fn from(e: KdsError) -> Self {
        ResolverError::Kds(e)
    }
}

impl From<CacheError> for ResolverError {
    fn from(e: CacheError) -> Self {
        ResolverError::Cache(e)
    }
}

/// Counters describing resolver traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResolverStats {
    /// Resolutions served from the secure cache (network trips saved).
    pub cache_hits: u64,
    /// Resolutions that had to go to the KDS.
    pub cache_misses: u64,
    /// Fresh DEKs generated.
    pub generated: u64,
    /// KDS requests retried after a transient failure.
    pub retries: u64,
    /// Attempts abandoned because they exceeded the per-attempt deadline.
    pub timeouts: u64,
    /// Cache hits served while the KDS was unreachable (degraded mode).
    pub degraded_hits: u64,
    /// Replica failovers observed at the KDS (from [`crate::KdsStats`]).
    pub failovers: u64,
}

/// Resolves DEK-IDs to key material for one server identity.
pub struct DekResolver {
    kds: Arc<dyn Kds>,
    cache: Option<Arc<SecureDekCache>>,
    server: ServerId,
    algorithm: Algorithm,
    policy: RetryPolicy,
    jitter: Mutex<SplitMix64>,
    /// Set after a request exhausts its retries with the KDS unreachable;
    /// cleared by the next successful round trip.
    degraded: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    generated: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    degraded_hits: AtomicU64,
    /// Observability sink for retry/failover/degraded events; set once by
    /// the embedding DB after open.
    events: Mutex<Option<Arc<dyn EventListener>>>,
    /// Last KDS failover count seen, to emit one event per new failover.
    seen_failovers: AtomicU64,
}

impl DekResolver {
    /// Creates a resolver for `server`, generating keys for `algorithm`,
    /// with the default [`RetryPolicy`].
    #[must_use]
    pub fn new(
        kds: Arc<dyn Kds>,
        cache: Option<Arc<SecureDekCache>>,
        server: ServerId,
        algorithm: Algorithm,
    ) -> Self {
        Self::with_policy(kds, cache, server, algorithm, RetryPolicy::default())
    }

    /// Creates a resolver with an explicit retry/timeout policy.
    #[must_use]
    pub fn with_policy(
        kds: Arc<dyn Kds>,
        cache: Option<Arc<SecureDekCache>>,
        server: ServerId,
        algorithm: Algorithm,
        policy: RetryPolicy,
    ) -> Self {
        let jitter = Mutex::new(SplitMix64(policy.jitter_seed));
        DekResolver {
            kds,
            cache,
            server,
            algorithm,
            policy,
            jitter,
            degraded: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            degraded_hits: AtomicU64::new(0),
            events: Mutex::new(None),
            seen_failovers: AtomicU64::new(0),
        }
    }

    /// Registers the observability listener events are reported through
    /// (KDS retries, failovers, degraded-mode transitions).
    pub fn set_event_listener(&self, listener: Arc<dyn EventListener>) {
        *self.events.lock() = Some(listener);
    }

    fn emit(&self, event: Event) {
        let listener = self.events.lock().clone();
        if let Some(l) = listener {
            l.on_event(&event);
        }
    }

    /// Emits one [`Event::KdsFailover`] if the backing KDS reports more
    /// failovers than last observed.
    fn check_failovers(&self) {
        let now = self.kds.stats().failovers;
        let seen = self.seen_failovers.swap(now, Ordering::Relaxed);
        if now > seen {
            self.emit(Event::KdsFailover { failovers: now });
        }
    }

    /// True while the resolver believes the KDS is unreachable. Cached
    /// DEKs still resolve in this state; uncached fetches fail fast at the
    /// KDS and new-file creation is expected to stall.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Runs one KDS request under the retry policy: transient failures and
    /// over-deadline attempts are retried with jittered exponential
    /// backoff; policy denials return immediately.
    fn with_retries<T>(&self, mut call: impl FnMut() -> Result<T, KdsError>) -> Result<T, KdsError> {
        let mut attempt = 0u32;
        loop {
            let start = Instant::now();
            let result = call();
            let timed_out = self
                .policy
                .attempt_timeout
                .is_some_and(|limit| start.elapsed() > limit);
            let outcome = match result {
                Ok(_) if timed_out => {
                    // The reply arrived after we would have hung up: a real
                    // RPC client has already abandoned this attempt.
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    Err(KdsError::Unavailable("attempt deadline exceeded".to_string()))
                }
                other => other,
            };
            match outcome {
                Ok(value) => {
                    if self.degraded.swap(false, Ordering::SeqCst) {
                        self.emit(Event::KdsDegradedExit);
                    }
                    return Ok(value);
                }
                Err(e) if e.is_retryable() && attempt + 1 < self.policy.max_attempts => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.emit(Event::KdsRetry {
                        attempt: u64::from(attempt + 1),
                        message: e.to_string(),
                    });
                    self.check_failovers();
                    let delay = self.policy.backoff(attempt, &mut self.jitter.lock());
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => {
                    if e.is_retryable() {
                        if !self.degraded.swap(true, Ordering::SeqCst) {
                            self.emit(Event::KdsDegradedEnter { message: e.to_string() });
                        }
                        self.check_failovers();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// The server identity this resolver requests under.
    #[must_use]
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The algorithm for newly generated DEKs.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Requests a fresh DEK from the KDS (one per new file) and caches it.
    pub fn new_dek(&self) -> Result<Dek, ResolverError> {
        let _t = Section::DekResolve.enter();
        let dek = self.with_retries(|| self.kds.generate_dek(self.server, self.algorithm))?;
        self.generated.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &self.cache {
            cache.insert(dek.clone())?;
        }
        Ok(dek)
    }

    /// Resolves `id` to key material: secure cache first, then the KDS.
    ///
    /// In degraded mode (KDS unreachable) cached DEKs still resolve — this
    /// is the property that keeps existing files readable through a full
    /// KDS outage — and only uncached ids propagate
    /// [`KdsError::Unavailable`].
    pub fn resolve(&self, id: DekId) -> Result<Dek, ResolverError> {
        let _t = Section::DekResolve.enter();
        if let Some(cache) = &self.cache {
            if let Some(dek) = cache.get(id) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if self.is_degraded() {
                    self.degraded_hits.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(dek);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let dek = self.with_retries(|| self.kds.fetch_dek(self.server, id))?;
        if let Some(cache) = &self.cache {
            cache.insert(dek.clone())?;
        }
        Ok(dek)
    }

    /// Called when files are deleted: the cache is pruned of all of `ids`
    /// and persisted once, then each DEK is revoked at the KDS so it can
    /// never be provisioned again. Every id is attempted; the first
    /// failure is returned.
    pub fn on_files_deleted(&self, ids: &[DekId]) -> Result<(), ResolverError> {
        if let Some(cache) = &self.cache {
            cache.remove_many(ids)?;
        }
        let mut first_err = None;
        for &id in ids {
            // The DEK may already be unknown (e.g. another instance revoked
            // it); that is not an error for the caller.
            match self.with_retries(|| self.kds.revoke_dek(id)) {
                Ok(()) | Err(KdsError::UnknownDek(_)) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Ids the secure cache holds when it is the file at `cache_path`
    /// (order unspecified); `None` without a cache or for a cache kept
    /// elsewhere. A database whose directory holds the cache file is the
    /// cache's only writer, so an id in it that no live file of that
    /// database names belongs to nothing.
    #[must_use]
    pub fn cached_ids_at(&self, cache_path: &str) -> Option<Vec<DekId>> {
        self.cache.as_ref().filter(|cache| cache.path() == cache_path).map(|cache| cache.ids())
    }

    /// Traffic counters. `failovers` is read live from the backing KDS.
    #[must_use]
    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            generated: self.generated.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            degraded_hits: self.degraded_hits.load(Ordering::Relaxed),
            failovers: self.kds.stats().failovers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KdsConfig, LocalKds};
    use shield_env::MemEnv;

    fn setup(with_cache: bool) -> (Arc<LocalKds>, DekResolver) {
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let cache = with_cache.then(|| {
            Arc::new(
                SecureDekCache::open_with_iterations(
                    Arc::new(MemEnv::new()),
                    "cache",
                    b"pk",
                    4,
                )
                .unwrap(),
            )
        });
        let resolver = DekResolver::new(kds.clone(), cache, ServerId(1), Algorithm::Aes128Ctr);
        (kds, resolver)
    }

    #[test]
    fn new_dek_is_cached() {
        let (_, resolver) = setup(true);
        let dek = resolver.new_dek().unwrap();
        let resolved = resolver.resolve(dek.id()).unwrap();
        assert_eq!(resolved.key_bytes(), dek.key_bytes());
        let s = resolver.stats();
        assert_eq!(s.generated, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 0);
    }

    #[test]
    fn cache_miss_goes_to_kds_then_caches() {
        let (kds, resolver) = setup(true);
        // DEK created by "another server".
        let dek = kds.generate_dek(ServerId(2), Algorithm::Aes128Ctr).unwrap();
        let got = resolver.resolve(dek.id()).unwrap();
        assert_eq!(got.key_bytes(), dek.key_bytes());
        assert_eq!(resolver.stats().cache_misses, 1);
        // Second resolve hits the cache — no new KDS fetch.
        let before = kds.stats().fetched;
        let _ = resolver.resolve(dek.id()).unwrap();
        assert_eq!(kds.stats().fetched, before);
    }

    #[test]
    fn cacheless_resolver_always_fetches() {
        let (kds, resolver) = setup(false);
        let dek = kds.generate_dek(ServerId(2), Algorithm::Aes128Ctr).unwrap();
        let _ = resolver.resolve(dek.id()).unwrap();
        let _ = resolver.resolve(dek.id()).unwrap();
        assert_eq!(kds.stats().fetched, 2);
        assert_eq!(resolver.stats().cache_misses, 2);
    }

    #[test]
    fn file_deletion_revokes_and_prunes() {
        let (kds, resolver) = setup(true);
        let dek = resolver.new_dek().unwrap();
        resolver.on_files_deleted(&[dek.id()]).unwrap();
        assert!(!kds.has_dek(dek.id()));
        // Now unresolvable anywhere.
        assert!(matches!(
            resolver.resolve(dek.id()),
            Err(ResolverError::Kds(KdsError::UnknownDek(_)))
        ));
        // Deleting twice is fine.
        resolver.on_files_deleted(&[dek.id()]).unwrap();
    }

    use crate::ReplicatedKds;
    use std::time::Duration;

    fn cache() -> Arc<SecureDekCache> {
        Arc::new(
            SecureDekCache::open_with_iterations(Arc::new(MemEnv::new()), "cache", b"pk", 4)
                .unwrap(),
        )
    }

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn transient_outage_is_retried_through_recovery() {
        // One replica down out of two: round-robin still reaches the live
        // one, so requests succeed; the dead endpoint only adds failovers.
        let kds = Arc::new(ReplicatedKds::new(2, KdsConfig::default()));
        kds.fail_replica(0);
        let resolver = DekResolver::with_policy(
            kds.clone(),
            Some(cache()),
            ServerId(1),
            Algorithm::Aes128Ctr,
            fast_policy(4),
        );
        for _ in 0..8 {
            resolver.new_dek().unwrap();
        }
        assert!(!resolver.is_degraded());
        assert!(resolver.stats().failovers >= 2, "stats: {:?}", resolver.stats());
    }

    #[test]
    fn exhausted_retries_enter_degraded_mode_and_cached_deks_survive() {
        let kds = Arc::new(ReplicatedKds::new(2, KdsConfig::default()));
        let resolver = DekResolver::with_policy(
            kds.clone(),
            Some(cache()),
            ServerId(1),
            Algorithm::Aes128Ctr,
            fast_policy(3),
        );
        let cached = resolver.new_dek().unwrap();
        let uncached = kds.generate_dek(ServerId(2), Algorithm::Aes128Ctr).unwrap();

        kds.fail_all();
        // Uncached fetch: retried max_attempts times, then Unavailable.
        assert!(matches!(
            resolver.resolve(uncached.id()),
            Err(ResolverError::Kds(KdsError::Unavailable(_)))
        ));
        assert!(resolver.is_degraded());
        assert_eq!(resolver.stats().retries, 2);

        // Cached DEK still resolves: existing files stay readable.
        let got = resolver.resolve(cached.id()).unwrap();
        assert_eq!(got.key_bytes(), cached.key_bytes());
        assert!(resolver.stats().degraded_hits >= 1);

        // Recovery clears degraded mode on the next successful round trip.
        kds.recover_all();
        assert!(resolver.resolve(uncached.id()).is_ok());
        assert!(!resolver.is_degraded());
    }

    #[test]
    fn policy_denials_are_not_retried() {
        let (kds, _) = setup(false);
        let resolver = DekResolver::with_policy(
            kds.clone(),
            None,
            ServerId(1),
            Algorithm::Aes128Ctr,
            fast_policy(5),
        );
        // Unknown DEK: a hard denial; exactly one fetch must reach the KDS.
        let before = kds.stats();
        assert!(matches!(
            resolver.resolve(shield_crypto::DekId(4242)),
            Err(ResolverError::Kds(KdsError::UnknownDek(_)))
        ));
        assert_eq!(kds.stats().denied, before.denied + 1);
        assert_eq!(resolver.stats().retries, 0);
        assert!(!resolver.is_degraded());
    }

    #[test]
    fn slow_kds_attempts_time_out_and_count() {
        let kds = Arc::new(LocalKds::new(KdsConfig {
            fetch_latency: Duration::from_millis(5),
            ..KdsConfig::default()
        }));
        let dek = kds.generate_dek(ServerId(2), Algorithm::Aes128Ctr).unwrap();
        let policy = RetryPolicy {
            attempt_timeout: Some(Duration::from_millis(1)),
            ..fast_policy(3)
        };
        let resolver =
            DekResolver::with_policy(kds.clone(), None, ServerId(1), Algorithm::Aes128Ctr, policy);
        // Every attempt exceeds its 1 ms deadline against a 5 ms KDS.
        assert!(matches!(
            resolver.resolve(dek.id()),
            Err(ResolverError::Kds(KdsError::Unavailable(_)))
        ));
        let s = resolver.stats();
        assert_eq!(s.timeouts, 3);
        assert_eq!(s.retries, 2);
        assert!(resolver.is_degraded());

        // Raising the deadline past the latency recovers.
        let relaxed = DekResolver::with_policy(
            kds,
            None,
            ServerId(1),
            Algorithm::Aes128Ctr,
            RetryPolicy {
                attempt_timeout: Some(Duration::from_secs(5)),
                ..fast_policy(3)
            },
        );
        assert!(relaxed.resolve(dek.id()).is_ok());
        assert_eq!(relaxed.stats().timeouts, 0);
    }

    #[test]
    fn jittered_backoff_is_deterministic_per_seed_and_capped() {
        let policy = RetryPolicy::default();
        let mut a = SplitMix64(policy.jitter_seed);
        let mut b = SplitMix64(policy.jitter_seed);
        for retry in 0..20 {
            let da = policy.backoff(retry, &mut a);
            let db = policy.backoff(retry, &mut b);
            assert_eq!(da, db, "same seed must give the same schedule");
            assert!(da <= policy.max_backoff);
            assert!(da >= policy.max_backoff / 2 || retry < 7);
        }
    }

    #[test]
    fn no_retries_policy_fails_fast() {
        let kds = Arc::new(ReplicatedKds::new(1, KdsConfig::default()));
        kds.fail_all();
        let resolver = DekResolver::with_policy(
            kds,
            None,
            ServerId(1),
            Algorithm::Aes128Ctr,
            RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        );
        assert!(resolver.new_dek().is_err());
        assert_eq!(resolver.stats().retries, 0);
    }
}
