//! Engine-level counters used by the evaluation harness (throughput
//! breakdowns, Table 3 I/O attribution, DEK accounting).
//!
//! Tickers come in three kinds and the `tickers!` macro keeps them in
//! distinct sections, because they differ in what a snapshot delta means:
//!
//! - **counters** are monotonic work done *by this database*; the
//!   difference of two snapshots ([`StatsSnapshot::delta_since`]) is
//!   the activity in the interval.
//! - **shared** tickers are monotonic mirrors of a subsystem the
//!   database may share with others (block cache, fault env, DEK
//!   resolver). They delta like counters.
//! - **gauges** are point-in-time values that can go *down* (pinned
//!   bytes, in-flight high-water marks); subtracting them is
//!   meaningless, so `delta_since` carries the later snapshot's value
//!   through unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! tickers {
    (
        counters { $($(#[$cdoc:meta])* $cname:ident),* $(,)? }
        shared { $($(#[$sdoc:meta])* $sname:ident),* $(,)? }
        gauges { $($(#[$gdoc:meta])* $gname:ident),* $(,)? }
    ) => {
        /// Engine tickers: monotonic counters plus mirrored gauges.
        #[derive(Default)]
        pub struct Statistics {
            $($(#[$cdoc])* pub $cname: AtomicU64,)*
            $($(#[$sdoc])* pub $sname: AtomicU64,)*
            $($(#[$gdoc])* pub $gname: AtomicU64,)*
        }

        /// A point-in-time copy of [`Statistics`].
        #[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$cdoc])* pub $cname: u64,)*
            $($(#[$sdoc])* pub $sname: u64,)*
            $($(#[$gdoc])* pub $gname: u64,)*
        }

        impl Statistics {
            /// Creates a zeroed, shareable ticker set.
            #[must_use]
            pub fn new() -> Arc<Self> {
                Arc::new(Self::default())
            }

            /// Copies all tickers.
            #[must_use]
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname.load(Ordering::Relaxed),)*
                    $($sname: self.$sname.load(Ordering::Relaxed),)*
                    $($gname: self.$gname.load(Ordering::Relaxed),)*
                }
            }
        }

        impl StatsSnapshot {
            /// Interval view: monotonic counters (own and shared-mirror)
            /// become `self - earlier` (saturating); gauges keep `self`'s
            /// point-in-time value.
            #[must_use]
            pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($cname: self.$cname.saturating_sub(earlier.$cname),)*
                    $($sname: self.$sname.saturating_sub(earlier.$sname),)*
                    $($gname: self.$gname,)*
                }
            }

            /// All monotonic counters (own, then shared-mirror) as
            /// `(name, value)` pairs, in declaration order (the stable
            /// JSON key order).
            #[must_use]
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                let mut v = vec![$((stringify!($cname), self.$cname),)*];
                v.extend([$((stringify!($sname), self.$sname),)*]);
                v
            }

            /// All gauges as `(name, value)` pairs, in declaration order.
            #[must_use]
            pub fn gauges(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($gname), self.$gname),)*]
            }
        }
    };
}

tickers! {
    counters {
        /// Write operations applied (entries, not batches).
        writes,
        /// Batches committed through the group-commit leader.
        write_groups,
        /// Bytes appended to the WAL (plaintext size).
        wal_bytes,
        /// WAL sync/flush calls.
        wal_syncs,
        /// Point lookups served: one per `get`, one per key of a
        /// `multi_get`.
        gets,
        /// Point lookups that found a value.
        gets_found,
        /// Memtable flushes completed.
        flushes,
        /// Bytes written by flushes.
        flush_bytes,
        /// Compactions completed.
        compactions,
        /// Microseconds spent executing compactions.
        compaction_micros,
        /// Subrange merges run by parallel compactions.
        subcompactions,
        /// Microseconds spent in subrange merges (sums across parallel
        /// workers, so it can exceed `compaction_micros` wall time).
        subcompaction_micros,
        /// Bytes read by compaction inputs.
        compaction_bytes_read,
        /// Bytes written by compaction outputs.
        compaction_bytes_written,
        /// SST files created (flush + compaction).
        sst_files_created,
        /// SST files deleted (obsolete after compaction).
        sst_files_deleted,
        /// Bloom-filter negative hits (reads avoided).
        bloom_useful,
        /// Write stalls triggered by L0/immutable backpressure.
        write_stalls,
        /// Microseconds writers spent stalled.
        stall_micros,
        /// Soft background-job failures retried with backoff.
        bg_retries,
        /// Recoverable background errors cleared by [`crate::Db::resume`].
        resumes,
        /// HMAC tag verifications performed on reads (blocks + records).
        integrity_checks,
        /// HMAC tag mismatches — tampering detected.
        integrity_failures,
        /// Multi-key lookups served through [`crate::Db::multi_get`].
        multi_gets,
        /// Catch-up rounds a live replica ran (manifest + WAL drain).
        replica_polls,
        /// Manifest edits a replica applied while tailing.
        replica_manifest_edits_applied,
        /// WAL records a replica replayed into its memtables.
        replica_wal_records_applied,
        /// MANIFEST rollovers a replica followed through CURRENT.
        replica_rollovers_followed,
        /// Catch-up rounds that ended on a torn/in-flight tail (manifest
        /// or WAL) and will retry from the held position.
        replica_incomplete_tails,
        /// `read_at_many` batch submissions issued by this engine's block
        /// fetcher (each covers ≥ 1 block read), for `multi_get` and for
        /// iterator readahead alike.
        batched_reads,
        /// Individual block reads carried by those batch submissions.
        batch_read_requests,
        /// DEK-bearing files created under a key that was waiting in the
        /// file store's ready queue ([`crate::files::READY_DEKS`]).
        dek_queue_hits,
        /// DEK-bearing files whose creation generated its key inline (the
        /// queue was empty, or the store has none). Hits plus misses is
        /// the number of DEK-bearing files created.
        dek_queue_misses,
        /// Ready DEKs revoked at close without ever being bound to a file.
        deks_retired_unused,
        /// Entries user iterators and scans stepped over instead of
        /// returning: versions above the read sequence, tombstones and
        /// shadowed versions. Credited when the iterator drops.
        iter_skipped,
        /// Merge children re-seeked past a run of one key's versions (the
        /// skip rule, DESIGN.md §4g); each follows at least
        /// `MAX_SEQUENTIAL_SKIP` (8) entries counted in `iter_skipped`.
        iter_reseeks,
    }
    shared {
        /// Block-cache lifetime hits, mirrored from the cache when
        /// [`crate::Db::statistics`] refreshes. Monotonic despite being
        /// a mirror: snapshot deltas are the interval's hits.
        block_cache_hits,
        /// Block-cache lifetime misses, mirrored from the cache.
        block_cache_misses,
        /// Data-block cache hits, mirrored from the cache.
        block_cache_data_hits,
        /// Data-block cache misses, mirrored from the cache.
        block_cache_data_misses,
        /// Index-block cache hits, mirrored from the cache.
        block_cache_index_hits,
        /// Index-block cache misses, mirrored from the cache.
        block_cache_index_misses,
        /// Filter-block cache hits, mirrored from the cache.
        block_cache_filter_hits,
        /// Filter-block cache misses, mirrored from the cache.
        block_cache_filter_misses,
        /// Misses that waited on another thread's in-flight read instead
        /// of issuing their own (single-flight coalescing).
        block_cache_singleflight_waits,
        /// Inserts larger than a cache shard, served uncached.
        block_cache_oversized_bypass,
        /// Blocks an iterator's readahead batch read beyond the one the
        /// iterator stood on.
        readahead_issued,
        /// Blocks read ahead that were subsequently hit.
        readahead_useful,
        /// Storage faults injected by a fault-injection env, mirrored from
        /// [`shield_env::Env::fault_stats`].
        env_faults_injected,
        /// DEK-resolver retry attempts, mirrored from the resolver when
        /// running in SHIELD mode.
        resolver_retries,
        /// KDS replica failovers, mirrored from the resolver.
        resolver_failovers,
        /// DEK resolutions served from cache while the KDS was unreachable,
        /// mirrored from the resolver.
        resolver_degraded_hits,
    }
    gauges {
        /// Bytes currently pinned in the cache by in-use handles
        /// (open tables' index/filter blocks, live iterators).
        block_cache_pinned_bytes,
        /// Legacy (pre-HMAC format) files opened while
        /// [`crate::integrity::Integrity::Hmac`] is on: readable but
        /// unverified until compaction rewrites them.
        integrity_unprotected_files,
        /// High-water mark of concurrently in-flight batched reads,
        /// mirrored from [`shield_env::inflight_reads_peak`].
        env_inflight_reads,
        /// Replica staleness: WAL records seen at the primary's tail but
        /// not yet applied locally (last poll's reading; shrinks as the
        /// replica catches up).
        replica_lag_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = Statistics::new();
        s.writes.fetch_add(10, Ordering::Relaxed);
        let a = s.snapshot();
        s.writes.fetch_add(5, Ordering::Relaxed);
        s.gets.fetch_add(2, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.writes, 5);
        assert_eq!(d.gets, 2);
        assert_eq!(d.flushes, 0);
    }

    #[test]
    fn delta_keeps_gauges_at_later_value() {
        let s = Statistics::new();
        // A gauge mirror set high before the first snapshot, lower after
        // (pinned bytes shrink as handles drop): an all-counter delta
        // would saturate to 0 and hide the live value; the gauge section
        // must carry the later reading.
        s.block_cache_pinned_bytes.store(4096, Ordering::Relaxed);
        s.env_inflight_reads.store(100, Ordering::Relaxed);
        let a = s.snapshot();
        s.block_cache_pinned_bytes.store(1024, Ordering::Relaxed);
        s.env_inflight_reads.store(3, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.block_cache_pinned_bytes, 1024, "gauge must not be differenced");
        assert_eq!(d.env_inflight_reads, 3, "gauge must not saturate to 0");
        // Counters still difference.
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn monotonic_mirrors_are_counters() {
        // These mirrors only ever grow, so interval deltas are meaningful
        // — they must live in the ticker section, not with the gauges.
        let s = Statistics::new();
        s.block_cache_hits.store(10, Ordering::Relaxed);
        s.readahead_issued.store(5, Ordering::Relaxed);
        s.env_faults_injected.store(2, Ordering::Relaxed);
        s.resolver_retries.store(1, Ordering::Relaxed);
        let a = s.snapshot();
        s.block_cache_hits.store(25, Ordering::Relaxed);
        s.readahead_issued.store(9, Ordering::Relaxed);
        s.env_faults_injected.store(4, Ordering::Relaxed);
        s.resolver_retries.store(3, Ordering::Relaxed);
        let d = s.snapshot().delta_since(&a);
        assert_eq!(d.block_cache_hits, 15);
        assert_eq!(d.readahead_issued, 4);
        assert_eq!(d.env_faults_injected, 2);
        assert_eq!(d.resolver_retries, 2);
        let counters = s.snapshot().counters();
        for name in
            ["block_cache_hits", "readahead_useful", "env_faults_injected", "resolver_failovers"]
        {
            assert!(counters.iter().any(|&(n, _)| n == name), "{name} must be a ticker");
        }
        let gauges = s.snapshot().gauges();
        for name in ["block_cache_pinned_bytes", "env_inflight_reads"] {
            assert!(gauges.iter().any(|&(n, _)| n == name), "{name} must stay a gauge");
        }
    }

    #[test]
    fn name_value_iteration_matches_fields() {
        let s = Statistics::new();
        s.writes.fetch_add(4, Ordering::Relaxed);
        s.block_cache_pinned_bytes.store(2, Ordering::Relaxed);
        let snap = s.snapshot();
        let counters = snap.counters();
        let gauges = snap.gauges();
        assert!(counters.iter().any(|&(n, v)| n == "writes" && v == 4));
        assert!(gauges.iter().any(|&(n, v)| n == "block_cache_pinned_bytes" && v == 2));
        // No ticker appears in both sections.
        for (n, _) in &counters {
            assert!(!gauges.iter().any(|(g, _)| g == n), "{n} in both sections");
        }
        assert_eq!(counters.len() + gauges.len(), 56);
    }
}
