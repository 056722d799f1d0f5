//! Key→tree routing for a [`crate::Db`] with more than one tree, and the
//! `SHARDING` manifest that pins the layout a directory was created with.

use shield_env::{Env, FileKind};

use crate::db::options::{Options, ShardBy};
use crate::error::{Error, Result};
use crate::version::VersionSet;

/// Name of the sharding manifest in the database directory.
const SHARDING_FILE: &str = "SHARDING";
const MANIFEST_V1: &str = "shield-sharding-v1\n";
const MANIFEST_V2: &str = "shield-sharding-v2\n";

/// Routes user keys to trees. Cheap, lock-free, and identical across
/// reopens (validated against the `SHARDING` manifest).
pub(super) struct Router {
    shards: usize,
    by: ShardBy,
}

fn fnv1a64(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Router {
    /// The router `opts.shards` / `opts.shard_by` describe.
    pub fn new(opts: &Options) -> Result<Router> {
        let shards = opts.shards.max(1);
        if let ShardBy::Range(bounds) = &opts.shard_by {
            if bounds.len() + 1 != shards {
                return Err(Error::InvalidArgument(format!(
                    "{} range boundaries define {} shards, but shards={shards}",
                    bounds.len(),
                    bounds.len() + 1
                )));
            }
            if !bounds.windows(2).all(|w| w[0] < w[1]) {
                return Err(Error::InvalidArgument(
                    "shard range boundaries must be strictly increasing".into(),
                ));
            }
        }
        Ok(Router { shards, by: opts.shard_by.clone() })
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn shard_of(&self, key: &[u8]) -> usize {
        match &self.by {
            ShardBy::Hash => (fnv1a64(key) % self.shards as u64) as usize,
            ShardBy::Range(bounds) => bounds.partition_point(|b| b.as_slice() <= key),
        }
    }

    /// `"hash"` or `"range"`, as the manifest and the metrics report name it.
    pub fn shard_by(&self) -> &'static str {
        match self.by {
            ShardBy::Hash => "hash",
            ShardBy::Range(_) => "range",
        }
    }

    /// Directory of tree `i`: the database directory itself for a single
    /// tree, `shard-<i>/` inside it otherwise.
    pub fn tree_path(&self, path: &str, i: usize) -> String {
        if self.shards == 1 {
            path.to_string()
        } else {
            shield_env::join_path(path, &format!("shard-{i}"))
        }
    }

    /// Validates (or creates) the `SHARDING` manifest: tree count and
    /// routing policy are fixed at creation, and a reopen with different
    /// options is an error rather than silent misrouting. A single tree
    /// writes no manifest — its directory is byte-for-byte an unsharded
    /// database.
    pub fn check_or_write_manifest(&self, env: &dyn Env, path: &str) -> Result<()> {
        let p = shield_env::join_path(path, SHARDING_FILE);
        let expected = self.render_manifest();
        if env.file_exists(&p) {
            let bytes = shield_env::read_file_to_vec(env, &p, FileKind::Other)?;
            if bytes.starts_with(MANIFEST_V1.as_bytes()) {
                return Err(Error::InvalidArgument(format!(
                    "{path} holds a shield-sharding-v1 layout: its shards number their \
                     writes independently, so it cannot be upgraded in place to the one \
                     sequence space of v2 — export it and load a new database"
                )));
            }
            if bytes != expected.as_bytes() {
                return Err(Error::InvalidArgument(format!(
                    "sharding layout mismatch at {path}: on-disk {:?} vs requested {:?}",
                    String::from_utf8_lossy(&bytes),
                    expected
                )));
            }
            return Ok(());
        }
        if self.shards == 1 {
            return Ok(());
        }
        if VersionSet::db_exists(env, path) {
            return Err(Error::InvalidArgument(format!(
                "{path} holds an unsharded database; it cannot be opened with shards={}",
                self.shards
            )));
        }
        let mut f = env.new_writable_file(&p, FileKind::Other)?;
        f.append(expected.as_bytes())?;
        f.flush()?;
        f.sync()?;
        Ok(())
    }

    fn render_manifest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(MANIFEST_V2);
        let _ = writeln!(out, "shards={}", self.shards);
        let _ = writeln!(out, "shard_by={}", self.shard_by());
        if let ShardBy::Range(bounds) = &self.by {
            for b in bounds {
                let mut hex = String::with_capacity(b.len() * 2);
                for byte in b {
                    let _ = write!(hex, "{byte:02x}");
                }
                let _ = writeln!(out, "boundary={hex}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_env::MemEnv;
    use std::sync::Arc;

    fn router(opts: Options) -> Router {
        Router::new(&opts).unwrap()
    }

    fn opts(env: &MemEnv) -> Options {
        Options::new(Arc::new(env.clone()))
    }

    #[test]
    fn router_hash_covers_all_shards() {
        let router = router(opts(&MemEnv::new()).with_shards(4));
        let mut seen = [false; 4];
        for i in 0..256u32 {
            seen[router.shard_of(format!("key-{i}").as_bytes())] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn router_range_boundaries() {
        let router =
            router(opts(&MemEnv::new()).with_shard_ranges(vec![b"g".to_vec(), b"p".to_vec()]));
        assert_eq!(router.shard_of(b"a"), 0);
        assert_eq!(router.shard_of(b"f"), 0);
        assert_eq!(router.shard_of(b"g"), 1);
        assert_eq!(router.shard_of(b"o"), 1);
        assert_eq!(router.shard_of(b"p"), 2);
        assert_eq!(router.shard_of(b"zz"), 2);
        assert_eq!(router.shard_of(b""), 0);
    }

    #[test]
    fn range_boundaries_must_increase() {
        let o = opts(&MemEnv::new()).with_shard_ranges(vec![b"m".to_vec(), b"b".to_vec()]);
        assert!(matches!(Router::new(&o), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn v1_manifest_is_refused_by_name() {
        let env = MemEnv::new();
        let mut f = env.new_writable_file("db/SHARDING", FileKind::Other).unwrap();
        f.append(b"shield-sharding-v1\nshards=2\nshard_by=hash\n").unwrap();
        f.sync().unwrap();
        for n in [1, 2] {
            let err = router(opts(&env).with_shards(n))
                .check_or_write_manifest(&env, "db")
                .expect_err("v1 layout must be refused");
            assert!(err.to_string().contains("shield-sharding-v1"), "got {err}");
        }
    }

    #[test]
    fn single_tree_writes_no_manifest() {
        let env = MemEnv::new();
        let r = router(opts(&env));
        r.check_or_write_manifest(&env, "db").unwrap();
        assert!(!env.file_exists("db/SHARDING"));
        assert_eq!(r.tree_path("db", 0), "db");
        assert_eq!(router(opts(&env).with_shards(2)).tree_path("db", 1), "db/shard-1");
    }
}
