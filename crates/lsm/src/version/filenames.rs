//! Database file naming, RocksDB-style: `000007.log`, `000012.sst`,
//! `MANIFEST-000003`, `CURRENT`.

/// Kinds of files found in a database directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileType {
    /// Write-ahead log segment with its file number.
    Wal(u64),
    /// Table file with its file number.
    Sst(u64),
    /// Manifest with its file number.
    Manifest(u64),
    /// The CURRENT pointer file.
    Current,
    /// Secure DEK cache.
    DekCache,
    /// Temporary file (mid-rename).
    Temp,
}

/// Name of WAL segment `number`.
#[must_use]
pub fn wal_file_name(number: u64) -> String {
    format!("{number:06}.log")
}

/// Name of SST file `number`.
#[must_use]
pub fn sst_file_name(number: u64) -> String {
    format!("{number:06}.sst")
}

/// Name of manifest file `number`.
#[must_use]
pub fn manifest_file_name(number: u64) -> String {
    format!("MANIFEST-{number:06}")
}

/// The CURRENT pointer file name.
#[must_use]
pub fn current_file_name() -> String {
    "CURRENT".to_string()
}

/// Name of the secure DEK cache a SHIELD database keeps in its directory.
pub const DEK_CACHE_FILE_NAME: &str = "DEK_CACHE";

/// Classifies a file name from the database directory.
#[must_use]
pub fn parse_file_name(name: &str) -> Option<FileType> {
    if name == "CURRENT" {
        return Some(FileType::Current);
    }
    if name == DEK_CACHE_FILE_NAME {
        return Some(FileType::DekCache);
    }
    if name.ends_with(".tmp") {
        return Some(FileType::Temp);
    }
    if let Some(num) = name.strip_prefix("MANIFEST-") {
        return num.parse().ok().map(FileType::Manifest);
    }
    if let Some(num) = name.strip_suffix(".log") {
        return num.parse().ok().map(FileType::Wal);
    }
    if let Some(num) = name.strip_suffix(".sst") {
        return num.parse().ok().map(FileType::Sst);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        assert_eq!(parse_file_name(&wal_file_name(7)), Some(FileType::Wal(7)));
        assert_eq!(parse_file_name(&sst_file_name(12)), Some(FileType::Sst(12)));
        assert_eq!(parse_file_name(&manifest_file_name(3)), Some(FileType::Manifest(3)));
        assert_eq!(parse_file_name("CURRENT"), Some(FileType::Current));
        assert_eq!(parse_file_name("DEK_CACHE"), Some(FileType::DekCache));
        assert_eq!(parse_file_name("x.tmp"), Some(FileType::Temp));
        assert_eq!(parse_file_name("garbage"), None);
        assert_eq!(parse_file_name("xyz.sst"), None);
    }

    #[test]
    fn names_are_sortable_by_number() {
        assert!(wal_file_name(2) < wal_file_name(10));
        assert!(sst_file_name(99) < sst_file_name(100));
    }
}
