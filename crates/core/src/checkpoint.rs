//! Crash-consistent checkpoint files for simulation runs.
//!
//! A checkpoint captures everything needed to continue a run
//! bit-identically: the run spec (carried verbatim as JSON so the restorer
//! can rebuild an identical [`System`](crate::system::System)), the
//! workload name and seed, the operation count, and the serialized system
//! state from [`System::save_state`](crate::system::System::save_state).
//!
//! File layout (little-endian):
//!
//! ```text
//! magic  b"BCKP"        4 bytes
//! version u8            currently 2 (1 also carried per-core step buffers)
//! len    u64            payload length in bytes
//! crc    u32            CRC-32 of the payload
//! payload               wire-encoded Checkpoint
//! ```
//!
//! The CRC framing detects torn and bit-flipped files; `frame::seal` from
//! the compress crate is not reusable here because its u16 length field
//! cannot carry multi-megabyte system states. Writes go through
//! [`atomic_write`] (temp file + rename), so a crash mid-write leaves
//! either the old checkpoint or none — never a half-written one that
//! parses.

use baryon_compress::crc::crc32;
use baryon_sim::faultfs;
use baryon_sim::wire::{Reader, WireError, Writer};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"BCKP";
const VERSION: u8 = 2;
const HEADER_LEN: usize = 4 + 1 + 8 + 4;

/// Why a checkpoint could not be restored.
#[derive(Debug)]
pub enum RestoreError {
    /// The file could not be read (or written, for save paths).
    Io(io::Error),
    /// The file is not a checkpoint (wrong magic).
    BadMagic([u8; 4]),
    /// The checkpoint was written by an incompatible format version.
    BadVersion(u8),
    /// The file ends before the declared payload length (torn write).
    Truncated {
        /// Bytes the header declared.
        declared: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload CRC does not match (bit rot or tampering).
    Corrupt {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload failed to decode.
    Decode(WireError),
    /// The checkpoint's spec/workload/seed do not match the restorer's.
    SpecMismatch(String),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            RestoreError::BadMagic(m) => {
                write!(
                    f,
                    "not a checkpoint file (magic {m:02x?}, expected {MAGIC:02x?})"
                )
            }
            RestoreError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            RestoreError::Truncated { declared, actual } => {
                write!(f, "torn checkpoint: header declares {declared} payload bytes, file holds {actual}")
            }
            RestoreError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "corrupt checkpoint: stored CRC {stored:#010x}, computed {computed:#010x}"
                )
            }
            RestoreError::Decode(e) => write!(f, "checkpoint payload malformed: {e}"),
            RestoreError::SpecMismatch(why) => {
                write!(f, "checkpoint does not match this run: {why}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

impl From<WireError> for RestoreError {
    fn from(e: WireError) -> Self {
        RestoreError::Decode(e)
    }
}

/// A complete run checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The run spec as JSON, carried verbatim (the core crate treats it as
    /// opaque; the sim binary parses it to rebuild config + workload).
    pub spec_json: String,
    /// Workload name (cross-checked on restore).
    pub workload: String,
    /// Trace/content seed (cross-checked on restore).
    pub seed: u64,
    /// Operations executed when the checkpoint was taken.
    pub ops: u64,
    /// Serialized [`System`](crate::system::System) state.
    pub state: Vec<u8>,
}

impl Checkpoint {
    /// Encodes into the framed file format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.spec_json);
        w.str(&self.workload);
        w.u64(self.seed);
        w.u64(self.ops);
        w.bytes(&self.state);
        let payload = w.into_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes from the framed file format, verifying magic, version,
    /// length, and CRC.
    ///
    /// # Errors
    ///
    /// Returns the precise [`RestoreError`] variant for each failure mode;
    /// never panics on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(RestoreError::Truncated {
                declared: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let magic: [u8; 4] = bytes[..4].try_into().expect("4 bytes");
        if &magic != MAGIC {
            return Err(RestoreError::BadMagic(magic));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(RestoreError::BadVersion(version));
        }
        let declared = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
        let stored = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if (payload.len() as u64) < declared {
            return Err(RestoreError::Truncated {
                declared,
                actual: payload.len() as u64,
            });
        }
        let payload = &payload[..declared as usize];
        let computed = crc32(payload);
        if computed != stored {
            return Err(RestoreError::Corrupt { stored, computed });
        }
        let mut r = Reader::new(payload);
        let ckpt = Checkpoint {
            spec_json: r.str()?,
            workload: r.str()?,
            seed: r.u64()?,
            ops: r.u64()?,
            state: r.bytes()?,
        };
        r.finish()?;
        Ok(ckpt)
    }

    /// Writes the checkpoint atomically to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> Result<(), RestoreError> {
        atomic_write(path, &self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`. The read goes
    /// through [`baryon_sim::faultfs`], so chaos runs exercise read-side
    /// bit flips here.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] for I/O failures and every malformation.
    pub fn read_from(path: &Path) -> Result<Self, RestoreError> {
        Self::from_bytes(&faultfs::read_file(path)?)
    }

    /// Writes this checkpoint into `dir` as `<prefix>-<ops>.ckpt` and
    /// prunes older rotation members beyond `keep` (newest by op count
    /// survive). Returns the written path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; pruning failures of individual stale
    /// files are ignored (the next rotation retries).
    pub fn save_rotating(
        &self,
        dir: &Path,
        prefix: &str,
        keep: usize,
    ) -> Result<PathBuf, RestoreError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{prefix}-{:020}.ckpt", self.ops));
        self.write_to(&path)?;
        let mut members = rotation_members(dir, prefix)?;
        members.sort();
        let stale = members.len().saturating_sub(keep.max(1));
        for old in &members[..stale] {
            let _ = std::fs::remove_file(old);
        }
        Ok(path)
    }

    /// The newest rotation member in `dir` for `prefix` that actually
    /// parses, if any. Unreadable or corrupt members are skipped (left in
    /// place), never returned and never an error: a rotting newest
    /// checkpoint must cost at most some replay, not the restore.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures (a missing directory is `None`).
    pub fn latest_in(dir: &Path, prefix: &str) -> Result<Option<PathBuf>, RestoreError> {
        Ok(Self::latest_valid_in_impl(dir, prefix, false)?.newest_valid)
    }

    /// The fallback ladder: like [`Checkpoint::latest_in`], but corrupt
    /// members newer than the returned one are *quarantined* — renamed
    /// with a `.bad` suffix so they leave the rotation and can be
    /// inspected post-mortem — and counted in the returned
    /// [`ValidScan::quarantined`].
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures (a missing directory is an
    /// empty scan).
    pub fn latest_valid_in(dir: &Path, prefix: &str) -> Result<ValidScan, RestoreError> {
        Self::latest_valid_in_impl(dir, prefix, true)
    }

    fn latest_valid_in_impl(
        dir: &Path,
        prefix: &str,
        quarantine: bool,
    ) -> Result<ValidScan, RestoreError> {
        let mut scan = ValidScan::default();
        if !dir.exists() {
            return Ok(scan);
        }
        let mut members = rotation_members(dir, prefix)?;
        members.sort();
        for path in members.into_iter().rev() {
            match Checkpoint::read_from(&path) {
                Ok(_) => {
                    scan.newest_valid = Some(path);
                    return Ok(scan);
                }
                Err(_) => {
                    scan.quarantined += 1;
                    if quarantine {
                        let bad = path.with_file_name(format!(
                            "{}.bad",
                            path.file_name().and_then(|n| n.to_str()).unwrap_or("ckpt")
                        ));
                        // Best effort: a failed rename still skips the file.
                        let _ = std::fs::rename(&path, &bad);
                    }
                }
            }
        }
        Ok(scan)
    }
}

/// Result of a [`Checkpoint::latest_valid_in`] ladder scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidScan {
    /// The newest member that parsed, if any survived.
    pub newest_valid: Option<PathBuf>,
    /// How many newer members failed validation (and, for
    /// `latest_valid_in`, were renamed `.bad`).
    pub quarantined: u64,
}

fn rotation_members(dir: &Path, prefix: &str) -> Result<Vec<PathBuf>, RestoreError> {
    let mut members = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(prefix) && name.ends_with(".ckpt") {
            members.push(path);
        }
    }
    Ok(members)
}

/// Writes `bytes` to `path` via a temporary sibling file and an atomic
/// rename, so readers never observe a partially written file. Shared by
/// checkpoints and the result-JSON writers.
///
/// # Errors
///
/// Propagates filesystem errors (the temp file is cleaned up on failure).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!("{name}.tmp")),
        None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("not a file path: {}", path.display()),
            ))
        }
    };
    // Through faultfs: chaos runs inject ENOSPC / short writes / silent
    // corruption here, underneath every checkpoint and result-JSON write.
    faultfs::write_file(&tmp, bytes).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            spec_json: r#"{"workload":"505.mcf_r"}"#.to_owned(),
            workload: "505.mcf_r".to_owned(),
            seed: 12345,
            ops: 40_000,
            state: (0..=255u8).cycle().take(4096).collect(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("baryon-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let loaded = Checkpoint::from_bytes(&c.to_bytes()).expect("own output loads");
        assert_eq!(loaded, c);
    }

    #[test]
    fn truncation_at_every_boundary_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut]).expect_err("torn file");
            assert!(
                matches!(err, RestoreError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_in_payload_is_detected() {
        let c = sample();
        let base = c.to_bytes();
        for i in (HEADER_LEN..base.len()).step_by(97) {
            let mut bytes = base.clone();
            bytes[i] ^= 0x40;
            assert!(
                matches!(
                    Checkpoint::from_bytes(&bytes),
                    Err(RestoreError::Corrupt { .. })
                ),
                "flip at {i} undetected"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(RestoreError::BadMagic(_))
        ));
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(RestoreError::BadVersion(99))
        ));
    }

    #[test]
    fn trailing_garbage_after_payload_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0xAB);
        // The declared length bounds the payload, so trailing bytes are
        // ignored by design (rotation-safe); the CRC still covers the
        // declared payload exactly.
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("out.bin");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["out.bin"], "no temp files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_newest_k() {
        let dir = tmp_dir("rotate");
        let mut c = sample();
        for ops in [100u64, 200, 300, 400] {
            c.ops = ops;
            c.save_rotating(&dir, "run", 2).expect("save");
        }
        let latest = Checkpoint::latest_in(&dir, "run")
            .expect("scan")
            .expect("exists");
        assert_eq!(Checkpoint::read_from(&latest).expect("load").ops, 400);
        let count = std::fs::read_dir(&dir).expect("dir").count();
        assert_eq!(count, 2, "older members pruned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_in_missing_dir_is_none() {
        let dir = std::env::temp_dir().join("baryon-ckpt-test-definitely-missing");
        assert!(Checkpoint::latest_in(&dir, "run").expect("ok").is_none());
    }

    /// Writes rotation members at the given op counts, then corrupts the
    /// members whose op counts appear in `rot`.
    fn seeded_rotation(dir: &Path, ops_list: &[u64], rot: &[u64]) {
        let mut c = sample();
        for &ops in ops_list {
            c.ops = ops;
            c.save_rotating(dir, "run", ops_list.len()).expect("save");
        }
        for &ops in rot {
            let path = dir.join(format!("run-{ops:020}.ckpt"));
            let mut bytes = std::fs::read(&path).expect("member exists");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("corrupt");
        }
    }

    #[test]
    fn latest_in_skips_corrupt_members_without_touching_them() {
        let dir = tmp_dir("skip-corrupt");
        seeded_rotation(&dir, &[100, 200, 300], &[300]);
        let latest = Checkpoint::latest_in(&dir, "run")
            .expect("scan")
            .expect("an older member parses");
        assert_eq!(Checkpoint::read_from(&latest).expect("load").ops, 200);
        // Non-quarantining scan leaves the corrupt file in place.
        assert!(dir.join(format!("run-{:020}.ckpt", 300u64)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_in_skips_garbage_files_in_rotation() {
        let dir = tmp_dir("skip-garbage");
        seeded_rotation(&dir, &[100], &[]);
        // A zero-byte file and a non-checkpoint blob sort newest.
        std::fs::write(dir.join(format!("run-{:020}.ckpt", 500u64)), b"").expect("empty");
        std::fs::write(dir.join(format!("run-{:020}.ckpt", 400u64)), b"not a ckpt")
            .expect("garbage");
        let latest = Checkpoint::latest_in(&dir, "run")
            .expect("scan")
            .expect("valid member found");
        assert_eq!(Checkpoint::read_from(&latest).expect("load").ops, 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_in_quarantines_newer_corruption() {
        let dir = tmp_dir("quarantine");
        seeded_rotation(&dir, &[100, 200, 300, 400], &[300, 400]);
        let scan = Checkpoint::latest_valid_in(&dir, "run").expect("scan");
        assert_eq!(scan.quarantined, 2);
        let survivor = scan.newest_valid.expect("gen 200 survives");
        assert_eq!(Checkpoint::read_from(&survivor).expect("load").ops, 200);
        // The corrupt members left the rotation under a .bad suffix …
        assert!(dir.join(format!("run-{:020}.ckpt.bad", 400u64)).exists());
        assert!(dir.join(format!("run-{:020}.ckpt.bad", 300u64)).exists());
        // … so the next scan is clean.
        let rescan = Checkpoint::latest_valid_in(&dir, "run").expect("rescan");
        assert_eq!(rescan.quarantined, 0);
        assert_eq!(rescan.newest_valid.as_deref(), Some(survivor.as_path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_rotten_rotation_scans_to_empty() {
        let dir = tmp_dir("all-rotten");
        seeded_rotation(&dir, &[100, 200], &[100, 200]);
        let scan = Checkpoint::latest_valid_in(&dir, "run").expect("scan");
        assert_eq!(scan.newest_valid, None);
        assert_eq!(scan.quarantined, 2, "both members quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
