//! Versioned, checksummed checkpoint container and the stores that hold it.
//!
//! A checkpoint is a self-describing binary blob:
//!
//! ```text
//! magic    8 bytes   b"HLMCKPT\0"
//! version  4 bytes   u32 LE (currently 1)
//! kind_len 4 bytes   u32 LE
//! kind     kind_len  UTF-8 trainer kind (e.g. "lda-gibbs")
//! iter     8 bytes   u64 LE iteration the payload captures
//! pay_len  8 bytes   u64 LE payload length
//! checksum 8 bytes   u64 LE FNV-1a over kind + iter + payload
//! payload  pay_len   trainer-defined bytes
//! ```
//!
//! Decoding validates the exact total length and the checksum, so flipping or
//! truncating any single byte of an encoded checkpoint is detected.

use crate::error::ResilienceError;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

const MAGIC: &[u8; 8] = b"HLMCKPT\0";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;

/// One serialized training snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Trainer kind tag, checked on resume (e.g. `"lstm"`, `"lda-gibbs"`).
    pub kind: String,
    /// Number of completed iterations the payload captures.
    pub iteration: u64,
    /// Trainer-defined serialized state.
    pub payload: Vec<u8>,
}

/// FNV-1a, 64-bit. Not cryptographic; it only needs to catch corruption.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Checkpoint {
    /// Build a checkpoint for `kind` at `iteration` from trainer state bytes.
    pub fn new(kind: &str, iteration: u64, payload: Vec<u8>) -> Self {
        Checkpoint {
            kind: kind.to_string(),
            iteration,
            payload,
        }
    }

    fn checksum(&self) -> u64 {
        fnv1a(&[
            self.kind.as_bytes(),
            &self.iteration.to_le_bytes(),
            &self.payload,
        ])
    }

    /// Serialize to the container format described in the module docs.
    pub fn encode(&self) -> Vec<u8> {
        let kind = self.kind.as_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + kind.len() + self.payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(kind.len() as u32).to_le_bytes());
        out.extend_from_slice(kind);
        out.extend_from_slice(&self.iteration.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.checksum().to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse and validate an encoded checkpoint. Any structural damage —
    /// wrong magic, unknown version, bad lengths, checksum mismatch, trailing
    /// garbage — yields [`ResilienceError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<Self, ResilienceError> {
        let mut fields = Fields { bytes, pos: 0 };
        if fields.take(8)? != MAGIC {
            return Err(ResilienceError::corrupt("checkpoint has a bad magic"));
        }
        let version = u32::from_le_bytes(fields.array()?);
        if version != VERSION {
            return Err(ResilienceError::corrupt(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let kind_len = u32::from_le_bytes(fields.array()?) as usize;
        let kind = std::str::from_utf8(fields.take(kind_len)?)
            .map_err(|_| ResilienceError::corrupt("checkpoint kind is not UTF-8"))?
            .to_string();
        let iteration = u64::from_le_bytes(fields.array()?);
        let payload_len = u64::from_le_bytes(fields.array()?);
        let stored_checksum = u64::from_le_bytes(fields.array()?);
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| ResilienceError::corrupt("checkpoint payload length overflows usize"))?;
        let payload = fields.take(payload_len)?.to_vec();
        if fields.pos != bytes.len() {
            return Err(ResilienceError::corrupt(
                "trailing bytes after checkpoint payload",
            ));
        }
        let ckpt = Checkpoint {
            kind,
            iteration,
            payload,
        };
        if ckpt.checksum() != stored_checksum {
            return Err(ResilienceError::corrupt("checkpoint checksum mismatch"));
        }
        Ok(ckpt)
    }
}

/// Byte-level storage for checkpoints. The filesystem implementation is
/// [`FsIo`]; tests wrap it (or [`MemIo`]) in a fault-injecting
/// [`crate::fault::FaultyIo`].
pub trait CheckpointIo: Send + Sync {
    /// Atomically persist `bytes` under `name`.
    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), ResilienceError>;
    /// Read back the bytes stored under `name`.
    fn read(&self, name: &str) -> Result<Vec<u8>, ResilienceError>;
    /// List stored names in unspecified order.
    fn list(&self) -> Result<Vec<String>, ResilienceError>;
}

/// Filesystem-backed checkpoint IO. Writes go to a `.tmp` sibling and are
/// renamed into place so a crash mid-write never leaves a half-written file
/// under the final name.
pub struct FsIo {
    dir: PathBuf,
}

impl FsIo {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, ResilienceError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| ResilienceError::io("create-dir", e))?;
        Ok(FsIo { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl CheckpointIo for FsIo {
    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), ResilienceError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let dst = self.dir.join(name);
        std::fs::write(&tmp, bytes).map_err(|e| ResilienceError::io("write", e))?;
        std::fs::rename(&tmp, &dst).map_err(|e| ResilienceError::io("rename", e))?;
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, ResilienceError> {
        std::fs::read(self.dir.join(name)).map_err(|e| ResilienceError::io("read", e))
    }

    fn list(&self) -> Result<Vec<String>, ResilienceError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| ResilienceError::io("list", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| ResilienceError::io("list", e))?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.ends_with(".tmp") {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }
}

/// Reads an encoded checkpoint's fields front to back.
struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    /// The next `n` bytes, or `Corrupt` if the input ends first.
    fn take(&mut self, n: usize) -> Result<&'a [u8], ResilienceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ResilienceError::corrupt("unexpected end of checkpoint"))?;
        let field = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(field)
    }

    /// The next `N` bytes as a fixed-size field.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ResilienceError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
}

/// In-memory checkpoint IO for unit tests and fault-injection suites.
#[derive(Default)]
pub struct MemIo {
    files: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemIo {
    /// Empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MemIo {
    /// The file map. Each operation on it is a single insert or lookup, so a
    /// panic elsewhere while it was held cannot leave it half-written: a
    /// poisoned lock is taken as it stands.
    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.files.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CheckpointIo for MemIo {
    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), ResilienceError> {
        self.files().insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, ResilienceError> {
        self.files()
            .get(name)
            .cloned()
            .ok_or_else(|| ResilienceError::io("read", format!("no such checkpoint: {name}")))
    }

    fn list(&self) -> Result<Vec<String>, ResilienceError> {
        Ok(self.files().keys().cloned().collect())
    }
}

/// A directory of numbered checkpoints for one training run, with recovery:
/// `latest_good` scans from the newest checkpoint backwards, skipping any
/// that fail validation, so one corrupted file degrades to the previous
/// snapshot instead of killing the resume.
pub struct CheckpointStore {
    io: Box<dyn CheckpointIo>,
    /// How many recent checkpoints to keep; older ones are ignored (the
    /// store never deletes, so a shared directory stays append-only).
    keep: usize,
}

fn name_for(iteration: u64) -> String {
    // Zero-padded so lexicographic order equals numeric order.
    format!("ckpt-{iteration:012}.hlm")
}

fn iteration_of(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".hlm")?;
    stem.parse().ok()
}

impl CheckpointStore {
    /// Wrap a byte store. `keep` bounds how far back `latest_good` scans.
    pub fn new(io: Box<dyn CheckpointIo>) -> Self {
        CheckpointStore { io, keep: 8 }
    }

    /// Filesystem store rooted at `dir`.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Result<Self, ResilienceError> {
        Ok(CheckpointStore::new(Box::new(FsIo::new(dir)?)))
    }

    /// Persist `ckpt` under its iteration-derived name.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<(), ResilienceError> {
        self.io.write(&name_for(ckpt.iteration), &ckpt.encode())
    }

    /// Load and validate the checkpoint for an exact iteration.
    pub fn load(&self, iteration: u64) -> Result<Checkpoint, ResilienceError> {
        Checkpoint::decode(&self.io.read(&name_for(iteration))?)
    }

    /// Newest checkpoint of `kind` that decodes and validates cleanly, or
    /// `None` if the store holds nothing usable. Corrupt or truncated files
    /// are skipped, which is what makes resume robust to a torn final write.
    pub fn latest_good(&self, kind: &str) -> Result<Option<Checkpoint>, ResilienceError> {
        let mut iters: Vec<u64> = self
            .io
            .list()?
            .iter()
            .filter_map(|n| iteration_of(n))
            .collect();
        iters.sort_unstable();
        for &iter in iters.iter().rev().take(self.keep) {
            let bytes = match self.io.read(&name_for(iter)) {
                Ok(b) => b,
                Err(_) => continue,
            };
            match Checkpoint::decode(&bytes) {
                Ok(ckpt) if ckpt.kind == kind => return Ok(Some(ckpt)),
                _ => continue,
            }
        }
        Ok(None)
    }
}

/// Where trainers hand completed-iteration snapshots. Implementations decide
/// persistence; trainers only call [`CheckpointSink::save`] at iteration
/// boundaries.
pub trait CheckpointSink {
    /// Persist one snapshot. Errors are surfaced to the training-control
    /// policy, which decides whether a failed save aborts the run.
    fn save(&self, ckpt: &Checkpoint) -> Result<(), ResilienceError>;
}

impl CheckpointSink for CheckpointStore {
    fn save(&self, ckpt: &Checkpoint) -> Result<(), ResilienceError> {
        CheckpointStore::save(self, ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint::new("lda-gibbs", 42, b"{\"alpha\":0.5}".to_vec())
    }

    #[test]
    fn roundtrip() {
        let ckpt = sample();
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let ckpt = Checkpoint::new("lstm", 0, Vec::new());
        assert_eq!(Checkpoint::decode(&ckpt.encode()).unwrap(), ckpt);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x01;
            assert!(
                Checkpoint::decode(&damaged).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn store_returns_newest_checkpoint() {
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        for iter in [1u64, 2, 3] {
            store
                .save(&Checkpoint::new("lstm", iter, vec![iter as u8; 4]))
                .unwrap();
        }
        let latest = store.latest_good("lstm").unwrap().unwrap();
        assert_eq!(latest.iteration, 3);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_good() {
        let io = MemIo::new();
        io.write(&name_for(1), &Checkpoint::new("lstm", 1, vec![1]).encode())
            .unwrap();
        io.write(&name_for(2), &Checkpoint::new("lstm", 2, vec![2]).encode())
            .unwrap();
        let mut bad = Checkpoint::new("lstm", 3, vec![3, 3]).encode();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        io.write(&name_for(3), &bad).unwrap();
        let store = CheckpointStore::new(Box::new(io));
        let latest = store.latest_good("lstm").unwrap().unwrap();
        assert_eq!(latest.iteration, 2, "corrupt newest must fall back");
    }

    #[test]
    fn latest_good_filters_by_kind_and_handles_empty() {
        let io = MemIo::new();
        io.write(
            &name_for(5),
            &Checkpoint::new("lda-gibbs", 5, vec![9]).encode(),
        )
        .unwrap();
        let store = CheckpointStore::new(Box::new(io));
        assert!(store.latest_good("lstm").unwrap().is_none());
        assert_eq!(
            store.latest_good("lda-gibbs").unwrap().unwrap().iteration,
            5
        );

        let empty = CheckpointStore::new(Box::new(MemIo::new()));
        assert!(empty.latest_good("lstm").unwrap().is_none());
    }

    #[test]
    fn fs_io_roundtrips_and_lists() {
        let dir = std::env::temp_dir().join(format!("hlm-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = FsIo::new(&dir).unwrap();
        io.write("ckpt-000000000001.hlm", b"abc").unwrap();
        assert_eq!(io.read("ckpt-000000000001.hlm").unwrap(), b"abc");
        assert_eq!(io.list().unwrap(), vec!["ckpt-000000000001.hlm"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
