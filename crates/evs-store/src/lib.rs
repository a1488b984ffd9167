//! Durable stable storage for the extended-virtual-synchrony stack.
//!
//! §2 of the paper assumes that a failed process "may subsequently recover
//! with its stable storage intact". This crate is that stable storage: a
//! write-ahead log plus snapshot store behind the minimal [`Storage`]
//! trait (`append`, `sync`, `snapshot`, `replay`). Two implementations are
//! provided:
//!
//! * [`FileStorage`] — an on-disk WAL with CRC-checked, length-delimited
//!   records, segment rotation, snapshot-triggered compaction, and
//!   torn-write truncation on replay (a partial tail record — the signature
//!   of a `kill -9` mid-write — is discarded, never a panic and never an
//!   error).
//! * [`NullStorage`] — an in-memory stand-in with identical semantics,
//!   keeping the deterministic simulator and the benchmarks in one flat
//!   buffer while still exercising every persist point.
//!
//! The record format is `[len: u32 LE][crc32: u32 LE][payload]`. The CRC
//! covers the payload only; the length field is validated against a hard
//! ceiling ([`MAX_RECORD`]) so a corrupt length can never trigger an
//! absurd allocation. Replay distinguishes the two ways a log can be
//! damaged:
//!
//! * a **torn tail** — a partial final record with nothing valid after it,
//!   the signature of a `kill -9` mid-write — is truncated away;
//! * a **mid-log corruption** — a record whose CRC fails but which is
//!   followed by further valid records, the signature of in-place bit rot —
//!   is *resynchronized over*: the scan skips forward to the next valid
//!   frame, keeps everything after the damage, counts the gap
//!   ([`Scan::gaps`] / [`Replay::corrupt_gaps`]) and rewrites the segment
//!   so the next replay sees a clean log. Treating bit rot like a torn
//!   tail would silently discard every record after the flipped bit —
//!   including id leases and failure marks whose loss breaks Spec 1.4.
//!
//! Callers that know the record semantics layer typed validation on top:
//! a CRC-valid record with an impossible payload (unknown tag, absurd
//! length) is rejected with a [`ReplayError`] rather than folded or
//! panicked on — the engine maps it to excommunicate-and-rebuild.
//!
//! This crate is deliberately std-only with no dependencies: it sits at
//! the bottom of the workspace next to `evs-telemetry`, so every layer can
//! persist through it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Hard ceiling on a single record's payload (16 MiB). A corrupt length
/// field larger than this marks the record — and everything after it — as
/// torn.
pub const MAX_RECORD: usize = 1 << 24;

/// Bytes of framing per record: a `u32` length plus a `u32` CRC.
pub const RECORD_HEADER: usize = 8;

/// Default segment-rotation threshold for [`FileStorage`] (256 KiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 256 * 1024;

// ---- CRC-32 (IEEE 802.3 polynomial, the one everyone means) ----

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of a byte slice — the checksum stored in every record
/// header. Public so tests and tools can verify frames independently.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frames one record (`[len][crc][payload]`) into `out`.
pub fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_RECORD, "record over MAX_RECORD");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A CRC-valid record whose *contents* are impossible, or an unusable
/// snapshot. CRC framing catches media damage; this type is the layer
/// above it — the typed rejection for records the persistence schema
/// cannot have written. The engine never folds such a record: it maps a
/// `ReplayError` to excommunicate-and-rebuild (fresh incarnation, lease
/// ceiling skipped past anything the damage could have hidden).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// Record `index` carries a tag no schema version ever wrote.
    UnknownTag {
        /// Zero-based position of the record in the replayed sequence.
        index: usize,
        /// The first payload byte (the tag) that nothing recognizes.
        tag: u8,
    },
    /// Record `index` has a recognized tag but a payload length that tag
    /// can never produce.
    BadLength {
        /// Zero-based position of the record in the replayed sequence.
        index: usize,
        /// The record's tag byte.
        tag: u8,
        /// The impossible payload length observed.
        len: usize,
    },
    /// Record `index` is empty — no schema writes a zero-byte record.
    EmptyRecord {
        /// Zero-based position of the record in the replayed sequence.
        index: usize,
    },
    /// Record `index` parses structurally but its trailing integrity word
    /// disagrees with the payload: the *values* were rewritten after the
    /// record was sealed (post-CRC damage, or a fault injector editing the
    /// medium underneath the framing layer).
    ValueDamage {
        /// Zero-based position of the record in the replayed sequence.
        index: usize,
        /// The record's (intact-looking) tag byte.
        tag: u8,
    },
    /// The snapshot blob exists but cannot be decoded.
    BadSnapshot,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownTag { index, tag } => {
                write!(f, "record {index}: unknown tag 0x{tag:02X}")
            }
            ReplayError::BadLength { index, tag, len } => {
                write!(
                    f,
                    "record {index}: tag 0x{tag:02X} with impossible length {len}"
                )
            }
            ReplayError::EmptyRecord { index } => write!(f, "record {index}: empty payload"),
            ReplayError::ValueDamage { index, tag } => {
                write!(
                    f,
                    "record {index}: tag 0x{tag:02X} fails its integrity word (values rewritten)"
                )
            }
            ReplayError::BadSnapshot => write!(f, "snapshot present but undecodable"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Every valid record a log buffer holds, plus a damage report.
///
/// Scanning never fails. A truncated header, a length over [`MAX_RECORD`],
/// a payload shorter than its length field, or a CRC mismatch marks
/// damage; the scan then *resynchronizes* — it probes forward for the next
/// offset holding a valid non-empty frame and keeps decoding from there.
/// Damage with valid frames after it is a corruption **gap** (in-place bit
/// rot); damage with nothing valid after it is the **torn tail** of a
/// `kill -9` mid-write. `clean_len` is the byte offset of the first
/// damaged byte (or the end of the scan when nothing was damaged), and
/// `scanned` is where decoding stopped — `scanned < input.len()` means a
/// torn tail remains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scan {
    /// Every fully-validated record payload, in log order (records after
    /// a resynchronized gap included).
    pub records: Vec<Vec<u8>>,
    /// Length of the clean prefix in bytes (offset of the first damage).
    pub clean_len: usize,
    /// Byte offset where decoding stopped; bytes past it are a torn tail.
    pub scanned: usize,
    /// Number of mid-log corruption gaps resynchronized over.
    pub gaps: u64,
    /// Total bytes skipped inside those gaps.
    pub gap_bytes: u64,
    /// Where each gap sits, as indices into [`Scan::records`]: a gap at
    /// position `i` was skipped after `i` records had decoded, i.e. it
    /// lies between record `i - 1` and record `i`. Positional evidence
    /// for the replay fold: damage *before* a later intact record cannot
    /// hide anything newer than that record.
    pub gap_positions: Vec<u64>,
}

/// Decodes the frame at `bytes[at..]`, returning its payload and the
/// offset just past it — or `None` if no valid frame starts there.
fn frame_at(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    if bytes.len().saturating_sub(at) < RECORD_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
    if len > MAX_RECORD || bytes.len() - at - RECORD_HEADER < len {
        return None;
    }
    let payload = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, at + RECORD_HEADER + len))
}

/// Decodes every valid framed record in `bytes`, resynchronizing over
/// mid-log corruption. See [`Scan`] for the gap / torn-tail semantics.
pub fn scan_records(bytes: &[u8]) -> Scan {
    let mut scan = Scan::default();
    let mut first_damage: Option<usize> = None;
    let mut at = 0usize;
    while at < bytes.len() {
        if let Some((payload, next)) = frame_at(bytes, at) {
            scan.records.push(payload.to_vec());
            at = next;
            continue;
        }
        // Damage at `at`. Probe forward for the next valid *non-empty*
        // frame — an empty frame (len 0, CRC 0) is eight zero bytes, far
        // too easy to find inside garbage to resynchronize on.
        if first_damage.is_none() {
            first_damage = Some(at);
        }
        let mut resync = None;
        let mut probe = at + 1;
        while probe + RECORD_HEADER <= bytes.len() {
            if let Some((payload, _)) = frame_at(bytes, probe) {
                if !payload.is_empty() {
                    resync = Some(probe);
                    break;
                }
            }
            probe += 1;
        }
        match resync {
            Some(next) => {
                scan.gaps += 1;
                scan.gap_bytes += (next - at) as u64;
                scan.gap_positions.push(scan.records.len() as u64);
                at = next;
            }
            // Nothing valid follows: a torn tail, not a gap.
            None => break,
        }
    }
    scan.scanned = at;
    scan.clean_len = first_damage.unwrap_or(at);
    scan
}

/// Everything a [`Storage::replay`] recovered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// The most recent snapshot, if one was ever taken (and is intact).
    pub snapshot: Option<Vec<u8>>,
    /// Every record appended after that snapshot, in append order.
    pub records: Vec<Vec<u8>>,
    /// True if the medium held any persisted state at all — a snapshot
    /// file or at least one log segment, even a fully torn one. The
    /// `silent_state_loss` anomaly detector keys on `wal_present` with no
    /// snapshot and zero records: storage existed but nothing replayed.
    pub wal_present: bool,
    /// Bytes discarded as torn or corrupt (partial tail writes plus
    /// resynchronized gap bytes).
    pub torn_bytes: u64,
    /// Mid-log corruption gaps resynchronized over — in-place bit rot,
    /// not torn tails. Each gap may have swallowed at most the records
    /// it covered; the engine widens its id-lease skip accordingly.
    pub corrupt_gaps: u64,
    /// Where each gap sits, as indices into [`Replay::records`] (the
    /// per-segment [`Scan::gap_positions`], offset into the global record
    /// sequence). A value equal to `records.len()` means damage after the
    /// last decodable record. The fold uses these to decide *positionally*
    /// whether a gap can hide a newer configuration install, instead of
    /// distrusting the whole log.
    pub gap_positions: Vec<u64>,
}

impl Replay {
    /// True if nothing was recovered (fresh medium, or everything torn).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }
}

/// The paper's stable storage: an append-only log with snapshots.
///
/// The contract every implementation upholds:
///
/// * `append` stages a record; after `sync` returns, every record appended
///   so far survives process death ([`FileStorage`] additionally writes
///   through to the operating system on every append, so a `kill -9`
///   loses at most the record being written — never a synced one).
/// * `snapshot` atomically replaces the entire log with one state blob:
///   a subsequent `replay` returns that blob plus only the records
///   appended after it (log compaction).
/// * `replay` never fails on torn or corrupt data — it returns the
///   longest clean prefix and truncates the damage away.
pub trait Storage: Send {
    /// Appends one record to the log.
    fn append(&mut self, record: &[u8]) -> io::Result<()>;

    /// Forces everything appended so far to durable storage.
    fn sync(&mut self) -> io::Result<()>;

    /// Replaces the log with a single state blob (compaction point).
    fn snapshot(&mut self, state: &[u8]) -> io::Result<()>;

    /// Recovers the snapshot and the post-snapshot records.
    fn replay(&mut self) -> io::Result<Replay>;

    /// Fault injection: flip one byte (xor `0xFF`) inside the payload of
    /// the `record`-th live post-snapshot record (both indices wrap, so
    /// any seed hits *some* byte). Models in-place media bit rot for the
    /// chaos corruption vocabulary. Returns `true` if a record existed to
    /// corrupt. The default is a no-op so ordinary backends are untouched.
    fn corrupt_record_byte(&mut self, record: u64, offset: u64) -> io::Result<bool> {
        let _ = (record, offset);
        Ok(false)
    }

    /// Fault injection: tail rot destroying at least `bytes` trailing
    /// bytes of the log, rounded up to whole records. A destroyed record
    /// leaves a scar (an empty record) behind — real media keep evidence
    /// where a frame used to be, which is what lets the replay fold
    /// distinguish injected rot from an ordinary crash mid-write (whose
    /// file simply ends). Returns the bytes actually invalidated (0 when
    /// the log is empty). Default is a no-op.
    fn truncate_tail(&mut self, bytes: u64) -> io::Result<u64> {
        let _ = bytes;
        Ok(0)
    }
}

/// In-memory [`Storage`]: identical semantics, no I/O.
///
/// The deterministic simulator keeps each node object alive across a
/// simulated crash, so an in-memory log is a faithful model of a disk that
/// survived the process — while the hot path stays one flat buffer: an
/// append copies the record onto the end of `log` and pushes its end
/// offset, so the log costs a handful of doublings, not one allocation per
/// record, and a snapshot keeps both buffers, sized to the round it
/// compacted, for the next one.
#[derive(Clone, Debug)]
pub struct NullStorage {
    snapshot: Option<Vec<u8>>,
    /// Every post-snapshot record's bytes, back to back.
    log: Vec<u8>,
    /// Where each record ends in `log`, in append order.
    ends: Vec<usize>,
}

/// Initial capacity of [`NullStorage`]'s byte log: one page, so the first
/// few dozen records need no growth at all.
const NULL_LOG_START: usize = 4096;

impl Default for NullStorage {
    fn default() -> Self {
        NullStorage {
            snapshot: None,
            log: Vec::with_capacity(NULL_LOG_START),
            ends: Vec::new(),
        }
    }
}

impl NullStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The byte range of record `i` in `log`.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        start..self.ends[i]
    }
}

impl Storage for NullStorage {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        self.log.extend_from_slice(record);
        self.ends.push(self.log.len());
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn snapshot(&mut self, state: &[u8]) -> io::Result<()> {
        self.snapshot = Some(state.to_vec());
        // Keep room for another round like the one just compacted, an
        // eighth to spare, and give back what doubling overshot: the next
        // round appends without allocating, yet the log does not hold up
        // to twice its working size for good.
        self.log.shrink_to(self.log.len() + self.log.len() / 8);
        self.ends.shrink_to(self.ends.len() + self.ends.len() / 8);
        self.log.clear();
        self.ends.clear();
        Ok(())
    }

    fn replay(&mut self) -> io::Result<Replay> {
        Ok(Replay {
            snapshot: self.snapshot.clone(),
            records: (0..self.ends.len())
                .map(|i| self.log[self.span(i)].to_vec())
                .collect(),
            wal_present: self.snapshot.is_some() || !self.ends.is_empty(),
            torn_bytes: 0,
            corrupt_gaps: 0,
            gap_positions: Vec::new(),
        })
    }

    fn corrupt_record_byte(&mut self, record: u64, offset: u64) -> io::Result<bool> {
        // The in-memory store holds bare payloads (no CRC framing), so a
        // flipped byte surfaces as a semantically-poisoned record at the
        // persistence layer rather than a CRC gap — the other half of the
        // corruption space, exercised on the simulator.
        if self.ends.is_empty() {
            return Ok(false);
        }
        let span = self.span((record % self.ends.len() as u64) as usize);
        if span.is_empty() {
            return Ok(false);
        }
        let at = span.start + (offset % span.len() as u64) as usize;
        self.log[at] ^= 0xFF;
        Ok(true)
    }

    fn truncate_tail(&mut self, bytes: u64) -> io::Result<u64> {
        // Tail rot destroys whole trailing records up to the byte budget.
        // A destroyed record is not an *absent* one: real media keep a
        // scar where each frame used to be (zeroed extents, a file that
        // still exists), so every destroyed record leaves an empty record
        // behind. Replay then sees evidence rather than a shorter-but-
        // plausible history: the fold poisons each scar, widens the
        // id-lease skip past anything the lost records could have leased,
        // and stops trusting an undead configuration the rot may have
        // superseded.
        if bytes == 0 {
            return Ok(0);
        }
        let mut destroyed = 0u64;
        let mut scars = 0usize;
        while destroyed < bytes && !self.ends.is_empty() {
            let span = self.span(self.ends.len() - 1);
            destroyed += (RECORD_HEADER + span.len()) as u64;
            scars += 1;
            self.ends.pop();
            self.log.truncate(span.start);
        }
        let end = self.log.len();
        self.ends.resize(self.ends.len() + scars, end);
        Ok(destroyed)
    }
}

/// Name of the snapshot blob inside a [`FileStorage`] directory.
const SNAPSHOT_FILE: &str = "snapshot.bin";

/// On-disk write-ahead log: one directory per process.
///
/// Layout: `wal-<seq>.log` segments (monotone `seq`, rotated at
/// [`DEFAULT_SEGMENT_BYTES`]) plus an optional `snapshot.bin`. Every open
/// starts a fresh segment, so an incarnation never appends behind a torn
/// tail; replay truncates torn tails in place and ignores segments past
/// the first damage.
///
/// Appends are unbuffered `write(2)` calls: once `append` returns, the
/// bytes are in the operating system and survive `kill -9`. `sync` adds
/// the `fdatasync` that survives machine death — the engine calls it at
/// the paper's §3 recovery-step boundaries.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    active: Option<File>,
    active_seq: u64,
    active_len: u64,
    segment_bytes: u64,
    scratch: Vec<u8>,
}

impl FileStorage {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`FileStorage::open`] with a custom rotation threshold (tests use a
    /// tiny one to force rotation quickly).
    pub fn with_segment_bytes(dir: impl AsRef<Path>, segment_bytes: u64) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let next_seq = segment_seqs(&dir)?.last().map_or(0, |s| s + 1);
        Ok(FileStorage {
            dir,
            active: None,
            active_seq: next_seq,
            active_len: 0,
            segment_bytes: segment_bytes.max(1),
            scratch: Vec::with_capacity(256),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("wal-{seq}.log"))
    }

    fn active_file(&mut self) -> io::Result<&mut File> {
        if self.active.is_none() {
            let path = self.segment_path(self.active_seq);
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            self.active_len = file.metadata()?.len();
            self.active = Some(file);
        }
        Ok(self.active.as_mut().expect("opened above"))
    }
}

/// Segment sequence numbers present in `dir`, ascending.
fn segment_seqs(dir: &Path) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(seq) = name
                    .strip_prefix("wal-")
                    .and_then(|rest| rest.strip_suffix(".log"))
                    .and_then(|n| n.parse::<u64>().ok())
                {
                    seqs.push(seq);
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    seqs.sort_unstable();
    Ok(seqs)
}

impl Storage for FileStorage {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        encode_record(record, &mut frame);
        let file = self.active_file()?;
        let result = file.write_all(&frame);
        let grew = frame.len() as u64;
        self.scratch = frame;
        result?;
        self.active_len += grew;
        if self.active_len >= self.segment_bytes {
            // Rotate: the next append opens a fresh segment.
            self.active = None;
            self.active_seq += 1;
            self.active_len = 0;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some(file) = &mut self.active {
            file.sync_data()?;
        }
        Ok(())
    }

    fn snapshot(&mut self, state: &[u8]) -> io::Result<()> {
        // Write-new-then-rename keeps a snapshot intact or absent, never
        // half-written; only after the rename lands are the old segments
        // compacted away.
        let tmp = self.dir.join("snapshot.tmp");
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        encode_record(state, &mut frame);
        let result = (|| {
            let mut file = File::create(&tmp)?;
            file.write_all(&frame)?;
            file.sync_data()?;
            fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))
        })();
        self.scratch = frame;
        result?;
        let retired = segment_seqs(&self.dir)?;
        self.active = None;
        self.active_seq = retired.last().map_or(0, |s| s + 1);
        self.active_len = 0;
        for seq in retired {
            fs::remove_file(self.segment_path(seq))?;
        }
        Ok(())
    }

    fn replay(&mut self) -> io::Result<Replay> {
        let mut replay = Replay::default();
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        match fs::read(&snap_path) {
            Ok(bytes) => {
                replay.wal_present = true;
                let mut scan = scan_records(&bytes);
                replay.torn_bytes += (bytes.len() - scan.clean_len) as u64;
                // The snapshot file holds exactly one record by
                // construction; anything else is damage.
                if !scan.records.is_empty() {
                    replay.snapshot = Some(scan.records.swap_remove(0));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        for seq in segment_seqs(&self.dir)? {
            let path = self.segment_path(seq);
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            replay.wal_present = true;
            let scan = scan_records(&bytes);
            let tail = bytes.len() - scan.scanned;
            replay.torn_bytes += scan.gap_bytes + tail as u64;
            replay.corrupt_gaps += scan.gaps;
            let base = replay.records.len() as u64;
            replay
                .gap_positions
                .extend(scan.gap_positions.iter().map(|&g| base + g));
            if scan.gaps > 0 {
                // Mid-segment corruption: self-heal by rewriting the
                // segment from its valid records (tmp + rename, so a
                // crash mid-heal leaves the old file intact) — the next
                // replay sees a clean log and reports no damage.
                let mut clean = Vec::new();
                for rec in &scan.records {
                    encode_record(rec, &mut clean);
                }
                let tmp = self.dir.join(format!("wal-{seq}.heal"));
                let heal = (|| {
                    let mut file = File::create(&tmp)?;
                    file.write_all(&clean)?;
                    file.sync_data()?;
                    fs::rename(&tmp, &path)
                })();
                heal?;
                self.active = None;
            } else if tail > 0 {
                // Torn tail only: truncate the damage away in place so
                // the next replay sees a clean log.
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(scan.scanned as u64)?;
                self.active = None;
            }
            replay.records.extend(scan.records);
            if tail > 0 {
                // A torn tail means writing stopped mid-record here:
                // ignore any later segment — it was written after the
                // damage and cannot be trusted to follow a record we
                // discarded. (A resynchronized gap does NOT shadow later
                // segments: the records after it prove writing continued
                // cleanly; the damage is in-place rot, not a lost write.)
                break;
            }
        }
        Ok(replay)
    }

    fn corrupt_record_byte(&mut self, record: u64, offset: u64) -> io::Result<bool> {
        use std::io::{Seek, SeekFrom};
        // Count valid frames across segments to find the target record,
        // then flip one payload byte in place — the CRC header stays, so
        // the next replay sees a mid-log corruption gap.
        let mut frames: Vec<(u64, u64, usize)> = Vec::new(); // (seg, payload_pos, len)
        for seq in segment_seqs(&self.dir)? {
            let mut bytes = Vec::new();
            File::open(self.segment_path(seq))?.read_to_end(&mut bytes)?;
            let mut at = 0usize;
            while let Some((payload, next)) = frame_at(&bytes, at) {
                if !payload.is_empty() {
                    frames.push((seq, (at + RECORD_HEADER) as u64, payload.len()));
                }
                at = next;
            }
        }
        if frames.is_empty() {
            return Ok(false);
        }
        let (seq, payload_pos, len) = frames[(record % frames.len() as u64) as usize];
        let at = payload_pos + offset % len as u64;
        let path = self.segment_path(seq);
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::Start(at))?;
        let mut byte = [0u8; 1];
        file.read_exact(&mut byte)?;
        file.seek(SeekFrom::Start(at))?;
        file.write_all(&[byte[0] ^ 0xFF])?;
        file.sync_data()?;
        self.active = None;
        Ok(true)
    }

    fn truncate_tail(&mut self, bytes: u64) -> io::Result<u64> {
        if bytes == 0 {
            return Ok(0);
        }
        // Tail rot destroys whole trailing records of the last non-empty
        // segment, same physical claim as [`NullStorage::truncate_tail`]:
        // real media keep a scar where each frame used to be (zeroed
        // extents, a file that still exists), so every destroyed record is
        // replaced by an empty frame — eight zero bytes, which replay
        // decodes as an empty (semantically impossible) record. A plain
        // `set_len` would instead leave a shorter-but-plausible log,
        // indistinguishable from an ordinary crash mid-write, and the
        // replay fold would have no positional evidence that records after
        // the surviving prefix ever existed.
        for seq in segment_seqs(&self.dir)?.into_iter().rev() {
            let path = self.segment_path(seq);
            let mut raw = Vec::new();
            File::open(&path)?.read_to_end(&mut raw)?;
            if raw.is_empty() {
                continue;
            }
            // Walk the framed prefix; anything past it (a torn tail) is
            // consumed by the budget first.
            let mut starts = Vec::new();
            let mut at = 0usize;
            while let Some((_, next)) = frame_at(&raw, at) {
                starts.push(at);
                at = next;
            }
            let mut destroyed = (raw.len() - at) as u64;
            let mut scars = 0usize;
            let mut cut_at = at;
            while destroyed < bytes {
                match starts.pop() {
                    Some(start) => {
                        destroyed += (cut_at - start) as u64;
                        cut_at = start;
                        scars += 1;
                    }
                    None => break,
                }
            }
            if destroyed == 0 {
                continue;
            }
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(cut_at as u64)?;
            let mut file = file;
            use std::io::Seek;
            file.seek(io::SeekFrom::End(0))?;
            file.write_all(&vec![0u8; scars * RECORD_HEADER])?;
            file.sync_data()?;
            self.active = None;
            return Ok(destroyed);
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory under the target tmpdir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("evs-store-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn recs(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i}-{}", "x".repeat(i % 7)).into_bytes())
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn null_storage_round_trips_and_compacts() {
        let mut s = NullStorage::new();
        assert!(s.replay().unwrap().is_empty());
        s.append(b"a").unwrap();
        s.append(b"b").unwrap();
        let r = s.replay().unwrap();
        assert_eq!(r.records, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(r.wal_present);
        s.snapshot(b"state").unwrap();
        s.append(b"c").unwrap();
        let r = s.replay().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"state"[..]));
        assert_eq!(r.records, vec![b"c".to_vec()]);
    }

    #[test]
    fn file_storage_round_trips_across_reopen() {
        let dir = TempDir::new("roundtrip");
        let records = recs(10);
        {
            let mut s = FileStorage::open(dir.path()).unwrap();
            for r in &records {
                s.append(r).unwrap();
            }
            s.sync().unwrap();
        }
        // A fresh incarnation — the real recovery path.
        let mut s = FileStorage::open(dir.path()).unwrap();
        let r = s.replay().unwrap();
        assert_eq!(r.records, records);
        assert!(r.wal_present);
        assert_eq!(r.torn_bytes, 0);
        // And it keeps appending in a new segment without disturbing the old.
        s.append(b"after").unwrap();
        let r = s.replay().unwrap();
        assert_eq!(r.records.len(), records.len() + 1);
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = TempDir::new("rotate");
        let mut s = FileStorage::with_segment_bytes(dir.path(), 64).unwrap();
        let records = recs(40);
        for r in &records {
            s.append(r).unwrap();
        }
        let segs = segment_seqs(dir.path()).unwrap();
        assert!(segs.len() > 1, "tiny threshold must rotate: {segs:?}");
        assert_eq!(s.replay().unwrap().records, records);
    }

    #[test]
    fn snapshot_compacts_the_log() {
        let dir = TempDir::new("compact");
        let mut s = FileStorage::with_segment_bytes(dir.path(), 64).unwrap();
        for r in recs(20) {
            s.append(&r).unwrap();
        }
        s.snapshot(b"the-state").unwrap();
        assert!(
            segment_seqs(dir.path()).unwrap().is_empty(),
            "snapshot retires every segment"
        );
        s.append(b"post-snap").unwrap();
        let r = s.replay().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"the-state"[..]));
        assert_eq!(r.records, vec![b"post-snap".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_boundary() {
        // Build one clean segment, then replay every possible truncation
        // of it: each must yield a clean prefix of the records, never an
        // error, and repair the file so the next replay agrees.
        let records = recs(8);
        let mut log = Vec::new();
        let mut ends = Vec::new(); // clean prefix length after record i
        for r in &records {
            encode_record(r, &mut log);
            ends.push(log.len());
        }
        for cut in 0..=log.len() {
            let scan = scan_records(&log[..cut]);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(scan.records.len(), whole, "cut at {cut}: clean prefix only");
            assert_eq!(scan.records, records[..whole].to_vec());
            assert_eq!(scan.clean_len, ends[..whole].last().copied().unwrap_or(0));
        }
        // The on-disk path agrees with the in-memory scan, and truncation
        // repairs the file in place.
        let dir = TempDir::new("torn");
        fs::create_dir_all(dir.path()).unwrap();
        let cut = ends[4] + 3; // mid-header of record 5
        fs::write(dir.path().join("wal-0.log"), &log[..cut]).unwrap();
        let mut s = FileStorage::open(dir.path()).unwrap();
        let r = s.replay().unwrap();
        assert_eq!(r.records, records[..5].to_vec());
        assert_eq!(r.torn_bytes, 3);
        assert!(r.wal_present);
        let repaired = fs::read(dir.path().join("wal-0.log")).unwrap();
        assert_eq!(repaired.len(), ends[4], "torn tail truncated in place");
        assert_eq!(s.replay().unwrap().torn_bytes, 0);
    }

    #[test]
    fn corrupt_record_is_resynchronized_over() {
        let records = recs(6);
        let mut log = Vec::new();
        for r in &records {
            encode_record(r, &mut log);
        }
        // Flip one payload byte of record 3: its CRC fails, but the scan
        // must resynchronize on record 4 instead of discarding the rest.
        let mut at = 0;
        for r in records.iter().take(3) {
            at += RECORD_HEADER + r.len();
        }
        let mut bad = log.clone();
        bad[at + RECORD_HEADER] ^= 0xFF;
        let scan = scan_records(&bad);
        let mut expect = records[..3].to_vec();
        expect.extend_from_slice(&records[4..]);
        assert_eq!(scan.records, expect);
        assert_eq!(scan.clean_len, at);
        assert_eq!(scan.gaps, 1);
        assert_eq!(scan.gap_bytes, (RECORD_HEADER + records[3].len()) as u64);
        assert_eq!(scan.scanned, bad.len());
    }

    #[test]
    fn file_storage_self_heals_a_corrupt_segment() {
        let dir = TempDir::new("heal");
        let records = recs(6);
        {
            let mut s = FileStorage::open(dir.path()).unwrap();
            for r in &records {
                s.append(r).unwrap();
            }
            s.sync().unwrap();
        }
        // Rot one payload byte of record 2 in place.
        let path = dir.path().join("wal-0.log");
        let mut bytes = fs::read(&path).unwrap();
        let mut at = 0;
        for r in records.iter().take(2) {
            at += RECORD_HEADER + r.len();
        }
        bytes[at + RECORD_HEADER + 1] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut s = FileStorage::open(dir.path()).unwrap();
        let r = s.replay().unwrap();
        let mut expect = records[..2].to_vec();
        expect.extend_from_slice(&records[3..]);
        assert_eq!(r.records, expect, "records after the gap survive");
        assert_eq!(r.corrupt_gaps, 1);
        assert!(r.torn_bytes > 0);
        // The heal rewrote the segment: a second replay is clean.
        let again = s.replay().unwrap();
        assert_eq!(again.records, expect);
        assert_eq!(again.corrupt_gaps, 0);
        assert_eq!(again.torn_bytes, 0);
    }

    #[test]
    fn gap_does_not_shadow_later_segments() {
        // In-place rot in a middle segment keeps later segments: the valid
        // records after the gap prove writing continued cleanly.
        let dir = TempDir::new("gapshadow");
        fs::create_dir_all(dir.path()).unwrap();
        let mut seg0 = Vec::new();
        encode_record(b"one", &mut seg0);
        fs::write(dir.path().join("wal-0.log"), &seg0).unwrap();
        let mut seg1 = Vec::new();
        encode_record(b"two-a", &mut seg1);
        let rot_at = RECORD_HEADER; // first payload byte of "two-a"
        encode_record(b"two-b", &mut seg1);
        seg1[rot_at] ^= 0xFF;
        fs::write(dir.path().join("wal-1.log"), &seg1).unwrap();
        let mut seg2 = Vec::new();
        encode_record(b"three", &mut seg2);
        fs::write(dir.path().join("wal-2.log"), &seg2).unwrap();

        let mut s = FileStorage::open(dir.path()).unwrap();
        let r = s.replay().unwrap();
        assert_eq!(
            r.records,
            vec![b"one".to_vec(), b"two-b".to_vec(), b"three".to_vec()]
        );
        assert_eq!(r.corrupt_gaps, 1);
    }

    #[test]
    fn file_storage_injection_hooks_corrupt_and_truncate() {
        let dir = TempDir::new("inject");
        let records = recs(5);
        let mut s = FileStorage::open(dir.path()).unwrap();
        for r in &records {
            s.append(r).unwrap();
        }
        s.sync().unwrap();
        assert!(s.corrupt_record_byte(2, 3).unwrap());
        let r = s.replay().unwrap();
        assert_eq!(r.corrupt_gaps, 1, "flipped byte reads as a gap");
        assert_eq!(r.records.len(), records.len() - 1);
        // Heal happened; now rot the tail. The budget rounds up to a
        // whole record, which is replaced by an empty scar — same
        // physical claim as the in-memory store, so replay keeps the
        // record *count* and the fold sees positional evidence.
        let removed = s.truncate_tail(3).unwrap();
        assert!(removed >= 3, "whole-record rounding");
        let r = s.replay().unwrap();
        assert_eq!(r.records.len(), records.len() - 1);
        assert_eq!(r.records.last(), Some(&Vec::new()));
        assert_eq!(r.torn_bytes, 0, "a scar is a valid (empty) frame");
        // Scars survive a second replay untouched.
        let again = s.replay().unwrap();
        assert_eq!(again.records.len(), records.len() - 1);
    }

    #[test]
    fn null_storage_injection_hooks_corrupt_and_truncate() {
        let mut s = NullStorage::new();
        assert!(!s.corrupt_record_byte(0, 0).unwrap());
        s.append(b"alpha").unwrap();
        s.append(b"beta").unwrap();
        assert!(s.corrupt_record_byte(1, 2).unwrap());
        let r = s.replay().unwrap();
        assert_eq!(r.records[0], b"alpha");
        assert_ne!(r.records[1], b"beta", "byte flipped in place");
        assert_eq!(r.records[1].len(), 4);
        let removed = s.truncate_tail(1).unwrap();
        assert!(removed > 0);
        assert_eq!(
            s.replay().unwrap().records,
            vec![b"alpha".to_vec(), Vec::new()],
            "the destroyed record leaves an empty scar as evidence"
        );
        // A budget deep enough for everything wipes the log but keeps one
        // scar per destroyed record: storage existed, nothing readable.
        let removed = s.truncate_tail(10_000).unwrap();
        assert!(removed > 0);
        let r = s.replay().unwrap();
        assert!(r.wal_present, "scars keep the medium visibly non-empty");
        assert!(r.records.iter().all(Vec::is_empty));
    }

    /// The `Vec<Vec<u8>>` log `NullStorage` kept before it went flat, fault
    /// hooks included: the reference the flat log must reproduce.
    #[derive(Default)]
    struct VecLog {
        snapshot: bool,
        records: Vec<Vec<u8>>,
    }

    impl VecLog {
        fn corrupt(&mut self, record: u64, offset: u64) -> bool {
            if self.records.is_empty() {
                return false;
            }
            let idx = (record % self.records.len() as u64) as usize;
            let rec = &mut self.records[idx];
            if rec.is_empty() {
                return false;
            }
            let at = (offset % rec.len() as u64) as usize;
            rec[at] ^= 0xFF;
            true
        }

        fn truncate(&mut self, bytes: u64) -> u64 {
            if bytes == 0 {
                return 0;
            }
            let (mut destroyed, mut scars) = (0u64, 0usize);
            while destroyed < bytes {
                match self.records.pop() {
                    Some(rec) => {
                        destroyed += (RECORD_HEADER + rec.len()) as u64;
                        scars += 1;
                    }
                    None => break,
                }
            }
            let len = self.records.len();
            self.records.resize(len + scars, Vec::new());
            destroyed
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Append(&'static [u8]),
        Corrupt(u64, u64),
        Truncate(u64),
        Snapshot,
    }

    #[test]
    fn null_storage_fault_hooks_match_the_vec_of_records_semantics() {
        use Op::*;
        const RECORDS: [&[u8]; 5] = [b"alpha", b"", b"gamma-ray", b"d", b"epsilon"];
        let cases: [(&str, &[Op]); 6] = [
            (
                "indices and offsets wrap",
                &[Corrupt(7, 13), Corrupt(u64::MAX, u64::MAX), Corrupt(5, 9)],
            ),
            (
                "an empty record is left alone",
                &[Corrupt(1, 0), Corrupt(6, 4)],
            ),
            (
                "a truncation larger than the log",
                &[Truncate(10_000), Corrupt(0, 0)],
            ),
            (
                "partial truncation rounds up to whole records",
                &[Truncate(1), Truncate(9), Truncate(8), Corrupt(3, 0)],
            ),
            (
                "an append after scars",
                &[Truncate(20), Append(b"zeta"), Corrupt(3, 2), Truncate(1)],
            ),
            (
                "a truncation after a snapshot",
                &[
                    Snapshot,
                    Truncate(5),
                    Append(b"eta"),
                    Append(b""),
                    Truncate(3),
                    Corrupt(0, 1),
                ],
            ),
        ];
        for (name, ops) in cases {
            let mut flat = NullStorage::new();
            let mut model = VecLog::default();
            for r in RECORDS {
                flat.append(r).unwrap();
                model.records.push(r.to_vec());
            }
            for &op in ops {
                let (got, want) = match op {
                    Append(r) => {
                        flat.append(r).unwrap();
                        model.records.push(r.to_vec());
                        (0, 0)
                    }
                    Corrupt(i, at) => (
                        u64::from(flat.corrupt_record_byte(i, at).unwrap()),
                        u64::from(model.corrupt(i, at)),
                    ),
                    Truncate(bytes) => (flat.truncate_tail(bytes).unwrap(), model.truncate(bytes)),
                    Snapshot => {
                        flat.snapshot(b"state").unwrap();
                        model.snapshot = true;
                        model.records.clear();
                        (0, 0)
                    }
                };
                assert_eq!(got, want, "{name}: {op:?} result");
                let replay = flat.replay().unwrap();
                assert_eq!(replay.records, model.records, "{name}: after {op:?}");
                assert_eq!(
                    replay.wal_present,
                    model.snapshot || !model.records.is_empty(),
                    "{name}: wal_present after {op:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_field_is_damage_not_allocation() {
        let mut log = Vec::new();
        encode_record(b"fine", &mut log);
        let at = log.len();
        log.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        log.extend_from_slice(&[0; 12]);
        let scan = scan_records(&log);
        assert_eq!(scan.records, vec![b"fine".to_vec()]);
        assert_eq!(scan.clean_len, at);
    }

    #[test]
    fn torn_segment_shadows_later_segments() {
        // A corrupted middle segment must end replay — records in later
        // segments may depend on ones the damage swallowed.
        let dir = TempDir::new("shadow");
        fs::create_dir_all(dir.path()).unwrap();
        let mut seg = Vec::new();
        encode_record(b"one", &mut seg);
        fs::write(dir.path().join("wal-0.log"), &seg).unwrap();
        fs::write(dir.path().join("wal-1.log"), b"\x07garbage").unwrap();
        let mut seg2 = Vec::new();
        encode_record(b"three", &mut seg2);
        fs::write(dir.path().join("wal-2.log"), &seg2).unwrap();
        let mut s = FileStorage::open(dir.path()).unwrap();
        let r = s.replay().unwrap();
        assert_eq!(r.records, vec![b"one".to_vec()]);
        assert!(r.torn_bytes > 0);
    }

    #[test]
    fn fresh_directory_replays_empty() {
        let dir = TempDir::new("fresh");
        let mut s = FileStorage::open(dir.path()).unwrap();
        let r = s.replay().unwrap();
        assert!(r.is_empty());
        assert!(!r.wal_present);
    }
}
