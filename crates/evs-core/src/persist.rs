//! The engine's write-ahead-log record set and replay fold.
//!
//! §2 of the paper models a process that "may fail and recover with stable
//! storage intact". This module defines *what* the engine writes to stable
//! storage (via the [`evs_store::Storage`] trait) at the §3 recovery-step
//! boundaries, and how a freshly-started incarnation folds those records
//! back into the state a recovery needs:
//!
//! * the **message-id counter** (Spec 1.4: identifiers are never reused),
//!   tracked exactly by [`WalRecord::FailMark`] on a clean crash and
//!   conservatively by [`WalRecord::Lease`] blocks when the process is
//!   killed without warning;
//! * the largest **configuration epoch** observed (identifier
//!   monotonicity), from every record that carries an epoch;
//! * the last **configuration delivered** with no failure mark after it —
//!   a kill leaves no `fail_p(c)` in the trace, so the next incarnation
//!   must emit one on the dead incarnation's behalf before it re-enters
//!   the system (see [`Recovered::undead`]).
//!
//! The engine writes only the records those three need — `Lease`,
//! `ConfDelivered`, `Epoch`, `FailMark` — plus checkpoints, and syncs each.
//! `Sent`, `Cut` and `Obligations` are decode-only: earlier versions wrote
//! them, so the decoder keeps their tags and the fold still reads them,
//! and a log from such a version folds to the same state.
//!
//! The encoding is deliberately trivial: one tag byte followed by
//! fixed-width little-endian fields (`evs-store` owns framing, CRCs and
//! torn-tail handling). A record that fails to decode is never folded and
//! never panics: the fold counts it, classifies it into a typed
//! [`ReplayError`] ([`Recovered::poison`]), and the engine responds by
//! widening its id-lease skip past anything the damaged record could have
//! leased — the excommunicate-and-rebuild half of the self-stabilization
//! story, since CRC-valid-but-undecodable records mean the medium (or a
//! fault injector) rewrote state underneath us.

use crate::codec::{DecodeError, Get, Result, MAX_LEN};
use bytes::BufMut;
use evs_membership::ConfigId;
use evs_sim::ProcessId;
use evs_store::ReplayError;

/// How many message ids a [`WalRecord::Lease`] claims beyond the counter's
/// current value. A larger lease syncs less often; every id inside an
/// unused lease tail is wasted (skipped, never reused) after a kill.
pub const LEASE_BLOCK: u64 = 1024;

/// How many records the engine lets pile up before it compacts the log
/// into one [`Checkpoint`] in steady state. 4096 records of 41 framed
/// bytes at most stay under one default 256 KiB `evs-store` segment, so a
/// compaction retires a single file and a replay folds a few thousand
/// records at most. In steady state a process appends one
/// [`WalRecord::Lease`] per [`LEASE_BLOCK`] own messages and three records
/// per configuration change, so the trigger is rare.
pub const WAL_COMPACT_RECORDS: u64 = 4096;

/// One entry in the engine's write-ahead log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// The message-id counter may advance up to this value without another
    /// sync. Written (and synced) *before* the first id past the previous
    /// lease is handed out, so a kill can never observe a reused id.
    Lease(u64),
    /// Decode-only: the send high-water mark earlier versions journaled
    /// per stamping burst. The engine no longer writes it — its counter
    /// always lies under a synced [`WalRecord::Lease`] and its epoch under
    /// a synced [`WalRecord::ConfDelivered`] or [`Checkpoint`] — but the
    /// fold still reads both from old logs.
    Sent {
        /// The message-id counter value of the send.
        counter: u64,
        /// Epoch of the configuration it was stamped in.
        epoch: u64,
        /// Representative of that configuration.
        rep: u32,
        /// Ring ordinal the message was stamped with.
        seq: u64,
    },
    /// `deliver_conf_p(c)`: a configuration change reached the
    /// application. Synced — this is a §3 step boundary.
    ConfDelivered {
        /// The configuration's epoch.
        epoch: u64,
        /// The configuration's representative.
        rep: u32,
        /// True for transitional configurations.
        transitional: bool,
    },
    /// Decode-only: the §3 Step 5.c obligation set earlier versions
    /// journaled. Nothing reads it back — a reincarnation starts as a
    /// singleton with no obligations — so the fold skips it.
    Obligations(Vec<u32>),
    /// Decode-only: the delivered/stable cut earlier versions journaled
    /// per delivery burst. The fold still reads its epoch, which a synced
    /// [`WalRecord::ConfDelivered`] or [`Checkpoint`] already carries.
    Cut {
        /// Epoch of the configuration the cut is taken in.
        epoch: u64,
        /// Representative of that configuration.
        rep: u32,
        /// True if the cut was taken in a transitional configuration.
        transitional: bool,
        /// Highest contiguously-delivered ring ordinal.
        seq: u64,
    },
    /// §3 Step 2: the membership proposed a configuration with this epoch.
    /// Synced — the epoch may be acked to peers before it is delivered,
    /// so it must survive a kill for monotonicity.
    Epoch(u64),
    /// `fail_p(c)`: a clean crash. Carries the *exact* counters, so a
    /// recovery continues the id series without the lease gap.
    FailMark {
        /// Epoch of the configuration the process failed in.
        epoch: u64,
        /// Representative of that configuration.
        rep: u32,
        /// Exact message-id counter at the instant of the crash.
        msg_counter: u64,
        /// Largest configuration epoch observed by the crashed process.
        max_epoch: u64,
    },
}

/// Bytes of the trailing integrity word every sealed payload carries.
const INTEGRITY_LEN: usize = 4;

/// FNV-1a over the record body. `evs-store`'s CRC protects the *frame* on
/// the medium; this word travels inside the payload and protects the
/// *values* — damage that strikes after (or beneath) the framing layer,
/// such as the in-memory store's bare payloads or an injector rewriting a
/// CRC-resealed record. The multiply step is invertible, so any
/// single-byte change is guaranteed to alter the word.
fn integrity_word(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Appends the integrity word over everything currently in `out`.
fn seal(out: &mut Vec<u8>) {
    let w = integrity_word(out);
    out.extend_from_slice(&w.to_le_bytes());
}

/// Splits a sealed payload into (body, valid-word?). `None` if too short
/// to carry a word at all.
fn unseal(bytes: &[u8]) -> Option<(&[u8], bool)> {
    if bytes.len() <= INTEGRITY_LEN {
        return None;
    }
    let (body, word) = bytes.split_at(bytes.len() - INTEGRITY_LEN);
    let got = u32::from_le_bytes(word.try_into().ok()?);
    Some((body, got == integrity_word(body)))
}

/// Tag bytes. Stable — they are on disk.
const TAG_LEASE: u8 = 1;
const TAG_SENT: u8 = 2;
const TAG_CONF: u8 = 3;
const TAG_OBLIGATIONS: u8 = 4;
const TAG_CUT: u8 = 5;
const TAG_EPOCH: u8 = 6;
const TAG_FAIL: u8 = 7;
/// Snapshot blob marker (see [`Checkpoint`]); never appears in the log.
const TAG_CHECKPOINT: u8 = 8;

impl WalRecord {
    /// Serializes the record payload into `out` (cleared first), sealed
    /// with a trailing integrity word. Framing, CRC and length-delimiting
    /// belong to `evs-store`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            WalRecord::Lease(limit) => {
                out.put_u8(TAG_LEASE);
                out.put_u64_le(*limit);
            }
            WalRecord::Sent {
                counter,
                epoch,
                rep,
                seq,
            } => {
                out.put_u8(TAG_SENT);
                out.put_u64_le(*counter);
                out.put_u64_le(*epoch);
                out.put_u32_le(*rep);
                out.put_u64_le(*seq);
            }
            WalRecord::ConfDelivered {
                epoch,
                rep,
                transitional,
            } => {
                out.put_u8(TAG_CONF);
                out.put_u64_le(*epoch);
                out.put_u32_le(*rep);
                out.put_u8(u8::from(*transitional));
            }
            WalRecord::Obligations(members) => {
                out.put_u8(TAG_OBLIGATIONS);
                out.put_u32_le(members.len() as u32);
                for m in members {
                    out.put_u32_le(*m);
                }
            }
            WalRecord::Cut {
                epoch,
                rep,
                transitional,
                seq,
            } => {
                out.put_u8(TAG_CUT);
                out.put_u64_le(*epoch);
                out.put_u32_le(*rep);
                out.put_u8(u8::from(*transitional));
                out.put_u64_le(*seq);
            }
            WalRecord::Epoch(epoch) => {
                out.put_u8(TAG_EPOCH);
                out.put_u64_le(*epoch);
            }
            WalRecord::FailMark {
                epoch,
                rep,
                msg_counter,
                max_epoch,
            } => {
                out.put_u8(TAG_FAIL);
                out.put_u64_le(*epoch);
                out.put_u32_le(*rep);
                out.put_u64_le(*msg_counter);
                out.put_u64_le(*max_epoch);
            }
        }
        seal(out);
    }

    /// Parses a sealed record payload. `None` for unknown tags, short
    /// payloads, a boolean other than `0`/`1`, or an integrity-word
    /// mismatch (a record whose values were rewritten after it was
    /// sealed). The fold skips every reject and classifies it as a
    /// [`ReplayError`].
    pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
        let (body, intact) = unseal(bytes)?;
        intact.then(|| WalRecord::decode_body(body).ok()).flatten()
    }

    /// Structural parse of an unsealed record body.
    fn decode_body(bytes: &[u8]) -> Result<WalRecord> {
        let mut g = Get::le(bytes);
        let rec = match g.u8()? {
            TAG_LEASE => WalRecord::Lease(g.u64()?),
            TAG_SENT => WalRecord::Sent {
                counter: g.u64()?,
                epoch: g.u64()?,
                rep: g.u32()?,
                seq: g.u64()?,
            },
            TAG_CONF => WalRecord::ConfDelivered {
                epoch: g.u64()?,
                rep: g.u32()?,
                transitional: g.bool()?,
            },
            TAG_OBLIGATIONS => {
                let n = g.count(MAX_LEN, 4)?;
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    members.push(g.u32()?);
                }
                WalRecord::Obligations(members)
            }
            TAG_CUT => WalRecord::Cut {
                epoch: g.u64()?,
                rep: g.u32()?,
                transitional: g.bool()?,
                seq: g.u64()?,
            },
            TAG_EPOCH => WalRecord::Epoch(g.u64()?),
            TAG_FAIL => WalRecord::FailMark {
                epoch: g.u64()?,
                rep: g.u32()?,
                msg_counter: g.u64()?,
                max_epoch: g.u64()?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "WalRecord",
                    tag,
                })
            }
        };
        g.finish()?;
        Ok(rec)
    }
}

/// The compacted state a snapshot carries: everything the fold needs as a
/// starting point, so the records it replaces can be deleted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Message-id counter floor (ids at or below it may have been used).
    pub msg_counter: u64,
    /// Largest configuration epoch observed.
    pub max_epoch: u64,
    /// The configuration installed when the checkpoint was taken, standing
    /// for the `ConfDelivered` record it replaced: a kill after it owes
    /// `fail_p` of this configuration. `None` in the checkpoint a restart
    /// writes (its failure is settled, its first configuration not yet
    /// delivered) and in blobs written before the field existed.
    pub installed: Option<ConfigId>,
}

impl Checkpoint {
    /// Serializes the checkpoint as a sealed snapshot blob.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        out.put_u8(TAG_CHECKPOINT);
        out.put_u64_le(self.msg_counter);
        out.put_u64_le(self.max_epoch);
        if let Some(c) = self.installed {
            out.put_u64_le(c.epoch);
            out.put_u32_le(c.rep.index());
            out.put_u8(u8::from(c.transitional));
        }
        seal(out);
    }

    /// Parses a snapshot blob written by [`Checkpoint::encode`]. A damaged
    /// integrity word rejects the blob: a snapshot with a rewritten
    /// `msg_counter` folded in silently could hand out already-used
    /// message ids (Spec 1.4).
    pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        let (body, intact) = unseal(bytes)?;
        intact.then(|| Checkpoint::decode_body(body).ok()).flatten()
    }

    fn decode_body(body: &[u8]) -> Result<Checkpoint> {
        let mut g = Get::le(body);
        match g.u8()? {
            TAG_CHECKPOINT => {}
            tag => {
                return Err(DecodeError::BadTag {
                    what: "Checkpoint",
                    tag,
                })
            }
        }
        let (msg_counter, max_epoch) = (g.u64()?, g.u64()?);
        // The two-field blob of earlier versions ends here.
        let installed = if g.remaining() == 0 {
            None
        } else {
            Some(ConfigId {
                epoch: g.u64()?,
                rep: ProcessId::new(g.u32()?),
                transitional: g.bool()?,
            })
        };
        g.finish()?;
        Ok(Checkpoint {
            msg_counter,
            max_epoch,
            installed,
        })
    }
}

/// What a replay of the write-ahead log reconstructs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    /// Safe message-id counter to resume from: exact after a clean crash
    /// (trailing [`WalRecord::FailMark`]), the lease ceiling after a kill.
    pub msg_counter: u64,
    /// Largest configuration epoch the dead incarnation observed; the new
    /// incarnation starts at `max_epoch + 1`.
    pub max_epoch: u64,
    /// The last configuration delivered (or carried as installed by the
    /// checkpoint) with no failure mark after it. `Some` means the
    /// process was killed without recording `fail_p(c)`;
    /// the new incarnation must emit a synthetic one for this
    /// configuration before its singleton `deliver_conf`.
    pub undead: Option<ConfigId>,
    /// True when a poisoned record follows the record that established
    /// [`Recovered::undead`]: the damaged record could have been a newer
    /// `ConfDelivered` (making this one stale) or the `FailMark` that
    /// retired it. A fail naming the wrong configuration breaks Spec 2.2,
    /// while a *missing* fail never does, so a suspect undead must be
    /// suppressed rather than guessed at.
    pub undead_suspect: bool,
    /// Decoded records folded in (snapshot excluded).
    pub records: u64,
    /// Records that were CRC-clean but failed to decode — rewritten state,
    /// not media damage. Each is counted; none is folded.
    pub poisoned: u64,
    /// Typed classification of the first poisoned record (or snapshot).
    pub poison: Option<ReplayError>,
    /// True when *something* in the replay bounded the message counter: a
    /// decoded snapshot, or any surviving `Lease`/`FailMark` record (or
    /// an old log's `Sent`). False with [`ReplayError::BadSnapshot`] means
    /// every lease the dead incarnation took may be hidden inside the
    /// unreadable snapshot — no skip distance is provably safe, and the
    /// engine refuses to start (see `EvsProcess::start_refused`). The
    /// engine journals a synced `Lease` of the checkpoint's counter right
    /// after every snapshot, so this happens only when a kill lands
    /// between the two writes.
    pub counter_bounded: bool,
}

/// Classifies a record that failed [`WalRecord::decode`]. Only called on
/// rejects, so a recognized tag here means the payload shape is impossible
/// for that tag.
fn classify(index: usize, bytes: &[u8]) -> ReplayError {
    let Some(&tag) = bytes.first() else {
        return ReplayError::EmptyRecord { index };
    };
    match tag {
        TAG_LEASE | TAG_SENT | TAG_CONF | TAG_OBLIGATIONS | TAG_CUT | TAG_EPOCH | TAG_FAIL => {
            // A structurally-perfect body whose integrity word disagrees
            // is value damage: the medium (or an injector) rewrote fields
            // inside a record the schema really did write.
            if let Some((body, intact)) = unseal(bytes) {
                if !intact && WalRecord::decode_body(body).is_ok() {
                    return ReplayError::ValueDamage { index, tag };
                }
            }
            ReplayError::BadLength {
                index,
                tag,
                len: bytes.len(),
            }
        }
        _ => ReplayError::UnknownTag { index, tag },
    }
}

/// Folds a snapshot and its trailing records back into engine state.
///
/// `gaps_at` holds the scan positions of CRC gaps the storage backend
/// resynchronized over, as indices into `records`: a gap at position `i`
/// sits between record `i - 1` and record `i` (a value of `records.len()`
/// means damage after the last decodable record). The fold treats each
/// gap as positional damage, exactly like a poisoned record at that spot:
/// it taints any earlier `ConfDelivered` as possibly stale, and an intact
/// install *after* the gap clears the taint — so a gap the backend proved
/// precedes the last install no longer suppresses the owed `fail_p(c)`.
pub fn fold(snapshot: Option<&[u8]>, records: &[Vec<u8>], gaps_at: &[u64]) -> Recovered {
    let mut out = Recovered::default();
    if let Some(blob) = snapshot {
        match Checkpoint::decode(blob) {
            Some(cp) => {
                out.msg_counter = cp.msg_counter;
                out.max_epoch = cp.max_epoch;
                out.undead = cp.installed;
                out.counter_bounded = true;
            }
            None => {
                out.poisoned += 1;
                out.poison = Some(ReplayError::BadSnapshot);
            }
        }
    }
    // Set while a poisoned record (or a positioned CRC gap) is the newest
    // thing seen since the last intact ConfDelivered/FailMark: the damage
    // could hide a newer install or the mark that retired the current one.
    let mut suspect = false;
    let mut gaps = gaps_at.iter().peekable();
    for (index, raw) in records.iter().enumerate() {
        while gaps.next_if(|&&at| at <= index as u64).is_some() {
            suspect = true;
        }
        let Some(rec) = WalRecord::decode(raw) else {
            out.poisoned += 1;
            suspect = true;
            if out.poison.is_none() {
                out.poison = Some(classify(index, raw));
            }
            continue;
        };
        out.records += 1;
        match rec {
            WalRecord::Lease(limit) => {
                out.msg_counter = out.msg_counter.max(limit);
                out.counter_bounded = true;
            }
            WalRecord::Sent { counter, epoch, .. } => {
                out.msg_counter = out.msg_counter.max(counter);
                out.max_epoch = out.max_epoch.max(epoch);
                out.counter_bounded = true;
            }
            WalRecord::ConfDelivered {
                epoch,
                rep,
                transitional,
            } => {
                out.max_epoch = out.max_epoch.max(epoch);
                out.undead = Some(ConfigId {
                    epoch,
                    rep: ProcessId::new(rep),
                    transitional,
                });
                // An intact install after any damage is authoritative
                // again: nothing newer can hide before it.
                suspect = false;
            }
            WalRecord::Obligations(_) => {}
            WalRecord::Cut { epoch, .. } => out.max_epoch = out.max_epoch.max(epoch),
            WalRecord::Epoch(epoch) => out.max_epoch = out.max_epoch.max(epoch),
            WalRecord::FailMark {
                msg_counter,
                max_epoch,
                ..
            } => {
                // A clean crash recorded fail_p(c) and the exact counter:
                // authoritative, and no synthetic failure is owed.
                out.msg_counter = msg_counter;
                out.max_epoch = out.max_epoch.max(max_epoch);
                out.undead = None;
                out.counter_bounded = true;
            }
        }
    }
    // Damage after the last decodable record is also "newest since the
    // last install".
    if gaps.next().is_some() {
        suspect = true;
    }
    out.undead_suspect = out.undead.is_some() && suspect;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: WalRecord) {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(WalRecord::decode(&buf), Some(rec));
    }

    #[test]
    fn every_record_round_trips() {
        roundtrip(WalRecord::Lease(1024));
        roundtrip(WalRecord::Sent {
            counter: 7,
            epoch: 3,
            rep: 1,
            seq: 42,
        });
        roundtrip(WalRecord::ConfDelivered {
            epoch: 9,
            rep: 0,
            transitional: true,
        });
        roundtrip(WalRecord::Obligations(vec![0, 2, 5]));
        roundtrip(WalRecord::Obligations(Vec::new()));
        roundtrip(WalRecord::Cut {
            epoch: 9,
            rep: 0,
            transitional: false,
            seq: 17,
        });
        roundtrip(WalRecord::Epoch(12));
        roundtrip(WalRecord::FailMark {
            epoch: 9,
            rep: 0,
            msg_counter: 55,
            max_epoch: 12,
        });
    }

    #[test]
    fn decode_rejects_unknown_tags_short_and_long_payloads() {
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[99, 0, 0]), None);
        assert_eq!(WalRecord::decode(&[TAG_LEASE, 1, 2]), None);
        let mut buf = Vec::new();
        WalRecord::Lease(5).encode(&mut buf);
        buf.push(0); // trailing garbage
        assert_eq!(WalRecord::decode(&buf), None);
    }

    #[test]
    fn checkpoint_round_trips() {
        let cp = Checkpoint {
            msg_counter: 2048,
            max_epoch: 17,
            installed: None,
        };
        let mut buf = Vec::new();
        cp.encode(&mut buf);
        assert_eq!(Checkpoint::decode(&buf), Some(cp));
        assert_eq!(Checkpoint::decode(&buf[..buf.len() - 1]), None);
        assert_eq!(Checkpoint::decode(&[TAG_LEASE, 0]), None);
    }

    fn encoded(recs: &[WalRecord]) -> Vec<Vec<u8>> {
        recs.iter()
            .map(|r| {
                let mut b = Vec::new();
                r.encode(&mut b);
                b
            })
            .collect()
    }

    #[test]
    fn fold_after_kill_uses_lease_ceiling_and_owes_a_failure() {
        let recs = encoded(&[
            WalRecord::Lease(1024),
            WalRecord::ConfDelivered {
                epoch: 4,
                rep: 1,
                transitional: false,
            },
            WalRecord::Sent {
                counter: 3,
                epoch: 4,
                rep: 1,
                seq: 10,
            },
        ]);
        let rec = fold(None, &recs, &[]);
        assert_eq!(rec.msg_counter, 1024, "lease ceiling wins after a kill");
        assert_eq!(rec.max_epoch, 4);
        assert_eq!(
            rec.undead,
            Some(ConfigId {
                epoch: 4,
                rep: ProcessId::new(1),
                transitional: false
            }),
            "a kill leaves fail_p(c) owed"
        );
        assert_eq!(rec.records, 3);
    }

    #[test]
    fn fold_after_clean_crash_is_exact_and_owes_nothing() {
        let recs = encoded(&[
            WalRecord::Lease(1024),
            WalRecord::ConfDelivered {
                epoch: 4,
                rep: 1,
                transitional: false,
            },
            WalRecord::FailMark {
                epoch: 4,
                rep: 1,
                msg_counter: 3,
                max_epoch: 6,
            },
        ]);
        let rec = fold(None, &recs, &[]);
        assert_eq!(rec.msg_counter, 3, "fail mark restores the exact counter");
        assert_eq!(rec.max_epoch, 6);
        assert_eq!(rec.undead, None);
    }

    #[test]
    fn fold_starts_from_the_snapshot_and_poisons_unknown_records() {
        let cp = Checkpoint {
            msg_counter: 500,
            max_epoch: 9,
            installed: None,
        };
        let mut blob = Vec::new();
        cp.encode(&mut blob);
        let mut recs = encoded(&[WalRecord::Epoch(11)]);
        recs.push(vec![0xEE, 1, 2, 3]); // tag nothing ever wrote
        let rec = fold(Some(&blob), &recs, &[]);
        assert_eq!(rec.msg_counter, 500);
        assert_eq!(rec.max_epoch, 11);
        assert_eq!(rec.records, 1, "unknown tag not folded");
        assert_eq!(rec.poisoned, 1);
        assert_eq!(
            rec.poison,
            Some(ReplayError::UnknownTag {
                index: 1,
                tag: 0xEE
            })
        );
    }

    fn conf(epoch: u64) -> ConfigId {
        ConfigId::regular(epoch, ProcessId::new(1))
    }

    fn blob(cp: Checkpoint) -> Vec<u8> {
        let mut b = Vec::new();
        cp.encode(&mut b);
        b
    }

    #[test]
    fn a_checkpoint_carries_the_installed_configuration_into_the_fold() {
        let cp = Checkpoint {
            msg_counter: 3072,
            max_epoch: 9,
            installed: Some(conf(7)),
        };
        assert_eq!(Checkpoint::decode(&blob(cp)), Some(cp));
        // A kill right after the compaction still owes fail_p(installed).
        let rec = fold(Some(&blob(cp)), &[], &[]);
        assert_eq!((rec.msg_counter, rec.max_epoch), (3072, 9));
        assert_eq!(rec.undead, Some(conf(7)));
        assert!(!rec.undead_suspect);
        // A configuration delivered after the checkpoint overrides it...
        let later = encoded(&[WalRecord::ConfDelivered {
            epoch: 11,
            rep: 1,
            transitional: false,
        }]);
        assert_eq!(fold(Some(&blob(cp)), &later, &[]).undead, Some(conf(11)));
        // ...a fail mark after it clears it...
        let failed = encoded(&[WalRecord::FailMark {
            epoch: 7,
            rep: 1,
            msg_counter: 2100,
            max_epoch: 9,
        }]);
        let rec = fold(Some(&blob(cp)), &failed, &[]);
        assert_eq!((rec.undead, rec.msg_counter), (None, 2100));
        // ...and damage after it makes it as suspect as any install.
        assert!(fold(Some(&blob(cp)), &[vec![0xEE, 1]], &[]).undead_suspect);
    }

    #[test]
    fn the_two_field_checkpoint_of_earlier_versions_still_folds() {
        let mut old = vec![TAG_CHECKPOINT];
        old.put_u64_le(2048);
        old.put_u64_le(17);
        seal(&mut old);
        let cp = Checkpoint {
            msg_counter: 2048,
            max_epoch: 17,
            installed: None,
        };
        assert_eq!(Checkpoint::decode(&old), Some(cp));
        assert_eq!(blob(cp), old, "and a restart still writes exactly that");
        let rec = fold(Some(&old), &[], &[]);
        assert_eq!(
            (rec.msg_counter, rec.max_epoch, rec.undead),
            (2048, 17, None)
        );
        assert!(rec.counter_bounded);
        // Anything between the two shapes is damage, not a checkpoint.
        let mut torn = vec![TAG_CHECKPOINT];
        torn.put_u64_le(2048);
        torn.put_u64_le(17);
        torn.put_u64_le(7);
        seal(&mut torn);
        assert_eq!(Checkpoint::decode(&torn), None);
    }

    #[test]
    fn fold_classifies_impossible_payloads() {
        // A Lease with a truncated payload: known tag, impossible shape.
        let recs = vec![vec![TAG_LEASE, 1, 2], Vec::new()];
        let rec = fold(None, &recs, &[]);
        assert_eq!(rec.records, 0);
        assert_eq!(rec.poisoned, 2);
        assert_eq!(
            rec.poison,
            Some(ReplayError::BadLength {
                index: 0,
                tag: TAG_LEASE,
                len: 3
            }),
            "first poison wins; the empty record is still counted"
        );
    }

    fn all_record_kinds() -> Vec<WalRecord> {
        vec![
            WalRecord::Lease(1024),
            WalRecord::Sent {
                counter: 7,
                epoch: 3,
                rep: 1,
                seq: 42,
            },
            WalRecord::ConfDelivered {
                epoch: 9,
                rep: 0,
                transitional: true,
            },
            WalRecord::Obligations(vec![0, 2, 5]),
            WalRecord::Cut {
                epoch: 9,
                rep: 0,
                transitional: false,
                seq: 17,
            },
            WalRecord::Epoch(12),
            WalRecord::FailMark {
                epoch: 9,
                rep: 0,
                msg_counter: 55,
                max_epoch: 12,
            },
        ]
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        // The integrity word makes value damage *detectable*: no flipped
        // byte — tag, field, or the word itself — ever decodes.
        for rec in all_record_kinds() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            for i in 0..buf.len() {
                let mut hit = buf.clone();
                hit[i] ^= 0xFF;
                assert_eq!(
                    WalRecord::decode(&hit),
                    None,
                    "{rec:?} with byte {i} flipped must not decode"
                );
            }
        }
    }

    #[test]
    fn a_field_flip_classifies_as_value_damage() {
        let mut buf = Vec::new();
        WalRecord::ConfDelivered {
            epoch: 1,
            rep: 0,
            transitional: false,
        }
        .encode(&mut buf);
        buf[8] ^= 0xFF; // high byte of the epoch field
        assert_eq!(WalRecord::decode(&buf), None);
        assert_eq!(
            classify(0, &buf),
            ReplayError::ValueDamage { index: 0, tag: 3 }
        );
    }

    #[test]
    fn fold_marks_the_undead_suspect_when_damage_follows_the_install() {
        // The damaged record *was* the newest install; the surviving one
        // is stale. Folding must say so, or the synthetic fail would name
        // a configuration the trace shows superseded (Spec 2.2).
        let mut recs = encoded(&[
            WalRecord::ConfDelivered {
                epoch: 1,
                rep: 0,
                transitional: false,
            },
            WalRecord::ConfDelivered {
                epoch: 4,
                rep: 1,
                transitional: false,
            },
        ]);
        recs[1][2] ^= 0x80; // rewrite a value inside the sealed payload
        let rec = fold(None, &recs, &[]);
        assert_eq!(rec.undead.map(|c| c.epoch), Some(1), "stale install");
        assert!(rec.undead_suspect, "damage after it makes it untrustworthy");
        assert_eq!(
            rec.poison,
            Some(ReplayError::ValueDamage { index: 1, tag: 3 })
        );
    }

    #[test]
    fn an_intact_install_after_damage_is_trusted_again() {
        let mut recs = encoded(&[
            WalRecord::Sent {
                counter: 3,
                epoch: 1,
                rep: 0,
                seq: 2,
            },
            WalRecord::ConfDelivered {
                epoch: 4,
                rep: 1,
                transitional: false,
            },
        ]);
        recs[0][2] ^= 0x01; // damage strictly before the install
        let rec = fold(None, &recs, &[]);
        assert_eq!(rec.undead.map(|c| c.epoch), Some(4));
        assert!(
            !rec.undead_suspect,
            "an install newer than every damaged record is authoritative"
        );
    }

    #[test]
    fn a_checkpoint_value_flip_is_rejected() {
        let cp = Checkpoint {
            msg_counter: 2048,
            max_epoch: 17,
            installed: None,
        };
        let mut buf = Vec::new();
        cp.encode(&mut buf);
        for i in 0..buf.len() {
            let mut hit = buf.clone();
            hit[i] ^= 0x20;
            assert_eq!(
                Checkpoint::decode(&hit),
                None,
                "checkpoint with byte {i} rewritten must not decode"
            );
        }
    }

    #[test]
    fn fold_flags_an_undecodable_snapshot() {
        let rec = fold(Some(&[0xAB, 0xCD]), &encoded(&[WalRecord::Epoch(2)]), &[]);
        assert_eq!(rec.poison, Some(ReplayError::BadSnapshot));
        assert_eq!(rec.poisoned, 1);
        assert_eq!(rec.max_epoch, 2, "good records still fold");
    }

    #[test]
    fn counter_bounded_tracks_what_actually_bounds_the_counter() {
        // Epoch/ConfDelivered/Cut/Obligations carry no counter evidence:
        // with a bad snapshot they leave the replay unbounded (the engine
        // then refuses to start). Any Lease, Sent or FailMark bounds it.
        let neutral = encoded(&[
            WalRecord::Epoch(2),
            WalRecord::ConfDelivered {
                epoch: 2,
                rep: 0,
                transitional: false,
            },
            WalRecord::Obligations(vec![1]),
            WalRecord::Cut {
                epoch: 2,
                rep: 0,
                transitional: false,
                seq: 3,
            },
        ]);
        assert!(!fold(Some(&[0xAB]), &neutral, &[]).counter_bounded);
        for bounding in [
            WalRecord::Lease(10),
            WalRecord::Sent {
                counter: 1,
                epoch: 2,
                rep: 0,
                seq: 1,
            },
            WalRecord::FailMark {
                epoch: 2,
                rep: 0,
                msg_counter: 1,
                max_epoch: 2,
            },
        ] {
            let mut recs = neutral.clone();
            recs.extend(encoded(std::slice::from_ref(&bounding)));
            assert!(
                fold(Some(&[0xAB]), &recs, &[]).counter_bounded,
                "{bounding:?} must bound the counter"
            );
        }
        // An intact snapshot bounds it on its own.
        let cp = Checkpoint {
            msg_counter: 7,
            max_epoch: 1,
            installed: None,
        };
        let mut blob = Vec::new();
        cp.encode(&mut blob);
        assert!(fold(Some(&blob), &neutral, &[]).counter_bounded);
    }

    #[test]
    fn a_gap_positioned_after_the_install_marks_the_undead_suspect() {
        let recs = encoded(&[
            WalRecord::Lease(64),
            WalRecord::ConfDelivered {
                epoch: 4,
                rep: 1,
                transitional: false,
            },
        ]);
        // `records.len()` means damage after the last decodable record —
        // it may hide a newer install or the retiring fail mark.
        let rec = fold(None, &recs, &[2]);
        assert_eq!(rec.undead.map(|c| c.epoch), Some(4));
        assert!(rec.undead_suspect);
    }

    #[test]
    fn a_gap_positioned_before_the_install_leaves_it_trusted() {
        let recs = encoded(&[
            WalRecord::Lease(64),
            WalRecord::ConfDelivered {
                epoch: 4,
                rep: 1,
                transitional: false,
            },
        ]);
        // The gap sits between the lease and the install: the install is
        // positionally newer than the damage, so the owed fail stands.
        let rec = fold(None, &recs, &[1]);
        assert_eq!(rec.undead.map(|c| c.epoch), Some(4));
        assert!(
            !rec.undead_suspect,
            "damage proven to precede the install cannot hide a newer one"
        );
    }
}
