//! The write-ahead journal for write-back caches.
//!
//! §3's write-back mode makes the cache the *only* holder of buffered
//! user data until a flush succeeds — a crash or a failed flush must not
//! lose writes the application already saw acknowledged. The journal is
//! the durability half of that contract: every write-back write is
//! appended here, to a [`StableStore`] (a simulated stable medium that
//! survives scripted crashes), *before* the in-memory dirty map is
//! updated; a flush acknowledges ([`WriteJournal::ack`]) and prunes a
//! record only after the origin write succeeded.
//!
//! # Record format
//!
//! Records are framed, sequence-numbered, and checksummed so recovery can
//! tell an intact prefix from the torn tail a crash leaves behind. The
//! original (v1) frame carries an opaque payload:
//!
//! ```text
//! seq: u64 LE | doc: u64 LE | user: u64 LE | epoch: 16 bytes |
//! data_len: u32 LE | data | md5(all of the above): 16 bytes
//! ```
//!
//! A record that additionally carries typed operations ([`DocOp`]) sets
//! the high bit of the length field (`OPS_FLAG` — payloads are far below
//! 2 GiB, so the bit is free) and inserts the op section between the
//! header and the payload:
//!
//! ```text
//! seq | doc | user | epoch | data_len∣OPS_FLAG: u32 LE |
//! writer_seq: u64 LE | ops_len: u32 LE | ops | data | md5: 16 bytes
//! ```
//!
//! `data` is always the *materialized* view (base at `epoch` with `ops`
//! applied), so a reader that ignores ops — or a conflict handler that
//! falls back to keep-mine — behaves exactly like v1. Plain writes encode
//! v1 frames byte-for-byte, keeping old media replayable and new media
//! readable by old code paths.
//!
//! `epoch` is the content signature of the rendition the writer last read
//! for `(doc, user)` — [`NO_EPOCH`] when the writer never read the
//! document. Recovery compares it against the origin's current rendition
//! signature to detect write/invalidation conflicts (the origin moved on
//! while the write sat buffered across a crash). `writer_seq` is the
//! per-`(doc, user)` causal sequence: together with the epoch it orders
//! concurrent writers deterministically during a merge.
//!
//! # Recovery
//!
//! [`WriteJournal::open`] parses whatever the medium holds, keeps the
//! longest intact prefix (every record framed correctly and matching its
//! checksum), truncates anything after it — the torn last record a crash
//! tore mid-append — and rebuilds the live set, deduplicating by
//! `(doc, user)` with the highest sequence number winning (a superseded
//! record may still sit on the medium between compactions).
//!
//! Everything here is synchronous and deterministic; the journal knows
//! nothing about origins or retries — parking and draining policy live in
//! [`crate::manager::DocumentCache`].

use crate::digest::{md5, Signature};
use bytes::Bytes;
use parking_lot::Mutex;
use placeless_core::id::{DocumentId, UserId};
use placeless_core::op::{decode_ops, encode_ops, DocOp};
use placeless_simenv::StableStore;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The epoch recorded when the writer never read the document: no base
/// version is known, so recovery cannot detect conflicts for the record.
pub const NO_EPOCH: Signature = Signature([0; 16]);

/// Fixed bytes before the payload: seq + doc + user + epoch + data_len.
const HEADER_LEN: usize = 8 + 8 + 8 + 16 + 4;
/// Trailing checksum bytes.
const CHECK_LEN: usize = 16;
/// High bit of the length field: set when the frame carries an op section
/// (`writer_seq` + encoded op list) between the header and the payload.
const OPS_FLAG: u32 = 0x8000_0000;
/// Extra fixed bytes in an op-carrying frame: writer_seq + ops_len.
const OPS_HEADER_LEN: usize = 8 + 4;

/// One journaled write-back write.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Journal-wide sequence number (monotone per journal lifetime).
    pub seq: u64,
    /// Target document.
    pub doc: DocumentId,
    /// Writing user.
    pub user: UserId,
    /// Content signature of the rendition the writer last read, or
    /// [`NO_EPOCH`] if unknown.
    pub epoch: Signature,
    /// The buffered write payload: the writer's materialized view (base
    /// at `epoch` with `ops` applied, when ops are present).
    pub data: Bytes,
    /// Typed operations accumulated since `epoch`, oldest first. Empty
    /// for plain full-body writes — such records cannot be rebased.
    pub ops: Vec<DocOp>,
    /// Per-`(doc, user)` causal sequence at the time of the write; `0`
    /// for plain writes that never participated in op tracking.
    pub writer_seq: u64,
}

impl JournalRecord {
    /// True when the record's ops can be rebased onto a different base
    /// than they were authored against.
    pub fn rebasable(&self) -> bool {
        placeless_core::op::rebasable(&self.ops)
    }

    /// Encodes the whole frame, returning it with its checksum.
    fn encode(&self) -> (Vec<u8>, Signature) {
        let mut out = Vec::new();
        self.encode_body(&mut out);
        let check = md5(&out);
        out.extend_from_slice(&check.0);
        (out, check)
    }

    /// Appends the part of the frame the checksum covers (header, op
    /// section and payload) to `out`.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let plain = self.ops.is_empty() && self.writer_seq == 0;
        let ops_wire = if plain {
            Vec::new()
        } else {
            encode_ops(&self.ops)
        };
        out.reserve(
            HEADER_LEN
                + if plain {
                    0
                } else {
                    OPS_HEADER_LEN + ops_wire.len()
                }
                + self.data.len()
                + CHECK_LEN,
        );
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.doc.0.to_le_bytes());
        out.extend_from_slice(&self.user.0.to_le_bytes());
        out.extend_from_slice(&self.epoch.0);
        let mut len_field = self.data.len() as u32;
        if !plain {
            len_field |= OPS_FLAG;
        }
        out.extend_from_slice(&len_field.to_le_bytes());
        if !plain {
            out.extend_from_slice(&self.writer_seq.to_le_bytes());
            out.extend_from_slice(&(ops_wire.len() as u32).to_le_bytes());
            out.extend_from_slice(&ops_wire);
        }
        out.extend_from_slice(&self.data);
    }

    /// Decodes one record starting at `bytes[offset..]`. Returns the
    /// record, its checksum and the offset past it, or `None` if the
    /// bytes are torn (incomplete) or fail their checksum.
    fn decode(bytes: &[u8], offset: usize) -> Option<(Self, Signature, usize)> {
        let rest = bytes.get(offset..)?;
        if rest.len() < HEADER_LEN + CHECK_LEN {
            return None;
        }
        let seq = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
        let doc = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let user = u64::from_le_bytes(rest[16..24].try_into().expect("8 bytes"));
        let epoch: [u8; 16] = rest[24..40].try_into().expect("16 bytes");
        let len_field = u32::from_le_bytes(rest[40..44].try_into().expect("4 bytes"));
        let has_ops = len_field & OPS_FLAG != 0;
        let data_len = (len_field & !OPS_FLAG) as usize;
        let mut writer_seq = 0u64;
        let mut data_at = HEADER_LEN;
        if has_ops {
            if rest.len() < HEADER_LEN + OPS_HEADER_LEN + CHECK_LEN {
                return None;
            }
            writer_seq = u64::from_le_bytes(rest[44..52].try_into().expect("8 bytes"));
            let ops_len = u32::from_le_bytes(rest[52..56].try_into().expect("4 bytes")) as usize;
            data_at = HEADER_LEN + OPS_HEADER_LEN + ops_len;
        }
        let check_at = data_at.checked_add(data_len)?;
        let total = check_at + CHECK_LEN;
        if rest.len() < total {
            return None;
        }
        let stored: [u8; 16] = rest[check_at..total].try_into().expect("16 bytes");
        if md5(&rest[..check_at]).0 != stored {
            return None;
        }
        let ops = if has_ops {
            let wire = &rest[HEADER_LEN + OPS_HEADER_LEN..data_at];
            let mut at = 0;
            let ops = decode_ops(wire, &mut at)?;
            if at != wire.len() {
                return None; // trailing garbage inside the op section
            }
            ops
        } else {
            Vec::new()
        };
        Some((
            Self {
                seq,
                doc: DocumentId(doc),
                user: UserId(user),
                epoch: Signature(epoch),
                data: Bytes::copy_from_slice(&rest[data_at..check_at]),
                ops,
                writer_seq,
            },
            Signature(stored),
            offset + total,
        ))
    }
}

/// What [`WriteJournal::open`] found on the medium.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// The live records (latest per `(doc, user)`), in sequence order.
    pub records: Vec<JournalRecord>,
    /// Intact records scanned, including superseded duplicates.
    pub scanned: u64,
    /// Bytes discarded past the intact prefix (the torn tail).
    pub torn_bytes: u64,
    /// `true` if the medium held a torn tail that was truncated away.
    pub truncated: bool,
}

#[derive(Debug, Default)]
struct JournalState {
    next_seq: u64,
    /// Live records by seq, each with its frame's checksum so compaction
    /// rewrites the frame without hashing it again.
    live: BTreeMap<u64, (JournalRecord, Signature)>,
    by_key: HashMap<(DocumentId, UserId), u64>,
    appends: u64,
}

impl JournalState {
    /// Inserts `record` as the live write for its key, superseding any
    /// earlier one (the stale bytes stay on the medium until the next
    /// compaction; replay deduplicates by key).
    fn insert(&mut self, record: JournalRecord, check: Signature) {
        let key = (record.doc, record.user);
        if let Some(old) = self.by_key.insert(key, record.seq) {
            self.live.remove(&old);
        }
        self.live.insert(record.seq, (record, check));
    }

    fn live_records(&self) -> Vec<JournalRecord> {
        self.live
            .values()
            .map(|(record, _)| record.clone())
            .collect()
    }
}

/// A write-ahead journal over a [`StableStore`].
///
/// Clones share state (like clones of the underlying store), so the
/// cache and its construction site hold the same journal.
#[derive(Debug, Clone)]
pub struct WriteJournal {
    store: StableStore,
    state: Arc<Mutex<JournalState>>,
}

impl WriteJournal {
    /// Opens a journal over `store`, recovering whatever intact records
    /// the medium holds and truncating any torn tail.
    ///
    /// On a fresh medium the outcome is empty. Sequence numbering resumes
    /// past the highest recovered record.
    pub fn open(store: StableStore) -> (Self, ReplayOutcome) {
        let image = store.contents();
        let mut state = JournalState::default();
        let mut outcome = ReplayOutcome::default();
        let mut offset = 0;
        while let Some((record, check, next)) = JournalRecord::decode(&image, offset) {
            outcome.scanned += 1;
            state.next_seq = state.next_seq.max(record.seq + 1);
            state.insert(record, check);
            offset = next;
        }
        if offset < image.len() {
            outcome.torn_bytes = (image.len() - offset) as u64;
            outcome.truncated = true;
            store.truncate(offset as u64);
        }
        outcome.records = state.live_records();
        (
            Self {
                store,
                state: Arc::new(Mutex::new(state)),
            },
            outcome,
        )
    }

    /// Creates a journal over a fresh (or already-recovered) medium,
    /// discarding any replay information.
    pub fn new(store: StableStore) -> Self {
        Self::open(store).0
    }

    /// Returns the underlying stable medium.
    pub fn store(&self) -> &StableStore {
        &self.store
    }

    /// Appends a write record, returning its sequence number. The record
    /// is on the stable medium before this returns — the write-ahead
    /// guarantee the cache relies on.
    pub fn append(&self, doc: DocumentId, user: UserId, epoch: Signature, data: &[u8]) -> u64 {
        self.append_record(doc, user, epoch, data, Vec::new(), 0)
    }

    /// Appends an op-carrying record: `data` is the writer's materialized
    /// view, `ops` the typed edits accumulated since `epoch` (oldest
    /// first), and `writer_seq` the per-`(doc, user)` causal sequence.
    /// Same write-ahead guarantee as [`WriteJournal::append`].
    pub fn append_op(
        &self,
        doc: DocumentId,
        user: UserId,
        epoch: Signature,
        data: &[u8],
        ops: Vec<DocOp>,
        writer_seq: u64,
    ) -> u64 {
        self.append_record(doc, user, epoch, data, ops, writer_seq)
    }

    fn append_record(
        &self,
        doc: DocumentId,
        user: UserId,
        epoch: Signature,
        data: &[u8],
        ops: Vec<DocOp>,
        writer_seq: u64,
    ) -> u64 {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let record = JournalRecord {
            seq,
            doc,
            user,
            epoch,
            data: Bytes::copy_from_slice(data),
            ops,
            writer_seq,
        };
        let (frame, check) = record.encode();
        self.store.append(&frame);
        state.insert(record, check);
        state.appends += 1;
        seq
    }

    /// Acknowledges a flushed record: removes it from the live set (if
    /// `seq` is still live — a newer write for the same key may have
    /// superseded it) and compacts the medium down to the live records.
    /// Returns `true` if the record was live.
    pub fn ack(&self, seq: u64) -> bool {
        self.ack_batch(std::slice::from_ref(&seq)) == 1
    }

    /// Acknowledges a whole batch of flushed records in one pass: every
    /// still-live `seq` is removed, then the medium is compacted *once*
    /// — the grouped-flush counterpart of [`WriteJournal::ack`], which
    /// rewrites the medium per record. Sequence numbers that were
    /// superseded by a newer write (or already acknowledged) are skipped
    /// exactly as in `ack`. Compaction rewrites each surviving frame
    /// with the checksum kept since its append (or recovery), so it hashes
    /// nothing. Returns how many records were live.
    pub fn ack_batch(&self, seqs: &[u64]) -> usize {
        let mut state = self.state.lock();
        let mut removed = 0;
        for &seq in seqs {
            let Some((record, _)) = state.live.remove(&seq) else {
                continue;
            };
            let key = (record.doc, record.user);
            if state.by_key.get(&key) == Some(&seq) {
                state.by_key.remove(&key);
            }
            removed += 1;
        }
        if removed == 0 {
            return 0;
        }
        let mut image = Vec::new();
        for (record, check) in state.live.values() {
            record.encode_body(&mut image);
            image.extend_from_slice(&check.0);
        }
        self.store.overwrite(&image);
        removed
    }

    /// Returns the live sequence number for `(doc, user)`, if any.
    pub fn seq_for(&self, doc: DocumentId, user: UserId) -> Option<u64> {
        self.state.lock().by_key.get(&(doc, user)).copied()
    }

    /// Returns the live records in sequence order.
    pub fn live_records(&self) -> Vec<JournalRecord> {
        self.state.lock().live_records()
    }

    /// Returns how many records are live (unacknowledged).
    pub fn len(&self) -> usize {
        self.state.lock().live.len()
    }

    /// Returns `true` if no records are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns how many appends this handle's journal absorbed (not
    /// counting records recovered at open).
    pub fn append_count(&self) -> u64 {
        self.state.lock().appends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: DocumentId = DocumentId(7);
    const ALICE: UserId = UserId(1);
    const BOB: UserId = UserId(2);

    /// Asserts that the medium holds exactly a from-scratch encoding of
    /// the live records in seq order: what compaction must leave behind.
    fn assert_medium_is_fresh_encoding(journal: &WriteJournal) {
        let fresh: Vec<u8> = journal
            .live_records()
            .iter()
            .flat_map(|record| record.encode().0)
            .collect();
        assert_eq!(journal.store().contents(), fresh);
    }

    /// Asserts that reopening a copy of the medium recovers exactly the
    /// journal's live set.
    fn assert_reopen_recovers_live_set(journal: &WriteJournal) {
        let copy = StableStore::new();
        copy.append(&journal.store().contents());
        let (reopened, outcome) = WriteJournal::open(copy);
        assert!(!outcome.truncated);
        assert_eq!(outcome.records, journal.live_records());
        assert_eq!(reopened.live_records(), journal.live_records());
    }

    #[test]
    fn append_ack_roundtrip() {
        let (journal, outcome) = WriteJournal::open(StableStore::new());
        assert!(outcome.records.is_empty());
        assert!(!outcome.truncated);
        let seq = journal.append(DOC, ALICE, NO_EPOCH, b"draft");
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.seq_for(DOC, ALICE), Some(seq));
        assert!(journal.ack(seq));
        assert!(journal.is_empty());
        assert!(journal.store().is_empty(), "ack compacts the medium");
        assert!(!journal.ack(seq), "double ack is a no-op");
    }

    #[test]
    fn ack_batch_compacts_once_and_skips_superseded_records() {
        let journal = WriteJournal::new(StableStore::new());
        let a = journal.append(DOC, ALICE, NO_EPOCH, b"alice v1");
        let superseded = journal.append(DOC, BOB, NO_EPOCH, b"bob v1");
        let b = journal.append(DOC, BOB, NO_EPOCH, b"bob v2");
        let keep = journal.append(DocumentId(8), ALICE, NO_EPOCH, b"other");
        let rewrites_before = journal.store().rewrite_count();
        // One batch ack: two live seqs, one already-acked seq.
        assert_eq!(journal.ack_batch(&[a, b, superseded]), 2);
        assert_eq!(
            journal.store().rewrite_count(),
            rewrites_before + 1,
            "the whole batch compacts the medium once"
        );
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.seq_for(DocumentId(8), ALICE), Some(keep));
        assert_medium_is_fresh_encoding(&journal);
        assert_reopen_recovers_live_set(&journal);
        assert_eq!(journal.ack_batch(&[a, b]), 0, "double batch ack is a no-op");
        assert_eq!(
            journal.store().rewrite_count(),
            rewrites_before + 1,
            "an all-stale batch does not rewrite the medium"
        );
    }

    #[test]
    fn newer_write_supersedes_and_ack_is_seq_precise() {
        let journal = WriteJournal::new(StableStore::new());
        let first = journal.append(DOC, ALICE, NO_EPOCH, b"v1");
        let second = journal.append(DOC, ALICE, NO_EPOCH, b"v2");
        assert_eq!(journal.len(), 1, "one live record per key");
        assert!(
            !journal.ack(first),
            "acking the superseded seq must not drop the newer record"
        );
        assert_eq!(journal.seq_for(DOC, ALICE), Some(second));
        assert_eq!(journal.live_records()[0].data, "v2");
    }

    #[test]
    fn reopen_recovers_live_records_in_seq_order() {
        let store = StableStore::new();
        let journal = WriteJournal::new(store.clone());
        journal.append(DOC, ALICE, NO_EPOCH, b"v1");
        journal.append(DocumentId(9), BOB, md5(b"base"), b"other");
        journal.append(DOC, ALICE, NO_EPOCH, b"v2");
        drop(journal); // crash: in-memory state is gone, the medium is not

        let (recovered, outcome) = WriteJournal::open(store);
        assert_eq!(outcome.scanned, 3, "all three records were intact");
        assert!(!outcome.truncated);
        assert_eq!(outcome.records.len(), 2, "deduplicated by key");
        assert_eq!(outcome.records[0].data, "other");
        assert_eq!(outcome.records[0].epoch, md5(b"base"));
        assert_eq!(outcome.records[1].data, "v2", "latest seq wins");
        let next = recovered.append(DOC, BOB, NO_EPOCH, b"new");
        assert!(next >= 3, "sequence numbering resumes past recovery");
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovered() {
        let store = StableStore::new();
        let journal = WriteJournal::new(store.clone());
        journal.append(DOC, ALICE, NO_EPOCH, b"intact one");
        let before = store.len();
        journal.append(DOC, BOB, NO_EPOCH, b"torn in flight");
        store.tear_tail((store.len() - before) / 2); // half the last record
        drop(journal);

        let (recovered, outcome) = WriteJournal::open(store.clone());
        assert!(outcome.truncated);
        assert!(outcome.torn_bytes > 0);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].data, "intact one");
        assert_eq!(
            store.len(),
            before,
            "the medium was truncated back to the intact prefix"
        );
        assert_eq!(recovered.len(), 1);

        // The recovered record carries its checksum into compaction.
        let acked = recovered.append(DocumentId(9), BOB, NO_EPOCH, b"flushed");
        assert!(recovered.ack(acked));
        assert_medium_is_fresh_encoding(&recovered);
        assert_reopen_recovers_live_set(&recovered);
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let store = StableStore::new();
        let journal = WriteJournal::new(store.clone());
        journal.append(DOC, ALICE, NO_EPOCH, b"good");
        let good_len = store.len();
        journal.append(DOC, BOB, NO_EPOCH, b"bad");
        // Flip a payload byte of the second record: framing is intact but
        // the checksum no longer matches.
        let mut image = store.contents();
        let flip = good_len as usize + HEADER_LEN;
        image[flip] ^= 0xFF;
        store.overwrite(&image);

        let (_, outcome) = WriteJournal::open(store);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].data, "good");
        assert!(outcome.truncated);
    }

    #[test]
    fn plain_append_is_byte_identical_to_the_v1_frame() {
        // The parity contract: a journal that never sees ops produces the
        // exact PR-4 medium image, byte for byte.
        let store = StableStore::new();
        let journal = WriteJournal::new(store.clone());
        journal.append(DOC, ALICE, md5(b"base"), b"payload");

        let mut v1 = Vec::new();
        v1.extend_from_slice(&0u64.to_le_bytes());
        v1.extend_from_slice(&DOC.0.to_le_bytes());
        v1.extend_from_slice(&ALICE.0.to_le_bytes());
        v1.extend_from_slice(&md5(b"base").0);
        v1.extend_from_slice(&(b"payload".len() as u32).to_le_bytes());
        v1.extend_from_slice(b"payload");
        let check = md5(&v1);
        v1.extend_from_slice(&check.0);
        assert_eq!(store.contents(), v1);
    }

    #[test]
    fn op_records_roundtrip_across_reopen() {
        use placeless_core::content::PropertyValue;
        let store = StableStore::new();
        let journal = WriteJournal::new(store.clone());
        let ops = vec![
            DocOp::Append(Bytes::from("tail")),
            DocOp::SetProperty {
                name: "color".into(),
                value: PropertyValue::Str("blue".into()),
            },
        ];
        journal.append_op(DOC, ALICE, md5(b"base"), b"base-tail", ops.clone(), 3);
        journal.append(DOC, BOB, NO_EPOCH, b"plain");
        drop(journal);

        let (_, outcome) = WriteJournal::open(store);
        assert_eq!(outcome.records.len(), 2);
        let alice = &outcome.records[0];
        assert_eq!(alice.data, "base-tail");
        assert_eq!(alice.ops, ops);
        assert_eq!(alice.writer_seq, 3);
        assert!(alice.rebasable());
        let bob = &outcome.records[1];
        assert!(bob.ops.is_empty());
        assert_eq!(bob.writer_seq, 0);
        assert!(!bob.rebasable());
    }

    #[test]
    fn torn_op_record_is_truncated_like_a_plain_one() {
        let store = StableStore::new();
        let journal = WriteJournal::new(store.clone());
        journal.append(DOC, ALICE, NO_EPOCH, b"intact");
        let before = store.len();
        journal.append_op(
            DOC,
            BOB,
            md5(b"base"),
            b"view",
            vec![DocOp::Append(Bytes::from("view"))],
            1,
        );
        store.tear_tail((store.len() - before) / 2);
        drop(journal);

        let (_, outcome) = WriteJournal::open(store);
        assert!(outcome.truncated);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].data, "intact");
    }

    #[test]
    fn empty_payload_and_large_payload_roundtrip() {
        let store = StableStore::new();
        let journal = WriteJournal::new(store.clone());
        journal.append(DOC, ALICE, NO_EPOCH, b"");
        let big = vec![0xAB; 10_000];
        journal.append(DOC, BOB, NO_EPOCH, &big);
        let (_, outcome) = WriteJournal::open(store);
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.records[0].data.len(), 0);
        assert_eq!(outcome.records[1].data, big.as_slice());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random appends (plain and op-carrying), supersedes and batch
        /// acks, with a crash that tears the last append midway: after
        /// every compaction the medium is a from-scratch encoding of the
        /// live records, recovered records included, and reopening it
        /// recovers the same live set.
        #[test]
        fn compaction_matches_a_fresh_encoding(
            steps in proptest::collection::vec((0u8..4, 0u64..4, 0usize..96), 1..48),
            crash_at in 0usize..48,
        ) {
            let store = StableStore::new();
            let mut journal = WriteJournal::new(store.clone());
            let mut issued = Vec::new();
            for (i, &(kind, key, len)) in steps.iter().enumerate() {
                let (doc, user) = (DocumentId(key % 2), UserId(key / 2));
                let data: Vec<u8> = (0..len).map(|b| (b as u8) ^ (i as u8)).collect();
                match kind {
                    0 => issued.push(journal.append(doc, user, md5(&data), &data)),
                    1 => issued.push(journal.append_op(
                        doc,
                        user,
                        NO_EPOCH,
                        &data,
                        vec![DocOp::Append(Bytes::from(data.clone()))],
                        i as u64 + 1,
                    )),
                    _ => {
                        // Ack a pseudo-random subset of the seqs issued
                        // so far: some live, some superseded, some acked.
                        let picked: Vec<u64> =
                            issued.iter().copied().filter(|seq| !(seq + len as u64).is_multiple_of(3)).collect();
                        if journal.ack_batch(&picked) > 0 {
                            assert_medium_is_fresh_encoding(&journal);
                        }
                    }
                }
                if i == crash_at {
                    let before = store.len();
                    journal.append(DocumentId(5), UserId(5), NO_EPOCH, &data);
                    store.tear_tail((store.len() - before) / 2 + 1);
                    drop(journal);
                    let (recovered, outcome) = WriteJournal::open(store.clone());
                    proptest::prop_assert!(outcome.truncated);
                    journal = recovered;
                }
            }
            // Force a final compaction and check it and the reopen.
            let live = journal.live_records();
            if let Some(first) = live.first() {
                proptest::prop_assert!(journal.ack(first.seq));
                assert_medium_is_fresh_encoding(&journal);
            }
            assert_reopen_recovers_live_set(&journal);
        }
    }
}
