//! The WAL record vocabulary and its wire encoding.
//!
//! Every durable event is one [`Record`]. On disk a record is framed as
//!
//! ```text
//! ┌───────────┬───────────────┬──────────────┐
//! │ len: u32  │ checksum: u64 │ payload      │   all little-endian
//! └───────────┴───────────────┴──────────────┘
//! ```
//!
//! where `checksum` is FNV-1a over the payload bytes. The frame is what
//! makes recovery safe against torn writes: a crash mid-append leaves
//! either a short header, a short payload, or a payload whose checksum
//! does not match — all three are detected and replay stops *before*
//! applying the damaged suffix, so a partially written charge is never
//! half-applied.
//!
//! ε values and session totals are carried as `f64` bit patterns, so a
//! replayed ledger reproduces the in-memory floating-point state
//! **exactly** — same bits, same sums, same refusal decisions.

use std::io::Read;

/// Maximum payload size the decoder will believe. Real records are tens
/// of bytes; a length beyond this is a corrupt frame, not a huge record,
/// and replay must stop rather than attempt a gigabyte allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Bytes of framing before the payload (`u32` length + `u64` checksum).
pub const FRAME_HEADER_LEN: usize = 4 + 8;

/// Which registry a [`Record::Registered`] entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegistryKind {
    /// A named policy.
    Policy,
    /// A named tabular dataset.
    Dataset,
    /// A named point set (k-means input).
    Points,
}

impl RegistryKind {
    /// The human-readable kind name (also used in error messages).
    pub fn as_str(self) -> &'static str {
        match self {
            RegistryKind::Policy => "policy",
            RegistryKind::Dataset => "dataset",
            RegistryKind::Points => "points",
        }
    }

    pub(crate) fn tag(self) -> u8 {
        match self {
            RegistryKind::Policy => 0,
            RegistryKind::Dataset => 1,
            RegistryKind::Points => 2,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(RegistryKind::Policy),
            1 => Some(RegistryKind::Dataset),
            2 => Some(RegistryKind::Points),
            _ => None,
        }
    }
}

impl std::fmt::Display for RegistryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One durable event in the ε-budget ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An analyst opened a session with a total budget.
    SessionOpened {
        /// The analyst's name.
        analyst: String,
        /// Total ε as `f64` bits.
        total_bits: u64,
    },
    /// A charge was drawn from an analyst's ledger. Free
    /// (zero-sensitivity) releases are logged with `eps_bits` of `0.0`
    /// so the served counter survives recovery too.
    Charged {
        /// The analyst who paid.
        analyst: String,
        /// The ledger label of the release.
        label: String,
        /// ε spent as `f64` bits.
        eps_bits: u64,
    },
    /// A named object was registered. The fingerprint binds the name to
    /// the object's content so a recovered engine can refuse a swapped
    /// policy or dataset inheriting the original's spent ledgers.
    Registered {
        /// Which registry.
        kind: RegistryKind,
        /// The registered name.
        name: String,
        /// Content fingerprint (FNV-1a of the object's identity).
        fingerprint: u64,
    },
    /// A named object was deregistered; recovery must not resurrect it.
    Deregistered {
        /// Which registry.
        kind: RegistryKind,
        /// The deregistered name.
        name: String,
    },
    /// High-water mark of a release identity's noise ordinal, written at
    /// checkpoint so a restarted engine resumes each identity's ordinal
    /// sequence instead of replaying earlier releases' exact noise.
    /// Replay keeps the **maximum** seen per fingerprint — ordinals must
    /// never move backwards.
    ReleaseSeq {
        /// FNV-1a fingerprint of the release identity
        /// `(policy, data, ε, query class)`.
        fingerprint: u64,
        /// Releases performed under this identity so far (the next
        /// ordinal to assign).
        seq: u64,
    },
    /// A charge **and** its answer in one frame — the idempotency
    /// record behind exactly-once retries. The charge and the cached
    /// reply must be atomic with respect to recovery: two separate
    /// records could be cut apart by a torn tail, leaving a durable
    /// charge whose answer is lost (a retry would then double-charge).
    /// One frame is indivisible, so either the retry finds the cached
    /// answer (charged once, answered identically) or the whole event
    /// never happened (the retry re-executes and charges once).
    Replied {
        /// The analyst who paid.
        analyst: String,
        /// The client-chosen idempotency key, unique per analyst.
        request_id: u64,
        /// The ledger label of the release.
        label: String,
        /// ε spent as `f64` bits (0.0 for a coalesced duplicate whose
        /// charge rode an earlier record).
        eps_bits: u64,
        /// The encoded answer bytes returned to the analyst (the
        /// engine's `Response` wire encoding), replayed verbatim on
        /// retry.
        payload: Vec<u8>,
    },
    /// A replicated-log entry made durable *before* its acknowledgement
    /// counts toward a quorum (`bf-replica`). The payload is the opaque
    /// encoded log operation (an `OpenSession` or a `Submit`); the store
    /// only tracks its `(epoch, index)` position so recovery knows the
    /// logged high-water mark and which entries still await execution.
    Replicated {
        /// The sequencing epoch the entry was stamped under.
        epoch: u64,
        /// The entry's monotone position in the replicated log (1-based).
        index: u64,
        /// The analyst the operation belongs to.
        analyst: String,
        /// The idempotency key execution will use (`Record::Replied`).
        request_id: u64,
        /// The encoded log operation, replayed verbatim on recovery.
        payload: Vec<u8>,
    },
    /// Execution high-water mark of the replicated log: every entry at
    /// or below `index` has been applied through the engine. Written
    /// after each applied entry so recovery resumes execution exactly
    /// where it stopped; a crash between an entry's `Replied` record and
    /// its `LogApplied` record is harmless — re-execution hits the reply
    /// cache at zero ε and re-writes the mark.
    LogApplied {
        /// Highest applied log index.
        index: u64,
    },
    /// The replicated log was truncated back to `index`: every logged
    /// entry **above** it is discarded as if never written. A follower
    /// writes this when the cluster's new leader proves the follower's
    /// un-applied tail belongs to a deposed epoch (log reconciliation
    /// after failover). Truncation never reaches applied entries — the
    /// replication layer halts instead of unwinding executed state.
    LogTruncated {
        /// Highest surviving log index.
        index: u64,
    },
}

const TAG_SESSION_OPENED: u8 = 1;
const TAG_CHARGED: u8 = 2;
const TAG_REGISTERED: u8 = 3;
const TAG_DEREGISTERED: u8 = 4;
const TAG_RELEASE_SEQ: u8 = 5;
const TAG_REPLIED: u8 = 6;
const TAG_REPLICATED: u8 = 7;
const TAG_LOG_APPLIED: u8 = 8;
const TAG_LOG_TRUNCATED: u8 = 9;

/// FNV-1a over a byte slice — the same stable hash the engine's shard
/// router uses, here guarding frame integrity.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Frames an arbitrary payload exactly the way [`Record::frame`] does:
/// `len: u32 | fnv1a(payload): u64 | payload`, all little-endian. This
/// is the record-framing discipline shared by the WAL and the network
/// wire protocol (`bf-net`), exposed so every length-prefixed,
/// checksummed byte stream in the workspace parses — and fails — the
/// same way.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How one attempt to take a frame off the front of a byte buffer went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// An intact frame: its payload, plus the total number of bytes the
    /// frame occupied (consume `consumed` bytes before reading again).
    Complete {
        /// The checksum-verified payload.
        payload: &'a [u8],
        /// Frame header + payload length.
        consumed: usize,
    },
    /// Not enough bytes yet — read more and retry.
    Incomplete,
    /// The header or checksum is wrong; the stream cannot be trusted
    /// past this point.
    Corrupt,
}

/// Attempts to read one [`frame_bytes`]-framed payload from the front of
/// `buf` without consuming it. A length beyond [`MAX_RECORD_LEN`] or a
/// checksum mismatch is [`FrameRead::Corrupt`] — a framing error is
/// never reported as "wait for more bytes", so a corrupted stream fails
/// fast instead of hanging a reader forever.
pub fn read_frame(buf: &[u8]) -> FrameRead<'_> {
    if buf.len() < FRAME_HEADER_LEN {
        return FrameRead::Incomplete;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return FrameRead::Corrupt;
    }
    let end = FRAME_HEADER_LEN + len as usize;
    if buf.len() < end {
        return FrameRead::Incomplete;
    }
    let checksum = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let payload = &buf[FRAME_HEADER_LEN..end];
    if fnv1a(payload) != checksum {
        return FrameRead::Corrupt;
    }
    FrameRead::Complete {
        payload,
        consumed: end,
    }
}

/// Appends a length-prefixed UTF-8 string to a wire payload (the
/// encoding [`Reader::str`] reverses).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a little-endian `u64` to a wire payload.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte slice to a wire payload (the encoding
/// [`Reader::bytes`] reverses).
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Cursor over the little-endian wire encoding, shared by record,
/// snapshot and network-message decoding. Every read is bounds-checked;
/// `None` means the bytes are not what the writer produced.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Reads a [`put_str`]-encoded string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let s = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        String::from_utf8(s.to_vec()).ok()
    }

    /// Reads a [`put_bytes`]-encoded byte slice.
    pub fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        let b = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(b.to_vec())
    }

    /// Whether the cursor consumed the buffer exactly — decoders require
    /// this so trailing garbage is rejected, not ignored.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl Record {
    /// The payload bytes (no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match self {
            Record::SessionOpened {
                analyst,
                total_bits,
            } => {
                out.push(TAG_SESSION_OPENED);
                put_str(&mut out, analyst);
                put_u64(&mut out, *total_bits);
            }
            Record::Charged {
                analyst,
                label,
                eps_bits,
            } => {
                out.push(TAG_CHARGED);
                put_str(&mut out, analyst);
                put_str(&mut out, label);
                put_u64(&mut out, *eps_bits);
            }
            Record::Registered {
                kind,
                name,
                fingerprint,
            } => {
                out.push(TAG_REGISTERED);
                out.push(kind.tag());
                put_str(&mut out, name);
                put_u64(&mut out, *fingerprint);
            }
            Record::Deregistered { kind, name } => {
                out.push(TAG_DEREGISTERED);
                out.push(kind.tag());
                put_str(&mut out, name);
            }
            Record::ReleaseSeq { fingerprint, seq } => {
                out.push(TAG_RELEASE_SEQ);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *seq);
            }
            Record::Replied {
                analyst,
                request_id,
                label,
                eps_bits,
                payload,
            } => {
                out.push(TAG_REPLIED);
                put_str(&mut out, analyst);
                put_u64(&mut out, *request_id);
                put_str(&mut out, label);
                put_u64(&mut out, *eps_bits);
                put_bytes(&mut out, payload);
            }
            Record::Replicated {
                epoch,
                index,
                analyst,
                request_id,
                payload,
            } => {
                out.push(TAG_REPLICATED);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *index);
                put_str(&mut out, analyst);
                put_u64(&mut out, *request_id);
                put_bytes(&mut out, payload);
            }
            Record::LogApplied { index } => {
                out.push(TAG_LOG_APPLIED);
                put_u64(&mut out, *index);
            }
            Record::LogTruncated { index } => {
                out.push(TAG_LOG_TRUNCATED);
                put_u64(&mut out, *index);
            }
        }
        out
    }

    /// Decodes a payload produced by [`Record::encode`]. `None` when the
    /// bytes are not a well-formed record (recovery treats this like a
    /// checksum failure: stop, do not guess).
    pub fn decode(payload: &[u8]) -> Option<Record> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_SESSION_OPENED => Record::SessionOpened {
                analyst: r.str()?,
                total_bits: r.u64()?,
            },
            TAG_CHARGED => Record::Charged {
                analyst: r.str()?,
                label: r.str()?,
                eps_bits: r.u64()?,
            },
            TAG_REGISTERED => Record::Registered {
                kind: RegistryKind::from_tag(r.u8()?)?,
                name: r.str()?,
                fingerprint: r.u64()?,
            },
            TAG_DEREGISTERED => Record::Deregistered {
                kind: RegistryKind::from_tag(r.u8()?)?,
                name: r.str()?,
            },
            TAG_RELEASE_SEQ => Record::ReleaseSeq {
                fingerprint: r.u64()?,
                seq: r.u64()?,
            },
            TAG_REPLIED => Record::Replied {
                analyst: r.str()?,
                request_id: r.u64()?,
                label: r.str()?,
                eps_bits: r.u64()?,
                payload: r.bytes()?,
            },
            TAG_REPLICATED => Record::Replicated {
                epoch: r.u64()?,
                index: r.u64()?,
                analyst: r.str()?,
                request_id: r.u64()?,
                payload: r.bytes()?,
            },
            TAG_LOG_APPLIED => Record::LogApplied { index: r.u64()? },
            TAG_LOG_TRUNCATED => Record::LogTruncated { index: r.u64()? },
            _ => return None,
        };
        r.done().then_some(record)
    }

    /// Frames the payload for appending: `len | fnv1a | payload`.
    pub fn frame(&self) -> Vec<u8> {
        frame_bytes(&self.encode())
    }

    /// Convenience constructor for a charge record.
    pub fn charged(analyst: &str, label: &str, epsilon: f64) -> Record {
        Record::Charged {
            analyst: analyst.to_owned(),
            label: label.to_owned(),
            eps_bits: epsilon.to_bits(),
        }
    }

    /// Convenience constructor for a session-open record.
    pub fn session_opened(analyst: &str, total: f64) -> Record {
        Record::SessionOpened {
            analyst: analyst.to_owned(),
            total_bits: total.to_bits(),
        }
    }

    /// Convenience constructor for an atomic charge + cached-reply
    /// record.
    pub fn replied(
        analyst: &str,
        request_id: u64,
        label: &str,
        epsilon: f64,
        payload: Vec<u8>,
    ) -> Record {
        Record::Replied {
            analyst: analyst.to_owned(),
            request_id,
            label: label.to_owned(),
            eps_bits: epsilon.to_bits(),
            payload,
        }
    }
}

/// Why a segment scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The segment ended exactly on a frame boundary.
    Clean,
    /// The tail held fewer bytes than the frame promised — the classic
    /// torn write of a crash mid-append.
    TornTail,
    /// A complete frame failed its checksum or would not decode.
    Corrupt,
}

/// Walks the framed records in `bytes`, calling `apply` for each intact
/// record in order, and reports how the scan ended plus the byte offset
/// of the first non-applied frame.
pub fn scan_frames(bytes: &[u8], apply: impl FnMut(Record)) -> (ScanEnd, usize) {
    let mut scanner = FrameScanner::new(bytes);
    let end = scanner
        .scan(apply)
        .expect("reading a byte slice cannot fail");
    (end, scanner.offset())
}

/// Whether any byte offset in `bytes[from..]` starts an intact frame
/// (sane length, matching checksum, decodable payload).
///
/// Recovery uses this to tell a *tear* from *bit rot* when a segment's
/// scan stops on a corrupt frame: group commit fsyncs batch N before
/// batch N+1 is written, so an intact frame **after** the damage proves
/// the damaged region was once durable — acknowledged charges would be
/// silently dropped by skipping it, and recovery must refuse instead.
/// (A genuine crash tear has only never-synced garbage after it; a
/// false positive here costs an operator intervention, never ε.)
pub fn has_intact_frame_after(bytes: &[u8], from: usize) -> bool {
    FrameScanner::new(bytes.get(from..).unwrap_or_default())
        .intact_frame_ahead()
        .expect("reading a byte slice cannot fail")
}

/// Bytes requested from the source per read.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Scans a framed byte stream — a WAL segment file or bytes in memory —
/// through a bounded buffer: it holds at most one maximum-size frame plus
/// one read chunk, however long the stream is.
pub(crate) struct FrameScanner<R> {
    src: R,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    head: usize,
    /// Stream offset of `buf[head]`.
    offset: usize,
    eof: bool,
}

impl<R: Read> FrameScanner<R> {
    pub(crate) fn new(src: R) -> Self {
        Self {
            src,
            buf: Vec::new(),
            head: 0,
            offset: 0,
            eof: false,
        }
    }

    /// Stream offset of the first byte not yet consumed: after
    /// [`FrameScanner::scan`], the start of the frame it stopped on.
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }

    /// Reads until at least `n` unconsumed bytes are buffered or the
    /// stream ends; returns how many are buffered.
    fn fill(&mut self, n: usize) -> std::io::Result<usize> {
        let buffered = self.buf.len() - self.head;
        if buffered < n && !self.eof {
            self.buf.drain(..self.head);
            self.head = 0;
            // `read_to_end` on a `take` stops at the limit or at the end
            // of the stream, whichever comes first.
            let limit = READ_CHUNK.max(n - buffered);
            let got = (&mut self.src)
                .take(limit as u64)
                .read_to_end(&mut self.buf)?;
            self.eof = got < limit;
        }
        Ok(self.buf.len() - self.head)
    }

    /// The frame at the head: `Ok(len)` with its payload length when the
    /// header is sane and the whole frame is buffered, `Err(end)` with how
    /// the scan would end there otherwise.
    fn frame_at_head(&mut self) -> std::io::Result<Result<usize, ScanEnd>> {
        let available = self.fill(FRAME_HEADER_LEN)?;
        if available == 0 {
            return Ok(Err(ScanEnd::Clean));
        }
        if available < FRAME_HEADER_LEN {
            return Ok(Err(ScanEnd::TornTail));
        }
        let header = &self.buf[self.head..self.head + FRAME_HEADER_LEN];
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Ok(Err(ScanEnd::Corrupt));
        }
        let len = len as usize;
        if self.fill(FRAME_HEADER_LEN + len)? < FRAME_HEADER_LEN + len {
            return Ok(Err(ScanEnd::TornTail));
        }
        Ok(Ok(len))
    }

    /// The head frame's record, if its checksum matches and it decodes.
    fn record_at_head(&self, len: usize) -> Option<Record> {
        let frame = &self.buf[self.head..self.head + FRAME_HEADER_LEN + len];
        let checksum = u64::from_le_bytes(frame[4..FRAME_HEADER_LEN].try_into().unwrap());
        let payload = &frame[FRAME_HEADER_LEN..];
        (fnv1a(payload) == checksum)
            .then(|| Record::decode(payload))
            .flatten()
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
        self.offset += n;
    }

    /// Calls `apply` for each intact record in order and reports how the
    /// scan ended; [`FrameScanner::offset`] is then the first frame not
    /// applied.
    pub(crate) fn scan(&mut self, mut apply: impl FnMut(Record)) -> std::io::Result<ScanEnd> {
        loop {
            let len = match self.frame_at_head()? {
                Ok(len) => len,
                Err(end) => return Ok(end),
            };
            let Some(record) = self.record_at_head(len) else {
                return Ok(ScanEnd::Corrupt);
            };
            apply(record);
            self.consume(FRAME_HEADER_LEN + len);
        }
    }

    /// Whether any byte offset from the head on starts an intact frame
    /// (see [`has_intact_frame_after`]). Consumes the stream.
    pub(crate) fn intact_frame_ahead(&mut self) -> std::io::Result<bool> {
        loop {
            match self.frame_at_head()? {
                Ok(len) if self.record_at_head(len).is_some() => return Ok(true),
                Err(ScanEnd::Clean | ScanEnd::TornTail)
                    if self.buf.len() - self.head < FRAME_HEADER_LEN =>
                {
                    return Ok(false)
                }
                _ => self.consume(1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::session_opened("alice", 1.5),
            Record::charged("alice", "range@pol/ds", 0.25),
            Record::Registered {
                kind: RegistryKind::Dataset,
                name: "ds".into(),
                fingerprint: 0xDEAD_BEEF,
            },
            Record::Deregistered {
                kind: RegistryKind::Policy,
                name: "pol".into(),
            },
            Record::ReleaseSeq {
                fingerprint: 0x1234_5678_9ABC_DEF0,
                seq: 42,
            },
            Record::replied("alice", 7, "range@pol/ds", 0.25, vec![3, 0, 0, 0, 1, 2, 3]),
            Record::Replicated {
                epoch: 2,
                index: 19,
                analyst: "alice".into(),
                request_id: 7,
                payload: vec![2, 9, 9, 9],
            },
            Record::LogApplied { index: 19 },
            Record::LogTruncated { index: 21 },
        ]
    }

    #[test]
    fn read_frame_roundtrips_and_detects_damage() {
        let payload = b"arbitrary net payload";
        let framed = frame_bytes(payload);
        match read_frame(&framed) {
            FrameRead::Complete {
                payload: p,
                consumed,
            } => {
                assert_eq!(p, payload);
                assert_eq!(consumed, framed.len());
            }
            other => panic!("expected complete frame, got {other:?}"),
        }
        // Every strict prefix is incomplete, never corrupt: a partial
        // TCP read must wait, not kill the connection.
        for cut in 0..framed.len() {
            assert_eq!(read_frame(&framed[..cut]), FrameRead::Incomplete, "{cut}");
        }
        // A flipped payload byte is corrupt once the frame is whole.
        let mut bad = framed.clone();
        bad[FRAME_HEADER_LEN + 3] ^= 0x40;
        assert_eq!(read_frame(&bad), FrameRead::Corrupt);
        // An absurd length field is corrupt, not an allocation attempt.
        let mut huge = framed;
        huge[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        assert_eq!(read_frame(&huge), FrameRead::Corrupt);
        // Record::frame and frame_bytes agree bit for bit.
        let r = Record::charged("a", "l", 0.5);
        assert_eq!(r.frame(), frame_bytes(&r.encode()));
    }

    #[test]
    fn roundtrip_every_variant() {
        for r in samples() {
            assert_eq!(Record::decode(&r.encode()), Some(r.clone()));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = Record::charged("a", "l", 0.1).encode();
        payload.push(0);
        assert_eq!(Record::decode(&payload), None);
        assert_eq!(Record::decode(&[]), None);
        assert_eq!(Record::decode(&[99]), None);
    }

    #[test]
    fn scan_applies_in_order_and_stops_clean() {
        let mut bytes = Vec::new();
        for r in samples() {
            bytes.extend_from_slice(&r.frame());
        }
        let mut seen = Vec::new();
        let (end, pos) = scan_frames(&bytes, |r| seen.push(r));
        assert_eq!(end, ScanEnd::Clean);
        assert_eq!(pos, bytes.len());
        assert_eq!(seen, samples());
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let mut bytes = Vec::new();
        for r in samples() {
            bytes.extend_from_slice(&r.frame());
        }
        let boundaries: Vec<usize> = {
            let mut b = vec![0];
            let mut seen = 0;
            scan_frames(&bytes, |_| seen += 1);
            assert_eq!(seen, samples().len());
            let mut pos = 0;
            while pos < bytes.len() {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += FRAME_HEADER_LEN + len;
                b.push(pos);
            }
            b
        };
        for cut in 0..bytes.len() {
            let mut applied = 0;
            let (end, stop) = scan_frames(&bytes[..cut], |_| applied += 1);
            // Exactly the records wholly before the cut are applied …
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(applied, expected, "cut at {cut}");
            // … and the scan stops at the last boundary, never clean
            // unless the cut IS a boundary.
            assert_eq!(stop, boundaries[expected]);
            if boundaries.contains(&cut) {
                assert_eq!(end, ScanEnd::Clean);
            } else {
                assert_eq!(end, ScanEnd::TornTail);
            }
        }
    }

    #[test]
    fn corrupt_frames_stop_the_scan() {
        let mut bytes = Vec::new();
        for r in samples() {
            bytes.extend_from_slice(&r.frame());
        }
        // Flip one payload byte in the second record.
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_start = FRAME_HEADER_LEN + first_len;
        let mut corrupt = bytes.clone();
        corrupt[second_start + FRAME_HEADER_LEN + 2] ^= 0xFF;
        let mut applied = 0;
        let (end, stop) = scan_frames(&corrupt, |_| applied += 1);
        assert_eq!(end, ScanEnd::Corrupt);
        assert_eq!(applied, 1, "only the intact prefix applies");
        assert_eq!(stop, second_start);
        // An absurd length is corrupt, not an allocation attempt.
        let mut huge = bytes;
        huge[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        let (end, _) = scan_frames(&huge, |_| {});
        assert_eq!(end, ScanEnd::Corrupt);
    }

    /// Hands out at most 7 bytes per read, so frames straddle every read
    /// boundary.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out.len().min(7).min(self.0.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn streamed_scan_matches_in_memory_scan_at_every_cut_and_flip() {
        let bytes: Vec<u8> = samples().iter().flat_map(Record::frame).collect();
        let mut inputs: Vec<Vec<u8>> = (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        inputs.extend((0..bytes.len()).map(|i| {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x5A;
            flipped
        }));
        for data in &inputs {
            let mut whole = Vec::new();
            let (end, offset) = scan_frames(data, |r| whole.push(r));
            let mut streamed = Vec::new();
            let mut scanner = FrameScanner::new(Trickle(data));
            assert_eq!(scanner.scan(|r| streamed.push(r)).unwrap(), end);
            assert_eq!(scanner.offset(), offset);
            assert_eq!(streamed, whole);
            assert_eq!(
                scanner.intact_frame_ahead().unwrap(),
                has_intact_frame_after(data, offset)
            );
        }
    }
}
