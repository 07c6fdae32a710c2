//! The read side: an out-of-core record iterator over a stored trace,
//! plus replay drivers that feed any [`Observer`] — in particular the
//! streaming [`OnlineValidator`] — the exact event/fault sequence of the
//! recorded execution.

use crate::error::StoreError;
use crate::format::Digest;
use crate::format::{
    decode_topology, read_varint, TraceHeader, END_TAG, HEADER_LEN, MAX_VARINT_LEN,
};
use amac_graph::{DualGraph, NodeId};
use amac_mac::trace::TraceKind;
use amac_mac::trace::{FaultRecord, TraceEntry};
use amac_mac::{
    FaultKind, InstanceId, MacConfig, MessageKey, Observer, OnlineStats, OnlineValidator,
    ValidationReport,
};
use amac_sim::Time;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// One re-materialized record of a stored trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoredRecord {
    /// A MAC-level event.
    Event(TraceEntry),
    /// An applied node fault.
    Fault(FaultRecord),
}

/// The End record's payload: what the writer sealed into the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trailer {
    /// Whether the recorded run ended by draining its event queue
    /// (`RunOutcome::Idle`) — the flag replayed validators pass to
    /// [`OnlineValidator::into_report`].
    pub quiescent: bool,
    /// Event records in the file.
    pub events: u64,
    /// Fault records in the file.
    pub faults: u64,
}

/// Streaming reader of a stored trace: parses the header and topology
/// eagerly, then yields records one at a time — out-of-core, O(1) memory
/// in the execution length.
///
/// [`next_record`](TraceReader::next_record) returns `Ok(None)` only
/// after a verified End record (counts and stream digest checked);
/// anything else — truncation, a bad tag, a digest mismatch — is a
/// [`StoreError`]. After the end, [`trailer`](TraceReader::trailer)
/// exposes the sealed flags.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    header: TraceHeader,
    dual: DualGraph,
    digest: Digest,
    last_ticks: u64,
    events_seen: u64,
    faults_seen: u64,
    trailer: Option<Trailer>,
    /// Byte offset into the file of the next unread byte.
    offset: u64,
    /// Reused record-body scratch buffer.
    scratch: Vec<u8>,
}

impl TraceReader<BufReader<File>> {
    /// Opens the trace file at `path` and parses its header and topology.
    ///
    /// # Errors
    ///
    /// Fails on IO errors and on a malformed header/topology section.
    pub fn open(path: &Path) -> Result<TraceReader<BufReader<File>>, StoreError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps any byte source, parsing the header and topology section.
    ///
    /// # Errors
    ///
    /// Fails on IO errors and on a malformed header/topology section.
    pub fn new(mut input: R) -> Result<TraceReader<R>, StoreError> {
        let mut header_bytes = [0u8; HEADER_LEN];
        read_exact_at(&mut input, &mut header_bytes, 0)?;
        let header = TraceHeader::decode(&header_bytes)?;
        let mut offset = HEADER_LEN as u64;

        let topo_len = read_stream_varint(&mut input, &mut offset, "topology section length")?;
        // An absurd length is corruption, not an allocation request. The
        // cap is generous: 20 bytes per edge of a simple graph on n nodes.
        let n = header.nodes;
        let max_topo = (n.saturating_mul(n.saturating_sub(1)) / 2)
            .saturating_mul(20)
            .saturating_add(16);
        if topo_len > max_topo {
            return Err(StoreError::corrupt(
                offset,
                format!("topology section length {topo_len} exceeds plausible {max_topo}"),
            ));
        }
        // The cap grows with the header's node count, so the section is
        // read as it arrives rather than allocated at its claimed length.
        let mut topology = Vec::new();
        input.by_ref().take(topo_len).read_to_end(&mut topology)?;
        if (topology.len() as u64) < topo_len {
            return Err(StoreError::corrupt(offset, "file truncated"));
        }
        let topo_offset = offset;
        offset += topo_len;
        let found = crate::format::fnv1a64(&topology);
        if found != header.topology_digest {
            return Err(StoreError::corrupt(
                topo_offset,
                format!(
                    "topology digest mismatch: header 0x{:016x}, section 0x{found:016x}",
                    header.topology_digest
                ),
            ));
        }
        let dual = decode_topology(&topology, header.nodes, topo_offset)?;

        Ok(TraceReader {
            input,
            header,
            dual,
            digest: Digest::new(),
            last_ticks: 0,
            events_seen: 0,
            faults_seen: 0,
            trailer: None,
            offset,
            scratch: Vec::with_capacity(32),
        })
    }

    /// The decoded file header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The dual graph reconstructed from the topology section.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// The MAC configuration of the recorded execution.
    pub fn config(&self) -> MacConfig {
        self.header.config()
    }

    /// The End record's payload, available once
    /// [`next_record`](TraceReader::next_record) has returned `Ok(None)`.
    pub fn trailer(&self) -> Option<&Trailer> {
        self.trailer.as_ref()
    }

    /// Decodes the next record, or `Ok(None)` after a verified End
    /// record.
    ///
    /// # Errors
    ///
    /// Fails on IO errors and on any malformation of the stream:
    /// truncation (EOF before the End record), unknown tags, overlong
    /// varints, times running backwards, count or digest mismatches in
    /// the End record, and bytes after it.
    pub fn next_record(&mut self) -> Result<Option<StoredRecord>, StoreError> {
        if self.trailer.is_some() {
            return Ok(None);
        }
        let frame_start = self.offset;
        let digest_before = self.digest.value();
        let body_len = self.framed_varint("record length")?;
        if body_len == 0 || body_len > 4 * MAX_VARINT_LEN as u64 + 16 {
            return Err(StoreError::corrupt(
                frame_start,
                format!("implausible record length {body_len}"),
            ));
        }
        self.scratch.resize(body_len as usize, 0);
        let mut body = std::mem::take(&mut self.scratch);
        let res = read_exact_at(&mut self.input, &mut body, self.offset);
        self.scratch = body;
        res.map_err(|e| match e {
            // EOF inside a record is a truncated file, not a clean end.
            StoreError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
                StoreError::corrupt(self.offset, "file truncated inside a record")
            }
            other => other,
        })?;
        self.digest.update(&self.scratch);
        let body_offset = self.offset;
        self.offset += body_len;

        let tag = self.scratch[0];
        if tag == END_TAG {
            // `digest_before` excludes the End record's own bytes: the
            // sealed digest covers everything before the End record.
            return self.read_end(body_offset, digest_before);
        }
        let mut pos = 1usize;
        let corrupt =
            |pos: usize, detail: String| StoreError::corrupt(body_offset + pos as u64, detail);
        let varint = |pos: &mut usize, what: &str| {
            read_varint(&self.scratch, pos)
                .ok_or_else(|| corrupt(*pos, format!("truncated {what} in record")))
        };
        let delta = varint(&mut pos, "time delta")?;
        let ticks = self.last_ticks.checked_add(delta).ok_or_else(|| {
            corrupt(
                1,
                format!("time overflows u64 (base {} + {delta})", self.last_ticks),
            )
        })?;
        let record = if let Some(kind) = TraceKind::from_code(tag) {
            let instance = varint(&mut pos, "instance id")?;
            let node = varint(&mut pos, "node id")?;
            let key = varint(&mut pos, "message key")?;
            if node >= self.header.nodes {
                return Err(corrupt(
                    pos,
                    format!("node {node} out of range (n={})", self.header.nodes),
                ));
            }
            self.events_seen += 1;
            StoredRecord::Event(TraceEntry {
                time: Time::from_ticks(ticks),
                instance: InstanceId::new(instance),
                node: NodeId::new(node as usize),
                kind,
                key: MessageKey(key),
            })
        } else if let Some(kind) = FaultKind::from_code(tag) {
            let node = varint(&mut pos, "node id")?;
            if node >= self.header.nodes {
                return Err(corrupt(
                    pos,
                    format!("node {node} out of range (n={})", self.header.nodes),
                ));
            }
            self.faults_seen += 1;
            StoredRecord::Fault(FaultRecord {
                time: Time::from_ticks(ticks),
                node: NodeId::new(node as usize),
                kind,
            })
        } else {
            return Err(corrupt(0, format!("unknown record tag 0x{tag:02x}")));
        };
        if pos != self.scratch.len() {
            return Err(corrupt(pos, "trailing bytes in record body".to_string()));
        }
        self.last_ticks = ticks;
        Ok(Some(record))
    }

    fn read_end(
        &mut self,
        body_offset: u64,
        digest_before: u64,
    ) -> Result<Option<StoredRecord>, StoreError> {
        let corrupt =
            |pos: usize, detail: String| StoreError::corrupt(body_offset + pos as u64, detail);
        let mut pos = 1usize;
        let quiescent = match self.scratch.get(pos) {
            Some(0) => false,
            Some(1) => true,
            other => {
                return Err(corrupt(pos, format!("bad quiescent byte {other:?}")));
            }
        };
        pos += 1;
        let events = read_varint(&self.scratch, &mut pos)
            .ok_or_else(|| corrupt(pos, "truncated event count".to_string()))?;
        let faults = read_varint(&self.scratch, &mut pos)
            .ok_or_else(|| corrupt(pos, "truncated fault count".to_string()))?;
        let digest_bytes = self
            .scratch
            .get(pos..pos + 8)
            .ok_or_else(|| corrupt(pos, "truncated stream digest".to_string()))?;
        let sealed = u64::from_le_bytes(digest_bytes.try_into().expect("8-byte slice"));
        pos += 8;
        if pos != self.scratch.len() {
            return Err(corrupt(pos, "trailing bytes in End record".to_string()));
        }
        if events != self.events_seen || faults != self.faults_seen {
            return Err(corrupt(
                0,
                format!(
                    "count mismatch: End record says {events} events / {faults} faults, \
                     stream had {} / {}",
                    self.events_seen, self.faults_seen
                ),
            ));
        }
        // The writer folds the quiescent byte into the digest before
        // sealing (it has no other cross-check); mirror that here.
        let digest_before = {
            let mut d = Digest::from_value(digest_before);
            d.update(&[u8::from(quiescent)]);
            d.value()
        };
        if sealed != digest_before {
            return Err(corrupt(
                0,
                format!("stream digest mismatch: sealed 0x{sealed:016x}, computed 0x{digest_before:016x}"),
            ));
        }
        // Nothing may follow the End record.
        let mut one = [0u8; 1];
        match self.input.read(&mut one) {
            Ok(0) => {}
            Ok(_) => {
                return Err(StoreError::corrupt(
                    self.offset,
                    "bytes after the End record",
                ));
            }
            Err(e) => return Err(e.into()),
        }
        self.trailer = Some(Trailer {
            quiescent,
            events,
            faults,
        });
        Ok(None)
    }

    fn framed_varint(&mut self, what: &str) -> Result<u64, StoreError> {
        read_stream_varint_hashed(
            &mut self.input,
            &mut self.offset,
            Some(&mut self.digest),
            what,
        )
    }
}

/// Reads exactly `buf.len()` bytes, mapping EOF to a truncation error at
/// `offset`.
fn read_exact_at<R: Read>(input: &mut R, buf: &mut [u8], offset: u64) -> Result<(), StoreError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::corrupt(offset, "file truncated")
        } else {
            StoreError::Io(e)
        }
    })
}

fn read_stream_varint<R: Read>(
    input: &mut R,
    offset: &mut u64,
    what: &str,
) -> Result<u64, StoreError> {
    read_stream_varint_hashed(input, offset, None, what)
}

/// Decodes one varint directly from the stream, advancing `offset` and
/// folding the consumed bytes into `digest` when given.
fn read_stream_varint_hashed<R: Read>(
    input: &mut R,
    offset: &mut u64,
    mut digest: Option<&mut Digest>,
    what: &str,
) -> Result<u64, StoreError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT_LEN as u32 + 1 {
        let mut byte = [0u8; 1];
        input.read_exact(&mut byte).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::corrupt(*offset, format!("file truncated reading {what}"))
            } else {
                StoreError::Io(e)
            }
        })?;
        if let Some(d) = digest.as_deref_mut() {
            d.update(&byte);
        }
        *offset += 1;
        let b = byte[0];
        if shift == 63 && b > 1 || i as usize >= MAX_VARINT_LEN {
            return Err(StoreError::corrupt(
                *offset,
                format!("overlong varint reading {what}"),
            ));
        }
        value |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    unreachable!("loop returns within MAX_VARINT_LEN + 1 iterations")
}

/// Feeds every stored record of `reader` to `observer` in file order —
/// which is the recorded runtime's exact emission order — and returns the
/// verified trailer.
///
/// # Errors
///
/// Propagates any [`TraceReader`] decoding error.
pub fn replay_into<R: Read, O: Observer>(
    reader: &mut TraceReader<R>,
    observer: &mut O,
) -> Result<Trailer, StoreError> {
    while let Some(record) = reader.next_record()? {
        match record {
            StoredRecord::Event(e) => observer.on_event(&e),
            StoredRecord::Fault(f) => observer.on_fault(f.time, f.node, f.kind),
        }
    }
    Ok(*reader
        .trailer()
        .expect("next_record returned None only after the trailer"))
}

/// Replays a stored trace through a fresh [`OnlineValidator`] built from
/// the file's own topology and bounds, reproducing the live validator's
/// verdict: same violation set, same [`OnlineStats`].
///
/// # Errors
///
/// Propagates any [`TraceReader`] decoding error.
pub fn replay_validate<R: Read>(mut reader: TraceReader<R>) -> Result<TraceSummary, StoreError> {
    let mut validator = OnlineValidator::new(reader.dual().clone(), reader.config());
    let trailer = replay_into(&mut reader, &mut validator)?;
    let stats = validator.stats();
    let validation = validator.into_report(trailer.quiescent);
    Ok(TraceSummary {
        header: *reader.header(),
        events: trailer.events,
        faults: trailer.faults,
        quiescent: trailer.quiescent,
        validation,
        stats,
    })
}

/// The uniform summary of one stored execution: header metadata, record
/// counts, and the validator's verdict plus memory stats.
///
/// Both sides of the determinism contract print this: `repro <exp>
/// --record` builds it from the **live** validator attached during
/// recording, `repro replay` from a fresh validator over the stored
/// stream — for the same file the two renderings are byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace file's header.
    pub header: TraceHeader,
    /// MAC-level event records.
    pub events: u64,
    /// Applied-fault records.
    pub faults: u64,
    /// The sealed quiescent flag.
    pub quiescent: bool,
    /// The validator's verdict over the execution.
    pub validation: ValidationReport,
    /// The validator's peak-memory statistics.
    pub stats: OnlineStats,
}

impl TraceSummary {
    /// Builds the summary for a just-recorded file from the **live**
    /// validator's results: header and counts are read back from `path`
    /// (header + trailer scan), `validation` and `stats` come from the
    /// validator that was attached to the recorded run.
    ///
    /// # Errors
    ///
    /// Fails when `path` cannot be read back as a well-formed trace.
    pub fn for_live(
        path: &Path,
        validation: ValidationReport,
        stats: OnlineStats,
    ) -> Result<TraceSummary, StoreError> {
        let mut reader = TraceReader::open(path)?;
        while reader.next_record()?.is_some() {}
        let trailer = *reader.trailer().expect("drained to the trailer");
        Ok(TraceSummary {
            header: *reader.header(),
            events: trailer.events,
            faults: trailer.faults,
            quiescent: trailer.quiescent,
            validation,
            stats,
        })
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  header: {}", self.header)?;
        writeln!(
            f,
            "  records: {} event(s), {} fault(s)",
            self.events, self.faults
        )?;
        writeln!(f, "  quiescent: {}", self.quiescent)?;
        writeln!(
            f,
            "  stats: peak_live={} peak_tracked={} events={}",
            self.stats.peak_live, self.stats.peak_tracked, self.stats.events
        )?;
        write!(f, "  validation: {}", self.validation.summary())?;
        for v in self.validation.violations() {
            write!(f, "\n    {v}")?;
        }
        Ok(())
    }
}
