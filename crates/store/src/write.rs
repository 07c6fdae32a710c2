//! The write side: a streaming [`TraceWriter`] over any `io::Write` sink
//! and the [`StoreObserver`] that plugs it into the runtime's observer
//! pipeline.

use crate::error::StoreError;
use crate::format::{
    encode_topology, fault_plan_digest, push_varint, Digest, TraceHeader, END_TAG,
};
use amac_graph::{DualGraph, NodeId};
use amac_mac::trace::TraceEntry;
use amac_mac::{FaultKind, FaultPlan, MacConfig, Observer};
use amac_sim::Time;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// How many buffered bytes the [`StoreObserver`] holds before flushing to
/// the file — the "bounded buffering" contract: recording memory is O(1)
/// in the execution length.
pub const WRITE_BUFFER_LEN: usize = 64 * 1024;

/// Streaming encoder of the on-disk trace format over any byte sink.
///
/// Construction writes the header and topology section; each
/// [`write_event`](TraceWriter::write_event) /
/// [`write_fault`](TraceWriter::write_fault) appends one length-prefixed
/// record in call order (which must be the runtime's emission order:
/// non-decreasing times); [`finish`](TraceWriter::finish) appends the End
/// record carrying the quiescent flag, the counts, and the stream digest.
/// A writer dropped without `finish` leaves a truncated file that readers
/// reject — finalization is explicit, never implicit.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    /// Digest over every record byte written so far (length prefixes
    /// included), sealed into the End record.
    digest: Digest,
    last_ticks: u64,
    events: u64,
    faults: u64,
    /// Reused record-encoding scratch buffer.
    scratch: Vec<u8>,
    /// Reused buffer of one framed record: `scratch` behind its varint
    /// length.
    framed: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer for a run over `dual` under `config`, writing the
    /// header and topology section immediately.
    ///
    /// # Errors
    ///
    /// Propagates sink IO errors.
    pub fn new(
        out: W,
        dual: &DualGraph,
        config: MacConfig,
        seed: u64,
        fault_digest: u64,
    ) -> Result<TraceWriter<W>, StoreError> {
        let mut out = out;
        let topology = encode_topology(dual);
        let header = TraceHeader::for_run(
            dual,
            config,
            seed,
            crate::format::fnv1a64(&topology),
            fault_digest,
        );
        out.write_all(&header.encode())?;
        let mut prefix = Vec::new();
        push_varint(&mut prefix, topology.len() as u64);
        out.write_all(&prefix)?;
        out.write_all(&topology)?;
        Ok(TraceWriter {
            out,
            digest: Digest::new(),
            last_ticks: 0,
            events: 0,
            faults: 0,
            scratch: Vec::with_capacity(32),
            framed: Vec::with_capacity(32),
        })
    }

    fn delta(&mut self, time: Time) -> Result<u64, StoreError> {
        let ticks = time.ticks();
        let delta = ticks.checked_sub(self.last_ticks).ok_or_else(|| {
            StoreError::corrupt(
                0,
                format!(
                    "record time t={ticks} runs backwards (previous t={})",
                    self.last_ticks
                ),
            )
        })?;
        self.last_ticks = ticks;
        Ok(delta)
    }

    /// Frames `scratch` as one record in `framed`: its varint length,
    /// then its bytes.
    fn frame(&mut self) {
        self.framed.clear();
        push_varint(&mut self.framed, self.scratch.len() as u64);
        self.framed.extend_from_slice(&self.scratch);
    }

    fn write_record(&mut self) -> Result<(), StoreError> {
        self.frame();
        self.digest.update(&self.framed);
        self.out.write_all(&self.framed)?;
        Ok(())
    }

    /// Appends one MAC-level event record.
    ///
    /// # Errors
    ///
    /// Fails on sink IO errors and on a time running backwards (the
    /// runtime emits non-decreasing times; hand-fed streams must too).
    pub fn write_event(&mut self, event: &TraceEntry) -> Result<(), StoreError> {
        let delta = self.delta(event.time)?;
        self.scratch.clear();
        self.scratch.push(event.kind.code());
        push_varint(&mut self.scratch, delta);
        push_varint(&mut self.scratch, event.instance.seq());
        push_varint(&mut self.scratch, event.node.index() as u64);
        push_varint(&mut self.scratch, event.key.0);
        self.write_record()?;
        self.events += 1;
        Ok(())
    }

    /// Appends one applied-fault record.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`write_event`](TraceWriter::write_event).
    pub fn write_fault(
        &mut self,
        time: Time,
        node: NodeId,
        kind: FaultKind,
    ) -> Result<(), StoreError> {
        let delta = self.delta(time)?;
        self.scratch.clear();
        self.scratch.push(kind.code());
        push_varint(&mut self.scratch, delta);
        push_varint(&mut self.scratch, node.index() as u64);
        self.write_record()?;
        self.faults += 1;
        Ok(())
    }

    /// Event records written so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Fault records written so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Seals the stream: writes the End record (quiescent flag, counts,
    /// stream digest), flushes, and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates sink IO errors.
    pub fn finish(mut self, quiescent: bool) -> Result<W, StoreError> {
        self.scratch.clear();
        self.scratch.push(END_TAG);
        self.scratch.push(u8::from(quiescent));
        // Seal the quiescent flag into the stream digest: it is the one
        // End-record field with no cross-check against the stream itself,
        // so without this a single flipped bit would silently change the
        // stored outcome.
        self.digest.update(&[u8::from(quiescent)]);
        push_varint(&mut self.scratch, self.events);
        push_varint(&mut self.scratch, self.faults);
        self.scratch
            .extend_from_slice(&self.digest.value().to_le_bytes());
        self.frame();
        self.out.write_all(&self.framed)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// What a finished recording wrote, as reported by
/// [`StoreObserver::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordSummary {
    /// The trace file's path.
    pub path: PathBuf,
    /// MAC-level event records written.
    pub events: u64,
    /// Applied-fault records written.
    pub faults: u64,
    /// The quiescent flag sealed into the End record.
    pub quiescent: bool,
}

/// An [`Observer`] that streams every MAC event and fault to a trace file
/// with bounded buffering — the durable counterpart of
/// [`TraceObserver`](amac_mac::TraceObserver), holding O(1) memory instead
/// of O(events).
///
/// The `Observer` trait cannot surface errors, so IO failures are stashed:
/// the observer stops writing on the first failure and
/// [`finish`](StoreObserver::finish) reports it. A recording is only valid
/// once `finish` succeeded; anything else leaves a file readers reject as
/// truncated.
///
/// # Examples
///
/// ```
/// use amac_mac::{MacConfig, Runtime, RunOutcome, policies::EagerPolicy};
/// # use amac_mac::{Automaton, Ctx, MacMessage, MessageKey};
/// use amac_graph::{generators, DualGraph};
/// use amac_store::StoreObserver;
/// # #[derive(Clone, Debug)]
/// # struct T;
/// # impl MacMessage for T { fn key(&self) -> MessageKey { MessageKey(0) } }
/// # struct Quiet;
/// # impl Automaton for Quiet {
/// #     type Msg = T; type Env = (); type Out = ();
/// #     fn on_receive(&mut self, _: &T, _: &mut Ctx<'_, T, ()>) {}
/// #     fn on_ack(&mut self, _: &T, _: &mut Ctx<'_, T, ()>) {}
/// # }
/// let dir = std::env::temp_dir().join("amac-store-doc");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("quiet.amactrace");
/// let dual = DualGraph::reliable(generators::line(2)?);
/// let config = MacConfig::from_ticks(1, 4);
/// let mut rt = Runtime::new(dual.clone(), config, vec![Quiet, Quiet], EagerPolicy::new());
/// let store = rt.attach(StoreObserver::create(&path, &dual, config, 7, None)?);
/// let outcome = rt.run();
/// let summary = rt.detach(store).finish(outcome == RunOutcome::Idle)?;
/// assert_eq!(summary.events, 0, "nobody broadcast");
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StoreObserver {
    writer: Option<TraceWriter<BufWriter<File>>>,
    error: Option<StoreError>,
    path: PathBuf,
}

impl StoreObserver {
    /// Creates the trace file at `path` (truncating an existing file) and
    /// writes the header and topology section for a run over `dual` under
    /// `config`. `faults` is the plan handed to the runtime, digested into
    /// the header (`None` for fault-free runs).
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created or the header cannot be
    /// written.
    pub fn create(
        path: &Path,
        dual: &DualGraph,
        config: MacConfig,
        seed: u64,
        faults: Option<&FaultPlan>,
    ) -> Result<StoreObserver, StoreError> {
        let fault_digest = fault_plan_digest(faults.unwrap_or(&FaultPlan::new()));
        let file = File::create(path)?;
        let writer = TraceWriter::new(
            BufWriter::with_capacity(WRITE_BUFFER_LEN, file),
            dual,
            config,
            seed,
            fault_digest,
        )?;
        Ok(StoreObserver {
            writer: Some(writer),
            error: None,
            path: path.to_path_buf(),
        })
    }

    fn record(
        &mut self,
        op: impl FnOnce(&mut TraceWriter<BufWriter<File>>) -> Result<(), StoreError>,
    ) {
        if self.error.is_some() {
            return;
        }
        if let Some(writer) = self.writer.as_mut() {
            if let Err(e) = op(writer) {
                self.error = Some(e);
                self.writer = None; // stop writing; the file is already bad
            }
        }
    }

    /// Seals the recording with the End record and flushes the file.
    /// `quiescent` is whether the recorded run ended by draining its event
    /// queue (`RunOutcome::Idle`) — replayed validators condition the
    /// liveness guarantees on it exactly like a live one.
    ///
    /// # Errors
    ///
    /// Reports the first error hit while streaming, or the failure to
    /// write the End record.
    pub fn finish(self, quiescent: bool) -> Result<RecordSummary, StoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let writer = self.writer.expect("no error implies a live writer");
        let (events, faults) = (writer.events(), writer.faults());
        writer.finish(quiescent)?;
        Ok(RecordSummary {
            path: self.path,
            events,
            faults,
            quiescent,
        })
    }
}

impl Observer for StoreObserver {
    fn on_event(&mut self, event: &TraceEntry) {
        self.record(|w| w.write_event(event));
    }

    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        self.record(|w| w.write_fault(time, node, kind));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_graph::generators;
    use amac_mac::trace::TraceKind;
    use amac_mac::{InstanceId, MessageKey};

    fn entry(ticks: u64, kind: TraceKind) -> TraceEntry {
        TraceEntry {
            time: Time::from_ticks(ticks),
            instance: InstanceId::new(0),
            node: NodeId::new(0),
            kind,
            key: MessageKey(1),
        }
    }

    fn writer() -> TraceWriter<Vec<u8>> {
        let dual = DualGraph::reliable(generators::line(2).unwrap());
        TraceWriter::new(Vec::new(), &dual, MacConfig::from_ticks(1, 4), 0, 0).unwrap()
    }

    #[test]
    fn writer_counts_records() {
        let mut w = writer();
        w.write_event(&entry(0, TraceKind::Bcast)).unwrap();
        w.write_fault(Time::from_ticks(2), NodeId::new(1), FaultKind::Crash)
            .unwrap();
        w.write_event(&entry(2, TraceKind::Ack)).unwrap();
        assert_eq!(w.events(), 2);
        assert_eq!(w.faults(), 1);
        let bytes = w.finish(true).unwrap();
        assert!(bytes.len() > crate::format::HEADER_LEN);
    }

    #[test]
    fn writer_rejects_time_running_backwards() {
        let mut w = writer();
        w.write_event(&entry(5, TraceKind::Bcast)).unwrap();
        let err = w.write_event(&entry(4, TraceKind::Rcv)).unwrap_err();
        assert!(err.to_string().contains("backwards"), "{err}");
    }

    #[test]
    fn store_observer_reports_create_failure() {
        let dual = DualGraph::reliable(generators::line(2).unwrap());
        let missing = Path::new("/nonexistent-dir-amac/never.amactrace");
        let err = StoreObserver::create(missing, &dual, MacConfig::from_ticks(1, 4), 0, None)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }
}
