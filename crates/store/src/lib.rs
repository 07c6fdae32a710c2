//! # amac-store — durable trace store with deterministic replay
//!
//! The observer pipeline (`amac-mac`) made validation streaming: events
//! are consumed as they happen and nothing survives the process. This
//! crate adds the durable counterpart — a compact, versioned on-disk
//! format for MAC-level executions, written by a [`StoreObserver`]
//! attached like any other observer, and read back out-of-core by a
//! [`TraceReader`] so an execution can be re-validated (or re-consumed by
//! any [`Observer`](amac_mac::Observer)) long after, and on a different
//! machine than, the run that produced it.
//!
//! The format is specified byte-by-byte in `docs/TRACE_FORMAT.md`; the
//! [`mod@format`] module is its executable counterpart. The shape, briefly:
//!
//! ```text
//! header (60 B)      magic, version, variant, seed, F_prog, F_ack, n,
//!                    topology digest, fault-plan digest
//! topology section   varint length, then the dual graph's edge lists
//! records            length-prefixed, delta-timed event/fault records
//!                    in the runtime's exact emission order
//! End record         quiescent flag, counts, stream digest
//! ```
//!
//! **Determinism contract.** The format stores no wall-clock data, so a
//! file is a pure function of the recorded execution: the same seeded
//! workload records byte-identical files on every run and every machine.
//! Replaying through [`replay_validate`] rebuilds the validator from the
//! file's own topology and bounds and feeds it the stored stream in
//! emission order, reproducing the live validator's violation set and
//! [`OnlineStats`](amac_mac::OnlineStats) exactly — its stream
//! fingerprint included, so equal stats also certify that the stored
//! event stream is the one the runtime emitted.
//!
//! # Examples
//!
//! Record a BMMB run, then replay it through a fresh validator:
//!
//! ```
//! use amac_store::{replay_validate, TraceReader};
//! use amac_core::{run_bmmb, Assignment, RunOptions};
//! use amac_graph::{generators, DualGraph, NodeId};
//! use amac_mac::{policies::LazyPolicy, MacConfig};
//!
//! let dir = std::env::temp_dir().join("amac-store-lib-doc");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("line.amactrace");
//!
//! let dual = DualGraph::reliable(generators::line(6)?);
//! let report = run_bmmb(
//!     &dual,
//!     MacConfig::from_ticks(2, 20),
//!     &Assignment::all_at(NodeId::new(0), 2),
//!     LazyPolicy::new(),
//!     &RunOptions::default().recording(&path, 0),
//! );
//!
//! let summary = replay_validate(TraceReader::open(&path)?)?;
//! assert!(summary.validation.is_ok());
//! assert_eq!(Some(summary.stats), report.validator_stats);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod format;
pub mod read;
pub mod write;

pub use error::StoreError;
pub use format::{fault_plan_digest, TraceHeader, FORMAT_VERSION};
pub use read::{replay_into, replay_validate, StoredRecord, TraceReader, TraceSummary, Trailer};
pub use write::{RecordSummary, StoreObserver, TraceWriter};

#[cfg(test)]
mod tests {
    use super::*;
    use amac_graph::{generators, DualGraph, NodeId};
    use amac_mac::trace::{TraceEntry, TraceKind};
    use amac_mac::{CounterObserver, FaultKind, InstanceId, MacConfig, MessageKey};
    use amac_sim::Time;

    fn entry(ticks: u64, node: usize, kind: TraceKind) -> TraceEntry {
        TraceEntry {
            time: Time::from_ticks(ticks),
            instance: InstanceId::new(3),
            node: NodeId::new(node),
            kind,
            key: MessageKey(99),
        }
    }

    fn sample_bytes() -> Vec<u8> {
        let dual = DualGraph::reliable(generators::line(4).unwrap());
        let mut w = TraceWriter::new(
            Vec::new(),
            &dual,
            MacConfig::from_ticks(2, 8).enhanced(),
            7,
            11,
        )
        .unwrap();
        w.write_event(&entry(0, 0, TraceKind::Bcast)).unwrap();
        w.write_event(&entry(2, 1, TraceKind::Rcv)).unwrap();
        w.write_fault(Time::from_ticks(3), NodeId::new(2), FaultKind::Crash)
            .unwrap();
        w.write_event(&entry(5, 0, TraceKind::Ack)).unwrap();
        w.finish(true).unwrap()
    }

    #[test]
    fn in_memory_round_trip_preserves_every_field() {
        let bytes = sample_bytes();
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.header().seed, 7);
        assert_eq!(r.header().fault_plan_digest, 11);
        assert_eq!(r.header().nodes, 4);
        assert_eq!(r.config(), MacConfig::from_ticks(2, 8).enhanced());
        assert_eq!(r.dual().g().edge_count(), 3);

        let mut records = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            records.push(rec);
        }
        assert_eq!(
            records,
            vec![
                StoredRecord::Event(entry(0, 0, TraceKind::Bcast)),
                StoredRecord::Event(entry(2, 1, TraceKind::Rcv)),
                StoredRecord::Fault(amac_mac::trace::FaultRecord {
                    time: Time::from_ticks(3),
                    node: NodeId::new(2),
                    kind: FaultKind::Crash,
                }),
                StoredRecord::Event(entry(5, 0, TraceKind::Ack)),
            ]
        );
        assert_eq!(
            r.trailer(),
            Some(&Trailer {
                quiescent: true,
                events: 3,
                faults: 1,
            })
        );
        // Idempotent after the end.
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn replay_into_feeds_any_observer() {
        let bytes = sample_bytes();
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut counter = CounterObserver::new();
        let trailer = replay_into(&mut r, &mut counter).unwrap();
        assert_eq!(counter.total(), 3);
        assert_eq!(counter.faults(), 1);
        assert_eq!(counter.count(TraceKind::Rcv), 1);
        assert_eq!(trailer.events, 3);
    }

    #[test]
    fn same_input_writes_byte_identical_files() {
        assert_eq!(sample_bytes(), sample_bytes());
    }

    #[test]
    fn every_truncation_is_rejected_not_misparsed() {
        let bytes = sample_bytes();
        for len in 0..bytes.len() {
            let prefix = &bytes[..len];
            let result = TraceReader::new(prefix).and_then(|mut r| {
                while r.next_record()?.is_some() {}
                Ok(())
            });
            assert!(result.is_err(), "prefix of {len} bytes must not parse");
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_stream_digest() {
        let bytes = sample_bytes();
        // Flip one byte in every position after the topology section; each
        // must produce an error (digest mismatch, or an earlier decode
        // failure), never a silent success.
        for at in format::HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let result = TraceReader::new(bad.as_slice()).and_then(|mut r| {
                while r.next_record()?.is_some() {}
                Ok(())
            });
            assert!(result.is_err(), "flipping byte {at} must not go unnoticed");
        }
    }

    #[test]
    fn bytes_after_the_end_record_are_rejected() {
        let mut bytes = sample_bytes();
        bytes.push(0);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut err = None;
        loop {
            match r.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(StoreError::Corrupt { .. })), "{err:?}");
    }

    #[test]
    fn opening_a_large_sparse_recording_skips_the_diameter() {
        // Nothing on the replay path reads the diameter of G, so opening a
        // recording must not run the all-pairs BFS behind it: over this
        // 10⁵-node line that BFS alone takes minutes.
        let n = 100_000;
        let line = generators::line(n).unwrap();
        let dual = DualGraph::with_diameter(line.clone(), line, n - 1).unwrap();
        let w = TraceWriter::new(Vec::new(), &dual, MacConfig::from_ticks(2, 8), 0, 0).unwrap();
        let bytes = w.finish(true).unwrap();
        let summary = replay_validate(TraceReader::new(bytes.as_slice()).unwrap()).unwrap();
        assert_eq!(summary.header.nodes, n as u64);
        assert_eq!(summary.events, 0);
        assert!(summary.validation.is_ok());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let dual = DualGraph::reliable(generators::line(2).unwrap());
        let w = TraceWriter::new(Vec::new(), &dual, MacConfig::from_ticks(1, 4), 0, 0).unwrap();
        let mut bytes = w.finish(false).unwrap();
        // Splice a record with tag 9 before the End record: frame it by
        // hand. (The End record's digest check also fires; the tag error
        // comes first.)
        // End record: 1-byte frame varint + body of tag(1) + flag(1) +
        // two zero counts(1+1) + digest(8) = 13 bytes.
        let end_start = bytes.len() - 13;
        let spliced = bytes.split_off(end_start);
        bytes.extend_from_slice(&[2, 9, 0]); // len=2, tag=9, one payload byte
        bytes.extend_from_slice(&spliced);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let err = r.next_record().unwrap_err();
        assert!(err.to_string().contains("tag"), "{err}");
    }
}
