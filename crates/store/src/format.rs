//! The on-disk format primitives: magic, header, varints, digests, and
//! the topology section.
//!
//! The byte-level layout is specified in `docs/TRACE_FORMAT.md`; this
//! module is its executable counterpart. Everything here is pure
//! byte-slice encoding/decoding — IO lives in [`write`](crate::write) and
//! [`read`](crate::read).

use crate::error::StoreError;
use amac_graph::{DualGraph, Graph, NodeId};
use amac_mac::{FaultPlan, MacConfig, ModelVariant};
use amac_sim::Duration;
use std::fmt;

/// The 8-byte file magic: ASCII `AMACTRC` plus a NUL.
pub const MAGIC: [u8; 8] = *b"AMACTRC\0";

/// The newest format version this crate reads and the only one it writes.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed byte length of the header (magic included).
pub const HEADER_LEN: usize = 60;

/// Record tag of the End record (event/fault tags are the
/// `TraceKind::code()` / `FaultKind::code()` values 0–5).
pub const END_TAG: u8 = 0xFF;

/// Longest legal LEB128 encoding of a `u64` (10 groups of 7 bits).
pub const MAX_VARINT_LEN: usize = 10;

/// Streaming FNV-1a 64-bit digest, the format's integrity check — an
/// alias of the workspace-wide canonical implementation in
/// [`amac_sim::hash`]. It guards against corruption, not adversaries.
pub type Digest = amac_sim::Fnv1a;

/// FNV-1a 64-bit digest of a complete byte string (re-export of the
/// canonical [`amac_sim::fnv1a64`], kept here because the digest is part
/// of this crate's on-disk format contract).
pub use amac_sim::fnv1a64;

/// Digest of a [`FaultPlan`]: FNV-1a over each scheduled event's
/// `(time, node, kind code)` triple as LEB128 varints, in plan order. The
/// empty plan digests to the bare FNV offset basis. Stored in the header
/// so a replayed trace can be matched to the schedule that produced it.
pub fn fault_plan_digest(plan: &FaultPlan) -> u64 {
    let mut buf = Vec::new();
    for event in plan.events() {
        push_varint(&mut buf, event.at.ticks());
        push_varint(&mut buf, event.node.index() as u64);
        push_varint(&mut buf, u64::from(event.kind.code()));
    }
    fnv1a64(&buf)
}

/// Appends the LEB128 encoding of `value` to `buf`.
pub fn push_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos` past it. `None` on truncation or an overlong/overflowing
/// encoding.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// The decoded fixed-size file header: format metadata plus everything
/// needed to rebuild the validator's inputs (bounds, variant, node count)
/// and to match the trace to its origin (seed, topology and fault-plan
/// digests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version the file was written with.
    pub version: u16,
    /// MAC model variant of the recorded execution.
    pub variant: ModelVariant,
    /// Root RNG seed of the recorded execution (0 when the workload is
    /// seedless/deterministic).
    pub seed: u64,
    /// Progress bound `F_prog`, in ticks.
    pub f_prog: u64,
    /// Acknowledgment bound `F_ack`, in ticks.
    pub f_ack: u64,
    /// Number of nodes in the dual graph.
    pub nodes: u64,
    /// FNV-1a digest of the topology section's bytes.
    pub topology_digest: u64,
    /// [`fault_plan_digest`] of the schedule handed to the runtime (the
    /// empty-plan digest for fault-free runs).
    pub fault_plan_digest: u64,
}

impl TraceHeader {
    /// Builds the header for a run over `dual` under `config`.
    /// `topology_digest` must be the digest of the already-encoded
    /// topology section (see [`encode_topology`]).
    pub fn for_run(
        dual: &DualGraph,
        config: MacConfig,
        seed: u64,
        topology_digest: u64,
        fault_plan_digest: u64,
    ) -> TraceHeader {
        TraceHeader {
            version: FORMAT_VERSION,
            variant: config.variant(),
            seed,
            f_prog: config.f_prog().ticks(),
            f_ack: config.f_ack().ticks(),
            nodes: dual.len() as u64,
            topology_digest,
            fault_plan_digest,
        }
    }

    /// The MAC configuration the recorded execution ran under.
    pub fn config(&self) -> MacConfig {
        let cfg = MacConfig::new(
            Duration::from_ticks(self.f_prog),
            Duration::from_ticks(self.f_ack),
        );
        match self.variant {
            ModelVariant::Standard => cfg,
            ModelVariant::Enhanced => cfg.enhanced(),
        }
    }

    /// Encodes the header (magic included) to its fixed [`HEADER_LEN`]
    /// bytes.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..10].copy_from_slice(&self.version.to_le_bytes());
        out[10] = match self.variant {
            ModelVariant::Standard => 0,
            ModelVariant::Enhanced => 1,
        };
        out[11] = 0; // reserved
        out[12..20].copy_from_slice(&self.seed.to_le_bytes());
        out[20..28].copy_from_slice(&self.f_prog.to_le_bytes());
        out[28..36].copy_from_slice(&self.f_ack.to_le_bytes());
        out[36..44].copy_from_slice(&self.nodes.to_le_bytes());
        out[44..52].copy_from_slice(&self.topology_digest.to_le_bytes());
        out[52..60].copy_from_slice(&self.fault_plan_digest.to_le_bytes());
        out
    }

    /// Decodes a header from its fixed [`HEADER_LEN`] bytes, rejecting a
    /// bad magic, an unsupported version, a bad variant byte, a node count
    /// beyond the 32-bit node ids, and bounds no [`MacConfig`] would
    /// accept.
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<TraceHeader, StoreError> {
        let le64 = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };
        if bytes[0..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version == 0 || version > FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let variant = match bytes[10] {
            0 => ModelVariant::Standard,
            1 => ModelVariant::Enhanced,
            other => {
                return Err(StoreError::corrupt(10, format!("bad variant byte {other}")));
            }
        };
        let header = TraceHeader {
            version,
            variant,
            seed: le64(12),
            f_prog: le64(20),
            f_ack: le64(28),
            nodes: le64(36),
            topology_digest: le64(44),
            fault_plan_digest: le64(52),
        };
        // Node ids are 32-bit, so a larger count cannot come from a run.
        if header.nodes > u64::from(u32::MAX) + 1 {
            return Err(StoreError::corrupt(
                36,
                format!("node count {} exceeds the 2^32 node ids", header.nodes),
            ));
        }
        if header.f_prog < 1 || header.f_ack < header.f_prog {
            return Err(StoreError::corrupt(
                20,
                format!(
                    "bad bounds: F_prog={} F_ack={} (need 1 <= F_prog <= F_ack)",
                    header.f_prog, header.f_ack
                ),
            ));
        }
        Ok(header)
    }
}

impl fmt::Display for TraceHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "v{} seed={} n={} F_prog={} F_ack={} variant={} topology=0x{:016x} fault-plan=0x{:016x}",
            self.version,
            self.seed,
            self.nodes,
            self.f_prog,
            self.f_ack,
            self.variant,
            self.topology_digest,
            self.fault_plan_digest,
        )
    }
}

/// Encodes the topology section: the edge list of `G` then the extra
/// edges of `G′ \ G`, each as a varint count followed by `(u, v)` varint
/// pairs with `u < v` in ascending order. The canonical order makes the
/// section — and therefore the whole file — byte-identical for equal
/// topologies.
pub fn encode_topology(dual: &DualGraph) -> Vec<u8> {
    let mut g_edges: Vec<(usize, usize)> = dual
        .g()
        .edges()
        .map(|(u, v)| (u.index(), v.index()))
        .collect();
    g_edges.sort_unstable();
    let mut extra: Vec<(usize, usize)> = dual
        .g_prime()
        .edges()
        .map(|(u, v)| (u.index(), v.index()))
        .filter(|&(u, v)| !dual.g().has_edge(NodeId::new(u), NodeId::new(v)))
        .collect();
    extra.sort_unstable();

    let mut buf = Vec::with_capacity(4 * (g_edges.len() + extra.len()) + 4);
    for list in [&g_edges, &extra] {
        push_varint(&mut buf, list.len() as u64);
        for &(u, v) in list {
            push_varint(&mut buf, u as u64);
            push_varint(&mut buf, v as u64);
        }
    }
    buf
}

/// Decodes a topology section back into the dual graph it encodes.
/// `base_offset` is the section's position in the file, used only for
/// error reporting.
pub fn decode_topology(
    bytes: &[u8],
    nodes: u64,
    base_offset: u64,
) -> Result<DualGraph, StoreError> {
    let n = usize::try_from(nodes)
        .map_err(|_| StoreError::corrupt(36, format!("node count {nodes} exceeds usize")))?;
    let mut pos = 0usize;
    let corrupt =
        |pos: usize, detail: &str| StoreError::corrupt(base_offset + pos as u64, detail.to_owned());
    let read_edges = |pos: &mut usize, what: &str| -> Result<Vec<(usize, usize)>, StoreError> {
        let count = read_varint(bytes, pos)
            .ok_or_else(|| corrupt(*pos, &format!("truncated {what} edge count")))?;
        // Each edge takes at least two bytes; a count beyond that is a lie
        // and must not drive allocation.
        if count > (bytes.len() as u64) / 2 {
            return Err(corrupt(
                *pos,
                &format!("{what} edge count {count} exceeds section size"),
            ));
        }
        let mut edges = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let u = read_varint(bytes, pos)
                .ok_or_else(|| corrupt(*pos, &format!("truncated {what} edge")))?;
            let v = read_varint(bytes, pos)
                .ok_or_else(|| corrupt(*pos, &format!("truncated {what} edge")))?;
            if u >= v || v >= nodes {
                return Err(corrupt(
                    *pos,
                    &format!("bad {what} edge ({u}, {v}) for n={nodes}"),
                ));
            }
            edges.push((u as usize, v as usize));
        }
        Ok(edges)
    };
    let g_edges = read_edges(&mut pos, "G")?;
    let extra = read_edges(&mut pos, "G'")?;
    if pos != bytes.len() {
        return Err(corrupt(pos, "trailing bytes after topology section"));
    }
    let g = Graph::from_edges(n, g_edges.iter().copied())
        .map_err(|e| corrupt(pos, &format!("bad G edge list: {e}")))?;
    let g_prime = Graph::from_edges(n, g_edges.into_iter().chain(extra))
        .map_err(|e| corrupt(pos, &format!("bad G' edge list: {e}")))?;
    DualGraph::new(g, g_prime).map_err(|e| corrupt(pos, &format!("bad dual graph: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_graph::generators;
    use amac_sim::{SimRng, Time};

    #[test]
    fn varint_round_trips_across_widths() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in values {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None, "truncated");
        // 11 continuation groups: longer than any u64 encoding.
        let overlong = [0xFFu8; 11];
        pos = 0;
        assert_eq!(read_varint(&overlong, &mut pos), None);
        // 10 bytes whose top group overflows bit 63.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        pos = 0;
        assert_eq!(read_varint(&overflow, &mut pos), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn header_round_trips() {
        let dual = DualGraph::reliable(generators::line(7).unwrap());
        let config = MacConfig::from_ticks(2, 16).enhanced();
        let header = TraceHeader::for_run(&dual, config, 42, 0xDEAD, 0xBEEF);
        let decoded = TraceHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(decoded.config(), config);
        assert_eq!(decoded.nodes, 7);
    }

    #[test]
    fn header_rejects_bad_magic_version_variant_bounds() {
        let dual = DualGraph::reliable(generators::line(3).unwrap());
        let header = TraceHeader::for_run(&dual, MacConfig::from_ticks(2, 16), 0, 0, 0);
        let good = header.encode();

        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(
            TraceHeader::decode(&bad),
            Err(StoreError::BadMagic)
        ));

        let mut bad = good;
        bad[8] = 99;
        assert!(matches!(
            TraceHeader::decode(&bad),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));

        let mut bad = good;
        bad[10] = 7;
        assert!(matches!(
            TraceHeader::decode(&bad),
            Err(StoreError::Corrupt { .. })
        ));

        let mut bad = good;
        bad[20..28].copy_from_slice(&0u64.to_le_bytes()); // F_prog = 0
        assert!(matches!(
            TraceHeader::decode(&bad),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn topology_round_trips_with_unreliable_edges() {
        let g = generators::grid(3, 4).unwrap();
        let mut rng = SimRng::seed(9);
        let dual = generators::r_restricted_augment(g, 2, 0.5, &mut rng).unwrap();
        let bytes = encode_topology(&dual);
        let decoded = decode_topology(&bytes, dual.len() as u64, 0).unwrap();
        assert_eq!(
            decoded.g().edges().collect::<Vec<_>>(),
            dual.g().edges().collect::<Vec<_>>()
        );
        assert_eq!(
            decoded.g_prime().edges().collect::<Vec<_>>(),
            dual.g_prime().edges().collect::<Vec<_>>()
        );
        // Canonical encoding: same topology, same bytes.
        assert_eq!(bytes, encode_topology(&decoded));
    }

    #[test]
    fn topology_decode_rejects_garbage() {
        // Edge endpoint out of range.
        let mut buf = Vec::new();
        push_varint(&mut buf, 1);
        push_varint(&mut buf, 0);
        push_varint(&mut buf, 9); // v=9 with n=3
        push_varint(&mut buf, 0);
        assert!(decode_topology(&buf, 3, 0).is_err());
        // Truncated mid-edge.
        let mut buf = Vec::new();
        push_varint(&mut buf, 2);
        push_varint(&mut buf, 0);
        assert!(decode_topology(&buf, 3, 0).is_err());
        // Lying count cannot trigger a huge allocation.
        let mut buf = Vec::new();
        push_varint(&mut buf, u64::MAX);
        assert!(decode_topology(&buf, 3, 0).is_err());
        // Trailing bytes.
        let mut buf = Vec::new();
        push_varint(&mut buf, 0);
        push_varint(&mut buf, 0);
        buf.push(0);
        assert!(decode_topology(&buf, 3, 0).is_err());
    }

    #[test]
    fn fault_plan_digest_distinguishes_plans() {
        let empty = fault_plan_digest(&FaultPlan::new());
        assert_eq!(
            empty, 0xcbf2_9ce4_8422_2325,
            "empty plan digests to the offset basis"
        );
        let a = FaultPlan::new().crash_at(NodeId::new(1), Time::from_ticks(5));
        let b = FaultPlan::new().crash_at(NodeId::new(1), Time::from_ticks(6));
        assert_ne!(fault_plan_digest(&a), fault_plan_digest(&b));
        assert_ne!(fault_plan_digest(&a), empty);
        assert_eq!(fault_plan_digest(&a), fault_plan_digest(&a.clone()));
    }
}
