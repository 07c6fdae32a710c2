//! Golden determinism over the registry's canonical seeds.
//!
//! Every registry experiment has one canonical fixed-seed recorded
//! execution (`repro <id> --record DIR`), and the `.amactrace` format
//! stores no wall-clock data — so the file bytes are a complete,
//! machine-independent transcript of the execution's event stream. This
//! test pins the FNV-1a digest of each canonical recording (at smoke
//! scale).
//!
//! The digests certify that the `ChoiceSource` refactor — which moved
//! every policy RNG draw behind [`amac_mac::ChoicePoint`]-labelled
//! choices — is byte-identical to the pre-refactor draw order on every
//! canonical seed, and they guard the same property against future
//! drift: any change to the number, order, or interpretation of random
//! draws shifts at least one digest. (The per-draw equivalence against a
//! verbatim pre-refactor policy implementation is proptested in
//! `crates/mac/tests/choice_equivalence.rs`; this test extends the
//! coverage to every shipped experiment's full pipeline.)
//!
//! If a digest changes because the *model* legitimately changed (new
//! event kinds, different canonical parameterisation), regenerate the
//! table by printing `fnv1a64` of each recorded file — see
//! `docs/CHECKING.md` § fixture regeneration.
//!
//! [`amac_mac::ChoicePoint`]: amac::mac::ChoicePoint

use amac::sim::fnv1a64;

/// `(experiment id, FNV-1a digest of the smoke-scale canonical trace)`.
const GOLDEN: &[(&str, u64)] = &[
    ("fig1_gg", 0xc2dcb89e6d528b74),
    ("fig1_r_restricted", 0x28684fc1af4b5a96),
    ("fig1_arbitrary", 0x4d212171a5e5eeb7),
    ("lower_bounds", 0x9096add6ce357cc9),
    ("fig1_fmmb", 0x8a539e2d3dab2fb4),
    ("subroutines", 0x165c586afb3d47f8),
    ("ablation_abort", 0xf195d782ece7a20e),
    ("consensus_crash", 0x9e69da6b4b9630a2),
    ("election", 0x079b35b8c67326a2),
    ("scale", 0x9c713f2815af648f),
];

/// Records every registry experiment and checks each digest against the
/// pinned table.
#[test]
fn canonical_recordings_are_byte_stable() {
    let dir = std::env::temp_dir().join("amac-golden-canonical");
    std::fs::create_dir_all(&dir).unwrap();
    let mut drifted = Vec::new();
    let mut unpinned = Vec::new();
    for spec in amac::bench::experiments::registry() {
        let recorded = spec.record(&dir, true);
        let bytes = std::fs::read(&recorded.path).unwrap();
        let digest = fnv1a64(&bytes);
        match GOLDEN.iter().find(|(id, _)| *id == spec.id) {
            Some((_, want)) if digest == *want => {}
            Some((_, want)) => drifted.push(format!(
                "{}: expected 0x{want:016x}, recorded 0x{digest:016x}",
                spec.id
            )),
            None => unpinned.push(format!("{}: 0x{digest:016x}", spec.id)),
        }
        std::fs::remove_file(&recorded.path).ok();
    }
    assert!(
        drifted.is_empty(),
        "canonical executions drifted (draw order changed?):\n{}",
        drifted.join("\n")
    );
    assert!(
        unpinned.is_empty(),
        "new experiments need golden digests:\n{}",
        unpinned.join("\n")
    );
    // Every pinned id must still exist in the registry.
    for (id, _) in GOLDEN {
        assert!(
            amac::bench::experiments::find(id).is_some(),
            "golden entry {id} no longer in the registry"
        );
    }
}
