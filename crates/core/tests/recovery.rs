//! Crash-recovery integration: out-of-core Phase 1, checkpoint at an
//! arbitrary moment, "crash" (drop every in-memory structure), reopen
//! from the snapshot file, and verify nothing was lost — structurally
//! (full auditor), bit-for-bit (leaf CF words), and behaviorally (the
//! global phases produce identical output from the restored tree).

use birch_core::phase1::Phase1Builder;
use birch_core::tree::CfTree;
use birch_core::{Birch, BirchConfig, Cf, Point};

/// Deterministic interleaved blobs with occasional far noise.
fn noisy_blobs(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            if i % 40 == 0 {
                let j = i as f64;
                Point::xy(3e5 + j * 1e3, -3e5 - j * 1e3)
            } else {
                let c = (i % 4) as f64 * 80.0;
                let j = i as f64;
                Point::xy(c + (j * 0.41).sin() * 2.0, c + (j * 0.97).cos() * 2.0)
            }
        })
        .collect()
}

fn leaf_words(tree: &CfTree) -> Vec<Vec<u64>> {
    tree.leaf_entries()
        .map(|cf| {
            let mut w = Vec::new();
            cf.to_words(&mut w);
            w
        })
        .collect()
}

/// Out-of-core build → checkpoint mid-scan → crash → reopen → continue
/// feeding the identical remainder on both sides → identical trees.
#[test]
fn out_of_core_checkpoint_survives_crash_mid_scan() {
    let cfg = BirchConfig::with_clusters(4)
        .memory(8 * 1024)
        .page_size(1024)
        .out_of_core(true)
        .delay_split(false)
        .outliers(false);
    let pts = noisy_blobs(4000);
    let (first, rest) = pts.split_at(2500);

    let snap = std::env::temp_dir().join(format!(
        "birch-recovery-midscan-{}.snap",
        std::process::id()
    ));

    // Build the first half out-of-core and checkpoint the tree.
    let mut b = Phase1Builder::new(&cfg, 2);
    for p in first {
        b.feed(Cf::from_point(p));
    }
    b.audit().expect("pre-checkpoint audit");
    // Checkpoint straight off the paged tree (faults everything in
    // first), then keep this builder as the uncrashed control.
    b.checkpoint(&snap).expect("checkpoint paged tree");
    let mut survivor = b;

    // "Crash": reopen from the file alone and verify bit-identity with
    // the control before continuing.
    let mut restored = CfTree::reopen(&snap).expect("reopen after crash");
    restored.audit().expect("restored tree audit");
    assert_eq!(
        leaf_words(survivor.tree()),
        leaf_words(&restored),
        "restored leaf CFs must be bit-identical to the checkpointed tree"
    );

    // Continue the scan identically on both sides.
    for p in rest {
        survivor.feed(Cf::from_point(p));
        restored.insert_point(p);
    }
    let out = survivor.finish();
    out.tree.check_invariants().expect("control invariants");
    restored.check_invariants().expect("restored invariants");
    assert!(
        (out.tree.total_cf().n() - restored.total_cf().n()).abs() < 1e-9,
        "diverged after resume: control N {} vs restored N {}",
        out.tree.total_cf().n(),
        restored.total_cf().n()
    );
    std::fs::remove_file(&snap).ok();
}

/// The restored tree drives Phases 3–4 to the same model as the run that
/// wrote the checkpoint — the pipeline-level recovery contract.
#[test]
fn restored_tree_reproduces_global_phases() {
    let pts = noisy_blobs(3000);
    let snap =
        std::env::temp_dir().join(format!("birch-recovery-global-{}.snap", std::process::id()));
    let cfg = BirchConfig::with_clusters(4)
        .memory(8 * 1024)
        .page_size(1024)
        .threads(1);
    let full = Birch::new(cfg.clone())
        .fit_with_checkpoint(&pts, &snap)
        .expect("fit with checkpoint");
    let resumed = Birch::new(cfg)
        .fit_from_snapshot(&snap, &pts)
        .expect("fit from snapshot");
    std::fs::remove_file(&snap).ok();

    assert_eq!(full.clusters().len(), resumed.clusters().len());
    for (a, b) in full.clusters().iter().zip(resumed.clusters()) {
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        a.cf.to_words(&mut wa);
        b.cf.to_words(&mut wb);
        assert_eq!(wa, wb, "cluster CFs diverged after restore");
    }
    assert_eq!(full.labels(), resumed.labels(), "labels diverged");
}

/// Every flipped byte anywhere in a snapshot must surface as a typed
/// error on reopen — never a clean load of corrupt state, never a panic.
#[test]
fn reopen_rejects_bit_flips_everywhere() {
    let cfg = BirchConfig::with_clusters(3)
        .memory(8 * 1024)
        .page_size(1024);
    let snap =
        std::env::temp_dir().join(format!("birch-recovery-flips-{}.snap", std::process::id()));
    let mut b = Phase1Builder::new(&cfg, 2);
    for p in noisy_blobs(600) {
        b.feed(Cf::from_point(&p));
    }
    let mut out = b.finish();
    out.tree.checkpoint(&snap).expect("checkpoint");
    let bytes = std::fs::read(&snap).expect("read snapshot");
    assert!(bytes.len() > 256, "snapshot suspiciously small");

    let mut rejected = 0usize;
    for at in (0..bytes.len()).step_by(131) {
        let mut evil = bytes.clone();
        evil[at] ^= 0x40;
        std::fs::write(&snap, &evil).expect("write corrupted snapshot");
        match CfTree::reopen(&snap) {
            Err(_) => rejected += 1,
            Ok(tree) => {
                // A flip in CF payload bits that still checksums is
                // impossible; a load that "succeeds" must be truly
                // byte-identical semantics (never happens for xor 0x40).
                panic!(
                    "corrupt snapshot (byte {at} flipped) loaded cleanly \
                     with {} nodes",
                    tree.node_count()
                );
            }
        }
    }
    assert!(rejected > 0);
    std::fs::remove_file(&snap).ok();
}

/// Snapshots from builds that still had the D0 descent prune carry its
/// flag byte and pruned-call counter in META. Both are now ignored on
/// read: a checkpoint with them set must reopen to the same leaf CF words
/// and resume to the same model.
#[test]
fn snapshot_with_retired_prune_fields_reopens_and_resumes() {
    use birch_pager::{SnapshotReader, SnapshotWriter};

    let pts = noisy_blobs(3000);
    let snap = std::env::temp_dir().join(format!(
        "birch-recovery-prune-byte-{}.snap",
        std::process::id()
    ));
    let cfg = BirchConfig::with_clusters(4)
        .memory(8 * 1024)
        .page_size(1024)
        .threads(1);
    let full = Birch::new(cfg.clone())
        .fit_with_checkpoint(&pts, &snap)
        .expect("fit with checkpoint");
    let want = leaf_words(&CfTree::reopen(&snap).expect("reopen as written"));

    // A payload edit means re-checksumming, so rebuild the snapshot
    // through the writer. META offsets: the prune flag is byte 19 (after
    // four u32 and three u8 fields), the pruned-call counter bytes 84..92
    // (after the distance-call counter).
    let reader = SnapshotReader::open(&snap).expect("open snapshot");
    let mut meta = reader.require(*b"META").expect("META section").to_vec();
    assert_eq!(meta[19], 0, "prune flag is written as 0");
    assert_eq!(meta[84..92], [0; 8], "pruned-call counter is written as 0");
    meta[19] = 1;
    meta[84..92].copy_from_slice(&12_345u64.to_le_bytes());
    let mut w = SnapshotWriter::new();
    w.add_section(*b"META", meta);
    for node in reader.sections(*b"NODE") {
        w.add_section(*b"NODE", node.to_vec());
    }
    w.finish(&snap).expect("rewrite snapshot");

    let reopened = CfTree::reopen(&snap).expect("reopen with prune fields set");
    reopened.audit().expect("reopened tree audit");
    assert_eq!(leaf_words(&reopened), want, "leaf CF words changed");
    let resumed = Birch::new(cfg)
        .fit_from_snapshot(&snap, &pts)
        .expect("fit from snapshot");
    std::fs::remove_file(&snap).ok();
    assert_eq!(full.labels(), resumed.labels(), "labels diverged");
}
