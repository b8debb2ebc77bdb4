//! What a resident checkpoint costs the process in memory, measured on
//! the process: a test binary of its own with one test in it, because
//! `VmHWM` is per process and any neighbour's allocations would land in
//! the figure.
//!
//! The table is `durable_commit`'s at its worst: 10 000 objects, every
//! history ring full (20 versions) — about 9 MB on disk. Writing the
//! checkpoint may raise the process's peak RSS by a fixed buffer, not
//! by an image of the table; recovering it may cost the recovered table
//! and a fixed window, which is less than the file. Before the writer
//! and reader streamed, both built the whole table as one `Content`
//! tree: +100 MiB for this table, ten times the file.

#![cfg(target_os = "linux")]

use esr_clock::Timestamp;
use esr_core::ids::{ObjectId, SiteId, TxnId};
use esr_storage::wal::{snapshots, DurabilitySink, Wal, WalOptions};
use esr_storage::{recover, CatalogConfig};
use std::fs;

const MIB: u64 = 1 << 20;

/// One `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    let kb: u64 = line
        .trim()
        .strip_suffix("kB")
        .expect("kB unit")
        .trim()
        .parse()
        .expect("numeric field");
    kb * 1024
}

/// How far `f` pushes the process's peak RSS above where it stands when
/// `f` starts. The peak is reset first where the kernel allows it
/// (`clear_refs`); where it does not, the old peak only makes the
/// figure larger, never smaller.
fn peak_rise<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _ = fs::write("/proc/self/clear_refs", "5");
    let before = status_bytes("VmRSS");
    let out = f();
    (status_bytes("VmHWM").saturating_sub(before), out)
}

#[test]
fn checkpoint_and_recovery_memory_do_not_scale_with_the_table() {
    const OBJECTS: u32 = 10_000;
    let dir = std::env::temp_dir().join(format!("esr-ckpt-memory-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let catalog = CatalogConfig {
        n_objects: OBJECTS,
        ..CatalogConfig::default()
    };
    let depth = catalog.history_depth as u64;
    let table = catalog.build();
    for round in 1..=depth {
        for i in 0..OBJECTS {
            let txn = TxnId(round * u64::from(OBJECTS) + u64::from(i));
            let mut g = table.lock(ObjectId(i));
            g.apply_write(txn, Timestamp::new(txn.0, SiteId(1)), txn.0 as i64);
            assert!(g.commit_write(txn));
        }
    }
    let wal = Wal::open(&dir, 1, WalOptions::default()).unwrap();

    let (rise, written) = peak_rise(|| wal.write_checkpoint(7, 8, &mut snapshots(&table)));
    written.unwrap();
    let file = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "esrck"))
        .expect("a checkpoint file");
    let file_bytes = fs::metadata(file).unwrap().len();
    assert!(
        file_bytes > 5 * MIB,
        "full rings expected: {file_bytes} bytes"
    );
    eprintln!("checkpoint file {file_bytes} B; writing it raised peak RSS by {rise} B");
    assert!(
        rise <= 4 * MIB,
        "writing a {file_bytes}-byte checkpoint raised peak RSS by {rise} bytes"
    );
    drop(wal);

    // The live table stays allocated, so recovery cannot look cheap by
    // reusing its memory.
    let (rise, recovered) = peak_rise(|| recover(&dir, &catalog));
    let recovered = recovered.unwrap();
    assert_eq!(recovered.next_seq, 8);
    assert_eq!(recovered.states.len(), OBJECTS as usize);
    assert_eq!(
        recovered.states[9_999].history.len() as u64,
        depth,
        "rings recovered full"
    );
    eprintln!("recovering it raised peak RSS by {rise} B");
    assert!(
        rise <= file_bytes + 4 * MIB,
        "recovering a {file_bytes}-byte checkpoint raised peak RSS by {rise} bytes"
    );
    drop(table);
    let _ = fs::remove_dir_all(&dir);
}
