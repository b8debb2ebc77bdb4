//! What booting a fresh paged database costs the process in memory,
//! measured on the process (see `rss/mod.rs` for why this is a test
//! binary of its own).
//!
//! The database is the benchmark's `paged_mixed`: 60 000 objects, an
//! 82 MB heap file. The bootstrap streams the catalog into pages and
//! writes each page as it closes, so it may raise peak RSS by the
//! per-object directory and a page, not by the table. Before it
//! streamed, the whole table was built in memory first and then paged
//! out: +55 MiB for this database.

#![cfg(target_os = "linux")]

use esr_storage::{recover_paged, CatalogConfig, PagerConfig};
use std::fs;

mod rss;
use rss::{peak_rise, MIB};

#[test]
fn a_fresh_paged_bootstrap_does_not_hold_the_table() {
    let dir = std::env::temp_dir().join(format!("esr-paged-boot-memory-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let catalog = CatalogConfig {
        n_objects: 60_000,
        value_lo: 5_000,
        value_hi: 5_000,
        ..CatalogConfig::default()
    };
    let cfg = PagerConfig {
        cache_pages: 256,
        ..PagerConfig::default()
    };

    let (rise, recovered) = peak_rise(|| recover_paged(&dir, &catalog, &cfg));
    let recovered = recovered.unwrap();
    assert!(!recovered.had_state);
    assert_eq!(recovered.heap.len(), 60_000);
    let heap_bytes = fs::metadata(dir.join("heap.esrpg")).unwrap().len();
    assert!(heap_bytes > 64 * MIB, "heap file {heap_bytes} bytes");
    eprintln!("heap file {heap_bytes} B; bootstrapping it raised peak RSS by {rise} B");
    assert!(
        rise <= 4 * MIB,
        "bootstrapping a {heap_bytes}-byte paged heap raised peak RSS by {rise} bytes"
    );
    drop(recovered);
    let _ = fs::remove_dir_all(&dir);
}
