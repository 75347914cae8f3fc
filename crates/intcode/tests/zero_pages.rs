//! A fresh `DataMem` is resident only where a run touched it.
//!
//! Its words come from one zeroed allocation, which the system
//! allocator serves with pages the kernel maps on first touch. Two
//! memories of the default layout (59 MB each) with one word stored in
//! each must therefore grow the process's resident set by a few pages,
//! not by the whole 118 MB that filling them would map. The test is
//! the only one in its binary, so nothing else allocates alongside it.

#![cfg(target_os = "linux")]

use symbol_intcode::mem::DataMem;
use symbol_intcode::{Layout, Word};

/// The process's resident set in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmRSS line in kB")
}

#[test]
fn fresh_memories_are_resident_only_where_written() {
    let len = Layout::default().total();
    let before = vm_rss_kib();
    // Both live at once, so the second cannot recycle the first.
    let mut a = DataMem::new(len);
    let mut b = DataMem::new(len);
    a.set(len / 2, Word::int(7)).expect("in range");
    b.set(len - 1, Word::int(9)).expect("in range");
    let grown_mib = vm_rss_kib().saturating_sub(before) as f64 / 1024.0;
    assert_eq!(a.get(len / 2), Some(Word::int(7)));
    assert_eq!(b.get(0), Some(Word::int(0)));
    assert!(
        grown_mib < 8.0,
        "two fresh {len}-word memories grew the resident set by {grown_mib:.1} MiB"
    );
}
