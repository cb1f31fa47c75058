//! The engine pins glibc's mmap threshold: freeing a large block must
//! not raise it, so the next block of 1 MiB or more still gets a mapping
//! of its own, which `free` returns to the system. Alone in its test
//! binary, because the allocator's statistics are process-wide.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

/// glibc's `struct mallinfo2` (`<malloc.h>`); only `hblkhd` is read,
/// the other fields keep the layout.
#[repr(C)]
#[allow(dead_code)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes in blocks that have a mapping of their own.
fn mapped_bytes() -> usize {
    // SAFETY: `mallinfo2` only reads the allocator's statistics.
    unsafe { mallinfo2() }.hblkhd
}

#[test]
fn freed_large_blocks_do_not_raise_the_mmap_threshold() {
    let _engine = lvp_harness::Engine::new();
    // Unpinned, glibc would raise its threshold past 8 MiB on this free,
    // and serve the 2 MiB block below from an arena.
    drop(std::hint::black_box(vec![1u8; 8 << 20]));
    let before = mapped_bytes();
    let block = std::hint::black_box(vec![1u8; 2 << 20]);
    assert!(
        mapped_bytes() >= before + block.len(),
        "a 2 MiB block was served from an arena"
    );
}
