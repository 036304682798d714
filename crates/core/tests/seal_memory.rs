//! Sealing and verifying a committed file takes bounded memory: both
//! stream the file's regions through one chunk buffer and never build an
//! image of it (the sealer used to `read_to_end` the whole file).
//!
//! Its own test binary because the allocator below counts every
//! allocation in the process: nothing else may run beside the one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use rbio::commit::{commit_file, verify_committed_file};
use rbio::format::footer_len;

struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn sealing_and_verifying_64_mib_allocates_under_4_mib() {
    const SIZE: u64 = 64 << 20;
    let dir = std::env::temp_dir().join(format!("rbio-seal-memory-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (tmp, fin) = (dir.join("big.bin.tmp"), dir.join("big.bin"));
    let mut f = File::create(&tmp).expect("create");
    let block: Vec<u8> = (0..1u32 << 20).map(|i| ((i * 31) >> 3) as u8).collect();
    for _ in 0..SIZE >> 20 {
        f.write_all(&block).expect("write");
    }
    drop((f, block));

    let before = ALLOCATED.load(Ordering::Relaxed);
    commit_file(&tmp, &fin, SIZE, false).expect("seal");
    let f = File::open(&fin).expect("open");
    let verdict = verify_committed_file(&f, SIZE).expect("read");
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert_eq!(verdict, Ok(()));
    assert_eq!(f.metadata().expect("stat").len(), SIZE + footer_len(1));
    assert!(
        allocated < 4 << 20,
        "sealing + verifying {SIZE} bytes allocated {allocated}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
