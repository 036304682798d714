//! The crate's only raw-syscall and CPU-intrinsic code.
//!
//! The workspace is dependency-free (no libc), so the few kernel calls
//! std has no wrapper for go through one inline-asm [`syscall6`] per
//! architecture. Platforms the asm does not cover get a `-ENOSYS` stub,
//! so each call's fallback is taken there without a `cfg` of its own.
//!
//! The one CPU instruction the crate asks for by name — x86-64 SSE4.2
//! `crc32`, a target-feature intrinsic that safe code cannot call at this
//! crate's MSRV — lives here too, behind the safe [`crc32c_hw`]; CPUs
//! without it get `None` and the caller's software kernel.
#![allow(unsafe_code)]

use std::os::fd::AsRawFd;

const NR_SYNC_FILE_RANGE: usize = if cfg!(target_arch = "aarch64") {
    84
} else {
    277
};

/// `sync_file_range(2)`: start writeback of the range's dirty pages and
/// return without waiting for it.
const SYNC_FILE_RANGE_WRITE: usize = 2;

/// Raw system call `nr`; returns the kernel's value (a negative errno on
/// failure). Off Linux x86_64/aarch64 nothing is called and the result
/// is always `-ENOSYS`.
///
/// # Safety
/// The caller upholds whatever call `nr` demands of its arguments
/// (pointers live and correctly sized, lengths in bounds).
pub(crate) unsafe fn syscall6(nr: usize, a: [usize; 6]) -> isize {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    // SAFETY: arguments are passed per the x86_64 syscall ABI, which
    // clobbers only rcx and r11; the call's own memory contract is the
    // caller's.
    unsafe {
        let ret;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a[0],
            in("rsi") a[1],
            in("rdx") a[2],
            in("r10") a[3],
            in("r8") a[4],
            in("r9") a[5],
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }
    #[cfg(all(target_os = "linux", target_arch = "aarch64"))]
    // SAFETY: arguments are passed per the aarch64 syscall ABI; the
    // call's own memory contract is the caller's.
    unsafe {
        let ret;
        std::arch::asm!(
            "svc 0",
            inlateout("x0") a[0] => ret,
            in("x1") a[1],
            in("x2") a[2],
            in("x3") a[3],
            in("x4") a[4],
            in("x5") a[5],
            in("x8") nr,
            options(nostack),
        );
        ret
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = (nr, a);
        -38
    }
}

/// Ask the kernel to start writing `len` bytes of `file` from byte `off`
/// back to the device now, without waiting, so the device works while
/// the caller goes on to its next buffer instead of idling until the
/// file's one `fsync`. A hint and never a durability point: every
/// error is ignored (`-ENOSYS` off Linux, `-ESPIPE` on a pipe, `-EBADF`),
/// nothing may be concluded from its return, and only a later
/// `sync_all` says the bytes are on stable storage. An empty range asks
/// for nothing (the system call would read `len == 0` as "to the end of
/// the file").
pub(crate) fn start_writeback(file: &impl AsRawFd, off: u64, len: u64) {
    if len == 0 {
        return;
    }
    // Sign-extend, so an invalid (negative) fd stays invalid.
    let fd = file.as_raw_fd() as isize as usize;
    let range = [fd, off as usize, len as usize, SYNC_FILE_RANGE_WRITE, 0, 0];
    // SAFETY: `sync_file_range` takes its four arguments by value and
    // touches no memory of this process, whatever they hold.
    let _ = unsafe { syscall6(NR_SYNC_FILE_RANGE, range) };
}

/// Bytes per stream of the hardware CRC kernel's three-way interleave.
/// One `crc32q` has a 3-cycle latency and a 1-cycle throughput, so a
/// single dependent chain runs at a third of the unit's rate (7.4 GB/s
/// on the reference box against 17–18 GB/s interleaved, flat from 256 B
/// to 8 KiB per stream); three chains over adjacent blocks fill it.
/// A whole number of 8-byte words: the streams are walked word by word.
pub(crate) const CRC_BLK: usize = 8 * 64;

/// Fold `bytes` into the raw (pre-inverted) CRC32C register `state` with
/// the CPU's `crc32` instruction. `None` when the architecture or this
/// CPU has none — the caller falls back to its software kernel.
pub(crate) fn crc32c_hw(state: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2, the only thing the kernel requires of its
        // caller, was detected on this CPU on the line above.
        return Some(unsafe { x86::crc32c(state, bytes) });
    }
    let _ = (state, bytes);
    None
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CRC_BLK;
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    use std::sync::OnceLock;

    /// `SHIFT[k][b]`: the register that holds `b << 8k` advanced over
    /// [`CRC_BLK`] zero bytes, i.e. multiplied by x^(8·CRC_BLK) mod P.
    /// Advancing is linear over GF(2), so XOR-ing the four entries a
    /// register's bytes select advances the whole register.
    type Shift = [[u32; 256]; 4];

    /// Build [`Shift`] with the instruction itself: advance each of the
    /// 32 one-bit registers over a block of zeros, then combine.
    ///
    /// # Safety
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    unsafe fn shift_table() -> Shift {
        let mut basis = [0u32; 32];
        for (bit, out) in basis.iter_mut().enumerate() {
            let mut c = 1u64 << bit;
            for _ in 0..CRC_BLK / 8 {
                c = _mm_crc32_u64(c, 0);
            }
            *out = c as u32;
        }
        let mut t = [[0u32; 256]; 4];
        for (k, row) in t.iter_mut().enumerate() {
            for (b, entry) in row.iter_mut().enumerate() {
                *entry = (0..8)
                    .filter(|bit| b >> bit & 1 != 0)
                    .fold(0, |v, bit| v ^ basis[8 * k + bit]);
            }
        }
        t
    }

    fn advance(t: &Shift, c: u32) -> u32 {
        t[0][(c & 0xFF) as usize]
            ^ t[1][(c >> 8 & 0xFF) as usize]
            ^ t[2][(c >> 16 & 0xFF) as usize]
            ^ t[3][(c >> 24) as usize]
    }

    #[allow(clippy::expect_used, reason = "every caller passes an 8-byte chunk")]
    fn word(w: &[u8]) -> u64 {
        u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"))
    }

    /// CRC32C register update over `bytes`: whole `3 * CRC_BLK` blocks as
    /// three interleaved `crc32q` chains (the second and third start from
    /// zero and are folded in by advancing the earlier ones over the
    /// bytes that follow them), then the rest as one chain and a byte
    /// tail. Loads are `from_le_bytes` of slices: no alignment demand.
    ///
    /// # Safety
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn crc32c(mut crc: u32, bytes: &[u8]) -> u32 {
        static SHIFT: OnceLock<Shift> = OnceLock::new();
        let mut blocks = bytes.chunks_exact(3 * CRC_BLK);
        if bytes.len() >= 3 * CRC_BLK {
            let shift = SHIFT.get_or_init(|| shift_table());
            for block in &mut blocks {
                let (s0, rest) = block.split_at(CRC_BLK);
                let (s1, s2) = rest.split_at(CRC_BLK);
                let (mut c0, mut c1, mut c2) = (u64::from(crc), 0, 0);
                let words = s0.chunks_exact(8).zip(s1.chunks_exact(8));
                for ((w0, w1), w2) in words.zip(s2.chunks_exact(8)) {
                    c0 = _mm_crc32_u64(c0, word(w0));
                    c1 = _mm_crc32_u64(c1, word(w1));
                    c2 = _mm_crc32_u64(c2, word(w2));
                }
                crc = advance(shift, advance(shift, c0 as u32) ^ c1 as u32) ^ c2 as u32;
            }
        }
        let mut words = blocks.remainder().chunks_exact(8);
        let mut c = u64::from(crc);
        for w in &mut words {
            c = _mm_crc32_u64(c, word(w));
        }
        let mut crc = c as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::FileExt;

    #[test]
    #[allow(clippy::disallowed_methods)] // the raw fsync is what is tested
    fn hinted_range_reads_back_intact_and_syncs_clean() {
        let dir = std::env::temp_dir().join(format!("rbio-sys-hint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("h"))
            .expect("open");
        let data: Vec<u8> = (0..1 << 20).map(|i| (i * 7) as u8).collect();
        f.write_all_at(&data, 4096).expect("pwrite");
        start_writeback(&f, 4096, data.len() as u64);
        // Past the end of the file: still just a hint. Zero-length: no
        // call at all, not the kernel's "from `off` to the end".
        start_writeback(&f, 1 << 30, 1 << 20);
        start_writeback(&f, 0, 0);
        let mut back = vec![0u8; data.len()];
        f.read_exact_at(&mut back, 4096).expect("pread");
        assert!(back == data, "a hint must not change the file's bytes");
        f.sync_all().expect("fsync after a hint");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hint_on_an_invalid_or_unseekable_fd_is_ignored() {
        start_writeback(&-1, 0, 4096);
        // A socket pair is the unseekable descriptor std hands out at
        // this crate's MSRV; like a pipe it answers `-ESPIPE`.
        let (a, _b) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        start_writeback(&a, 0, 4096);
    }
}
