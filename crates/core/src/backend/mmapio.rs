//! mmap-backed restart reads.
//!
//! The ring backend's `read_at` maps the checkpoint file read-only and
//! copies the requested range out of the page cache in one pass — no
//! read syscall per chunk, and the kernel readahead works on the whole
//! mapping. The copy into an owned [`Bytes`] is deliberate: restart
//! decode outlives the mapping, and an owned slice keeps the trait's
//! ownership story identical across backends. Platforms (or kernels)
//! where the mapping fails fall back to plain `pread`.

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;

use crate::buf::Bytes;
use crate::sys::{self, Mmap};

/// Read `len` bytes at `offset` via a transient read-only mapping,
/// falling back to `pread` when the file cannot be mapped (empty file,
/// unsupported platform, kernel refusal).
pub fn read_via_mmap(file: &File, offset: u64, len: usize) -> io::Result<Bytes> {
    if len == 0 {
        return Ok(Bytes::from_vec(Vec::new()));
    }
    let file_len = file.metadata()?.len();
    let end = offset
        .checked_add(len as u64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "read range overflows"))?;
    if end > file_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("read of {len} bytes at {offset} past file end {file_len}"),
        ));
    }
    // Map from the start of the file: `offset` need not be page-aligned,
    // and checkpoint files are small enough that mapping the prefix is
    // free (pages are only faulted where touched).
    let map_len = end as usize;
    match Mmap::new(
        file.as_raw_fd(),
        map_len,
        0,
        sys::PROT_READ,
        sys::MAP_SHARED,
    ) {
        // The copy is not checkpoint-datapath traffic, so it goes
        // through `from_vec`, not the counted `copy_from_slice`.
        Some(map) => Ok(Bytes::from_vec(map.as_slice()[offset as usize..].to_vec())),
        None => {
            let mut v = vec![0u8; len];
            file.read_exact_at(&mut v, offset)?;
            Ok(Bytes::from_vec(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn mmap_read_round_trips_and_bounds_check() {
        let dir = std::env::temp_dir().join(format!("rbio-mmapio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("f");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&p)
            .expect("open");
        let data: Vec<u8> = (0..200u8).collect();
        f.write_all(&data).expect("write");
        f.flush().expect("flush");
        let got = read_via_mmap(&f, 10, 50).expect("read");
        assert_eq!(got.as_ref(), &data[10..60]);
        assert!(read_via_mmap(&f, 190, 50).is_err(), "past-EOF must fail");
        assert!(read_via_mmap(&f, 0, 0).expect("empty").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
