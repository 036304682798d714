//! Layer probes (traced pass only): each calls one layer's public
//! function directly, at the sizes the workload puts that layer under,
//! on the same directory the workload ran in — plus the machine's
//! ceiling (memcpy, raw pwrite + fsync, pread) measured the same way.

use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbio::backend::{self, BackendKind, IoBackend, IoCtx, WriteOp};
use rbio::buf::{BufPool, Bytes};
use rbio::commit;
use rbio::fault::FaultPlan;
use rbio::format::{crc32c, decode_header};
use rbio::pipeline::{FlushJob, FlushPool, WriterTuning};
use rbio::tier::{SlabPool, TierStage};

use crate::fill;
use crate::metrics::MetricSet;
use crate::stats::{gbps, median, percentile};
use crate::workload::{ProbeSizes, Tally};

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;
/// Ceiling probes move this much: several times the last-level cache.
const CEILING_BYTES: usize = 64 << 20;
const CEILING_IO: usize = 4 << 20;

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn rw_file(path: &Path) -> Result<File, String> {
    io(
        "create probe file",
        OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(path),
    )
}

struct Probe<'a> {
    dir: PathBuf,
    sizes: ProbeSizes,
    /// `sizes.file` bytes of seeded noise, cut into `sizes.chunk` pieces.
    noise: Vec<u8>,
    out: &'a mut MetricSet,
}

impl Probe<'_> {
    fn chunks(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.noise.chunks(self.sizes.chunk).scan(0u64, |off, c| {
            let at = *off;
            *off += c.len() as u64;
            Some((at, c))
        })
    }

    fn crc(&mut self) -> Result<(), String> {
        let data = fill::block(1, 0, 0, 8 << 20);
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                secs(|| {
                    std::hint::black_box(crc32c(std::hint::black_box(&data)));
                })
            })
            .collect();
        self.out.set(
            "format.crc32c_gbps",
            gbps(data.len() as u64, median(&times)),
            REPS,
        );
        Ok(())
    }

    /// `pipeline`: a private two-thread pool, one writer at the
    /// workload's depth, the workload's job sizes, then `drain`.
    fn pipeline(&mut self) -> Result<(), String> {
        let pool = FlushPool::with_threads(2);
        let path = self.dir.join("pipeline.bin");
        let (mut submit_us, mut drain_ms) = (Vec::new(), Vec::new());
        let (mut jobs, mut total_s) = (0u64, 0.0);
        for _ in 0..REPS {
            let file = Arc::new(rw_file(&path)?);
            let writer = pool.register(
                0,
                self.sizes.depth,
                FaultPlan::none(),
                WriterTuning::default(),
            );
            let t_rep = Instant::now();
            for (offset, chunk) in self.chunks() {
                let data = Bytes::from_vec(chunk.to_vec());
                let t0 = Instant::now();
                let r = writer.submit(FlushJob::Write {
                    file: Arc::clone(&file),
                    offset,
                    data,
                });
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                r.map_err(|e| format!("pipeline submit: {e}"))?;
                jobs += 1;
            }
            let t0 = Instant::now();
            writer.drain().map_err(|e| format!("pipeline drain: {e}"))?;
            drain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            total_s += t_rep.elapsed().as_secs_f64();
        }
        pool.shutdown();
        let n = submit_us.len();
        self.out
            .set("pipeline.submit_us_p50", median(&submit_us), n);
        self.out
            .set("pipeline.submit_us_p90", percentile(&submit_us, 90.0), n);
        self.out.set("pipeline.drain_ms", median(&drain_ms), REPS);
        self.out
            .set("pipeline.jobs_per_s", jobs as f64 / total_s, n);
        Ok(())
    }

    fn backend_write(&self, be: &Arc<dyn IoBackend>, retries: &mut u64) -> Result<f64, String> {
        let path = self.dir.join("backend.bin");
        let faults = FaultPlan::none();
        let ctx = IoCtx {
            rank: 0,
            wid: 0,
            faults: &faults,
            write_retries: 3,
            retry_backoff: Duration::from_micros(500),
        };
        let mut times = Vec::new();
        for _ in 0..REPS {
            let file = Arc::new(rw_file(&path)?);
            let ops: Vec<WriteOp> = self
                .chunks()
                .map(|(offset, c)| WriteOp {
                    file: Arc::clone(&file),
                    offset,
                    bufs: vec![Bytes::from_vec(c.to_vec())],
                })
                .collect();
            let t0 = Instant::now();
            let outcome = be.run_writes(&ctx, ops);
            times.push(t0.elapsed().as_secs_f64());
            *retries += outcome.retries as u64;
            if let Some((i, e)) = outcome.error {
                return Err(format!("{} backend write op {i}: {e:?}", be.name()));
            }
        }
        Ok(gbps(self.noise.len() as u64, median(&times)))
    }

    /// `backend`: `run_writes` on both engines and `read_at`, at the
    /// workload's chunk size.
    fn backend(&mut self) -> Result<(), String> {
        let mut retries = 0;
        let threaded =
            self.backend_write(&backend::resolve(BackendKind::Threaded), &mut retries)?;
        let ring = self.backend_write(&backend::resolve(BackendKind::Ring), &mut retries)?;
        let file = io("open", File::open(self.dir.join("backend.bin")))?;
        let be = backend::resolve(BackendKind::Threaded);
        let mut times = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            for (offset, c) in self.chunks() {
                let got = io("read_at", be.read_at(&file, offset, c.len()))?;
                if got.as_ref() != c {
                    return Err(format!("read_at returned other bytes at offset {offset}"));
                }
            }
            times.push(t0.elapsed().as_secs_f64());
        }
        self.out.set("backend.threaded_write_gbps", threaded, REPS);
        self.out.set("backend.ring_write_gbps", ring, REPS);
        self.out.set(
            "backend.read_at_gbps",
            gbps(self.noise.len() as u64, median(&times)),
            REPS,
        );
        self.out.set("backend.retries", retries as f64, 1);
        Ok(())
    }

    /// `commit`: seal + publish a real file of the workload (its newest
    /// on disk, footer stripped), re-verify it, and publish a marker-
    /// sized text file.
    fn commit(&mut self, final_dir: &Path) -> Result<(), String> {
        let src = newest_data_file(final_dir)?.ok_or("no committed file to probe with")?;
        let mut image = io("read committed file", fs::read(&src))?;
        // Checkpoint files carry a footer past the header's logical
        // size; session files are plain payloads.
        let size = decode_header(&image).map_or(image.len() as u64, |h| h.expected_file_size());
        image.truncate(size as usize);
        let final_path = self.dir.join("commit.rbio");
        let tmp = commit::tmp_path(&final_path);
        let mut commit_ms = Vec::new();
        for _ in 0..REPS {
            io("write tmp", fs::write(&tmp, &image))?;
            let t0 = Instant::now();
            io(
                "commit_file",
                commit::commit_file(&tmp, &final_path, size, true),
            )?;
            commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let committed = io("read back", fs::read(&final_path))?;
        let mut verify_s = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            let bad = commit::verify_committed(&committed, size);
            verify_s.push(t0.elapsed().as_secs_f64());
            if let Some(what) = bad {
                return Err(format!("verify_committed: {what}"));
            }
        }
        let body: String = (0..8)
            .map(|i| format!("step0000000001.r{i}.rbio 8388700 deadbeef\n"))
            .collect();
        let text_path = self.dir.join("probe.commit");
        let text_ms: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                io("commit_text", commit::commit_text(&text_path, &body, true))
                    .map(|()| t0.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Result<_, _>>()?;
        self.out
            .set("commit.commit_file_ms", median(&commit_ms), REPS);
        self.out
            .set("commit.verify_gbps", gbps(size, median(&verify_s)), REPS);
        self.out
            .set("commit.commit_text_ms", median(&text_ms), REPS);
        Ok(())
    }

    /// `tier`: slab pre-allocation, and staging one generation's worth
    /// of appends at the workload's chunk size.
    fn tier(&mut self, gen_bytes: usize) -> Result<(), String> {
        let path = self.dir.join("probe.slab");
        let (mut create_ms, mut append_s) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let t0 = Instant::now();
            let pool = io("SlabPool::create", SlabPool::create(&path, 2 * gen_bytes))?;
            create_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let stage = TierStage::new(1, Arc::new(pool));
            let t0 = Instant::now();
            let mut staged = 0;
            while staged < gen_bytes {
                for (offset, c) in self.chunks() {
                    stage
                        .append("probe.rbio", staged as u64 + offset, c)
                        .map_err(|e| format!("TierStage::append: {e}"))?;
                }
                staged += self.noise.len();
            }
            append_s.push(t0.elapsed().as_secs_f64() / staged as f64);
            drop(stage);
            io("remove slab", fs::remove_file(&path))?;
        }
        self.out
            .set("tier.slab_create_ms", median(&create_ms), REPS);
        self.out.set(
            "tier.stage_append_gbps",
            1.0 / median(&append_s) / 1e9,
            REPS,
        );
        Ok(())
    }

    fn buf(&mut self) -> Result<(), String> {
        let src = &self.noise[..(1 << 20).min(self.noise.len())];
        let times: Vec<f64> = (0..64)
            .map(|_| secs(|| drop(std::hint::black_box(BufPool::global().copy_from_slice(src)))))
            .collect();
        self.out.set(
            "buf.pool_copy_gbps",
            gbps(src.len() as u64, median(&times)),
            times.len(),
        );
        Ok(())
    }

    /// The box's ceiling on this directory: what memcpy, raw positional
    /// writes + fsync (one stream, then two side by side) and positional
    /// reads reach with no checkpoint code in the way.
    fn ceiling(&mut self) -> Result<(), String> {
        let src = fill::block(2, 0, 0, CEILING_BYTES);
        let mut dst = vec![0u8; CEILING_BYTES];
        let memcpy: Vec<f64> = (0..REPS)
            .map(|_| {
                secs(|| {
                    dst.copy_from_slice(std::hint::black_box(&src));
                    std::hint::black_box(&mut dst);
                })
            })
            .collect();

        let stream = |path: &Path, bytes: &[u8]| -> std::io::Result<()> {
            let f = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(path)?;
            for (i, c) in bytes.chunks(CEILING_IO).enumerate() {
                f.write_all_at(c, (i * CEILING_IO) as u64)?;
            }
            f.sync_all()
        };
        let one = self.dir.join("ceiling-0.bin");
        let two = self.dir.join("ceiling-1.bin");
        let (mut w1, mut wn, mut rd) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            let t0 = Instant::now();
            io("pwrite", stream(&one, &src))?;
            w1.push(t0.elapsed().as_secs_f64());

            let (a, b) = src.split_at(CEILING_BYTES / 2);
            let t0 = Instant::now();
            let (ra, rb) = std::thread::scope(|s| {
                let h = s.spawn(|| stream(&two, b));
                (
                    stream(&one, a),
                    h.join().expect("pwrite thread must not panic"),
                )
            });
            wn.push(t0.elapsed().as_secs_f64());
            io("pwrite", ra.and(rb))?;

            let f = io("open", File::open(&one))?;
            let half = &mut dst[..CEILING_BYTES / 2];
            let t0 = Instant::now();
            for (i, c) in half.chunks_mut(CEILING_IO).enumerate() {
                io("pread", f.read_exact_at(c, (i * CEILING_IO) as u64))?;
            }
            rd.push(t0.elapsed().as_secs_f64());
        }
        let bytes = CEILING_BYTES as u64;
        self.out
            .set("ceiling.memcpy_gbps", gbps(bytes, median(&memcpy)), REPS);
        self.out
            .set("ceiling.pwrite_1_gbps", gbps(bytes, median(&w1)), REPS);
        self.out
            .set("ceiling.pwrite_n_gbps", gbps(bytes, median(&wn)), REPS);
        self.out
            .set("ceiling.read_gbps", gbps(bytes / 2, median(&rd)), REPS);
        Ok(())
    }
}

/// The newest checkpoint or session file under `dir`.
fn newest_data_file(dir: &Path) -> Result<Option<PathBuf>, String> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in io("read_dir", fs::read_dir(&d))? {
            let entry = io("read_dir entry", entry)?;
            let path = entry.path();
            let meta = io("metadata", entry.metadata())?;
            if meta.is_dir() {
                stack.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rbio" | "bin")
            ) {
                let mtime = io("mtime", meta.modified())?;
                if best.as_ref().is_none_or(|(t, p)| (mtime, &path) > (*t, p)) {
                    best = Some((mtime, path));
                }
            }
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Run every probe in `scratch` (created, then removed), writing the
/// probe-backed per-layer metrics into `out`. A probe that errors is a
/// failed operation; its metrics stay 0.
pub fn run_all(
    scratch: &Path,
    final_dir: &Path,
    sizes: ProbeSizes,
    gen_bytes: u64,
    out: &mut MetricSet,
    tally: &mut Tally,
) {
    if let Err(e) = fs::create_dir_all(scratch) {
        tally.check("probe directory", Err::<(), _>(e.to_string()));
        return;
    }
    let mut p = Probe {
        dir: scratch.to_path_buf(),
        sizes,
        noise: fill::block(3, 0, 0, sizes.file),
        out,
    };
    tally.check("probe format.crc32c", p.crc());
    tally.check("probe pipeline", p.pipeline());
    tally.check("probe backend", p.backend());
    tally.check("probe commit", p.commit(final_dir));
    tally.check("probe tier", p.tier(gen_bytes as usize));
    tally.check("probe buf", p.buf());
    tally.check("probe ceiling", p.ceiling());
    fs::remove_dir_all(scratch).ok();
}
