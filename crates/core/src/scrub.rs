//! Offline checkpoint scrubber: walk a quiesced checkpoint directory's
//! committed generations, re-verify what the commit markers promised,
//! classify any damage found, and (optionally) repair it from the
//! nearest redundant copy.
//!
//! The scrubber is the slow-path complement to the fast restore-time
//! checks in [`crate::manager`]: a restore verifies the one generation
//! it is about to trust, while a scrub sweeps *every* retained
//! generation on a schedule — catching silent media decay before the
//! damaged generation is the one a restart needs.
//!
//! Damage classes:
//!
//! * **Torn file** — a checkpoint file's size, header CRC, or per-field
//!   footer CRCs no longer match its commit marker. Detected cheaply
//!   (size + header) on every pass; the full-body footer re-verify runs
//!   at the configured [`ScrubConfig::deep_rate`] so a scrub's read
//!   bandwidth is tunable against the PFS.
//! * **Missing file** — the marker references a file that is gone.
//! * **Orphaned tmp** — a `*.tmp` left by a crashed commit; never
//!   referenced by any marker, reaped under `repair`.
//! * **Metadata divergence** — manifest and marker disagree about the
//!   generation's extent set, or the manifest itself is torn.
//!
//! Repair sources the burst-buffer tier: a burst copy is committed with
//! the same footer protocol as the PFS file, so after footer
//! verification it is a byte-identical replacement, installed via the
//! usual `tmp` + `rename` + dir-fsync path. Files with no healthy
//! redundant copy stay classified-but-unrepaired — the report is the
//! operator's signal to fall back a generation.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rbio_profile::counters;

use crate::commit;
use crate::format::decode_header;
use crate::manager::{check_committed_file, commit_name, manifest_name, marker_files, marker_step};

/// What a scrub found wrong with one on-disk object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DamageKind {
    /// Size / header CRC / footer CRC mismatch against the marker.
    TornFile,
    /// The marker references a file that is not on disk.
    MissingFile,
    /// A `*.tmp` from a crashed commit, referenced by nothing.
    OrphanTmp,
    /// Manifest and marker disagree (or the manifest is torn).
    MetadataDivergence,
}

impl std::fmt::Display for DamageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DamageKind::TornFile => "torn-file",
            DamageKind::MissingFile => "missing-file",
            DamageKind::OrphanTmp => "orphan-tmp",
            DamageKind::MetadataDivergence => "metadata-divergence",
        };
        f.write_str(s)
    }
}

/// One damaged object and what happened to it.
#[derive(Clone, Debug)]
pub struct Damage {
    /// Generation the object belongs to (`None` for stray orphans).
    pub step: Option<u64>,
    /// File name relative to the checkpoint directory.
    pub file: String,
    /// Damage class.
    pub kind: DamageKind,
    /// Human-readable specifics.
    pub detail: String,
    /// Whether a repair landed (burst-copy reinstall or orphan reap).
    pub repaired: bool,
}

/// Scrub outcome: what was walked, what was read, what was wrong.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Committed generations walked.
    pub generations: u64,
    /// Marker-referenced files checked (size + header CRC).
    pub files_checked: u64,
    /// Bytes whose footer CRCs were fully re-verified (deep passes).
    pub bytes_verified: u64,
    /// Everything found wrong, in walk order.
    pub damage: Vec<Damage>,
    /// Damage entries a repair fixed.
    pub repairs: u64,
}

impl ScrubReport {
    /// True when the sweep found nothing wrong.
    pub fn clean(&self) -> bool {
        self.damage.is_empty()
    }

    /// Damage that survived the pass (found and not repaired).
    pub fn unrepaired(&self) -> usize {
        self.damage.iter().filter(|d| !d.repaired).count()
    }

    /// Single-line JSON for logs and bench artifacts.
    pub fn to_json(&self) -> String {
        let mut items = String::new();
        for d in &self.damage {
            if !items.is_empty() {
                items.push(',');
            }
            items.push_str(&format!(
                "{{\"step\":{},\"file\":\"{}\",\"kind\":\"{}\",\"repaired\":{}}}",
                d.step.map_or_else(|| "null".into(), |s| s.to_string()),
                d.file,
                d.kind,
                d.repaired
            ));
        }
        format!(
            "{{\"generations\":{},\"files_checked\":{},\"bytes_verified\":{},\
             \"repairs\":{},\"damage\":[{items}]}}",
            self.generations, self.files_checked, self.bytes_verified, self.repairs
        )
    }
}

/// How to run a scrub.
#[derive(Clone, Debug)]
pub struct ScrubConfig {
    /// The checkpoint (PFS) directory to walk.
    pub dir: PathBuf,
    /// Burst-buffer directory holding redundant committed copies, if
    /// the deployment drains through one. Repairs source from here.
    pub burst_dir: Option<PathBuf>,
    /// Actually fix what is found (burst reinstalls, orphan reaps).
    /// Off = dry run: classify and report only.
    pub repair: bool,
    /// Fraction of marker-referenced files (0.0..=1.0) whose per-field
    /// footer CRCs are fully re-read and re-verified. Size and header
    /// CRC are always checked; the deep pass is the read-bandwidth
    /// knob. 1.0 re-reads everything.
    pub deep_rate: f64,
}

impl ScrubConfig {
    /// Full-depth dry run over `dir` with no burst tier.
    pub fn new(dir: impl Into<PathBuf>) -> ScrubConfig {
        ScrubConfig {
            dir: dir.into(),
            burst_dir: None,
            repair: false,
            deep_rate: 1.0,
        }
    }
}

/// Reinstall `name` from its burst-tier copy, byte-identically. The
/// burst copy is committed with the same footer protocol, so after its
/// own footer verification the raw bytes are the replacement — written
/// through a `.tmp` sibling and renamed so a crash mid-repair never
/// leaves a half-installed file, then fsynced (file and directory):
/// a repair that can be lost in a power cut is not a repair.
fn repair_from_burst(dir: &Path, burst: &Path, name: &str, want_size: u64) -> Result<(), String> {
    let src = burst.join(name);
    let bytes = fs::read(&src).map_err(|e| format!("burst copy unreadable: {e}"))?;
    if bytes.len() as u64 != want_size {
        return Err(format!(
            "burst copy is {} bytes, marker recorded {want_size}",
            bytes.len()
        ));
    }
    let header = decode_header(&bytes).map_err(|e| format!("burst copy header: {e}"))?;
    if let Some(what) = commit::verify_committed(&bytes, header.expected_file_size()) {
        return Err(format!("burst copy corrupt: {what}"));
    }
    let final_path = dir.join(name);
    let tmp = commit::tmp_path(&final_path);
    let write = || -> io::Result<()> {
        fs::write(&tmp, &bytes)?;
        fs::File::open(&tmp)?.sync_all()?;
        fs::rename(&tmp, &final_path)?;
        fs::File::open(dir)?.sync_all()
    };
    write().map_err(|e| {
        let _ = fs::remove_file(&tmp);
        format!("reinstall failed: {e}")
    })
}

/// Extent-name set from committed metadata text, skipping the two
/// header lines (`step N` / `files|extents M`).
fn name_set(text: &str) -> BTreeSet<String> {
    text.lines()
        .skip(2)
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

/// Walk `cfg.dir` and scrub every committed generation. The directory
/// must be quiesced (no live manager writing) — this is an *offline*
/// scrubber; concurrent commits would be reported as divergence.
pub fn scrub(cfg: &ScrubConfig) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let mut steps = Vec::new();
    let mut tmps = Vec::new();
    for entry in fs::read_dir(&cfg.dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(step) = marker_step(&name) {
            steps.push(step);
        } else if name.ends_with(".tmp") {
            tmps.push(name);
        }
    }
    steps.sort_unstable();
    tmps.sort_unstable();

    // Deep-pass decimation: a deterministic accumulator spreads the
    // configured fraction evenly over the walk order (no RNG, so the
    // same directory state always scrubs the same files).
    let rate = cfg.deep_rate.clamp(0.0, 1.0);
    let mut acc = 0.0f64;
    let damage = |report: &mut ScrubReport, d: Damage| {
        counters::add_scrub_damage_found(1);
        if d.repaired {
            counters::add_scrub_repairs(1);
            report.repairs += 1;
        }
        report.damage.push(d);
    };

    for &step in &steps {
        report.generations += 1;
        let marker_name = commit_name(step);
        let marker = match commit::read_committed_text(&cfg.dir.join(&marker_name)) {
            Ok(m) => m,
            Err(e) => {
                // The marker itself is torn: the whole generation is
                // untrustworthy and there is no redundant marker copy.
                damage(
                    &mut report,
                    Damage {
                        step: Some(step),
                        file: marker_name,
                        kind: DamageKind::TornFile,
                        detail: format!("commit marker unreadable: {e}"),
                        repaired: false,
                    },
                );
                continue;
            }
        };
        for line in marker_files(&marker) {
            let (name, want_size, want_crc) = match line {
                Ok(file) => file,
                Err(bad) => {
                    damage(
                        &mut report,
                        Damage {
                            step: Some(step),
                            file: commit_name(step),
                            kind: DamageKind::TornFile,
                            detail: format!("bad marker line: {bad}"),
                            repaired: false,
                        },
                    );
                    continue;
                }
            };
            report.files_checked += 1;
            counters::add_scrub_files_checked(1);
            acc += rate;
            let deep = acc >= 1.0;
            if deep {
                acc -= 1.0;
            }
            match check_committed_file(&cfg.dir.join(name), want_size, want_crc, deep) {
                Ok(deep_bytes) => {
                    report.bytes_verified += deep_bytes;
                    counters::add_scrub_bytes_verified(deep_bytes);
                }
                Err(detail) => {
                    let kind = if detail == "missing" {
                        DamageKind::MissingFile
                    } else {
                        DamageKind::TornFile
                    };
                    let mut repaired = false;
                    let mut detail = detail;
                    if cfg.repair {
                        if let Some(burst) = cfg.burst_dir.as_deref() {
                            match repair_from_burst(&cfg.dir, burst, name, want_size) {
                                Ok(()) => repaired = true,
                                Err(e) => detail = format!("{detail}; {e}"),
                            }
                        }
                    }
                    damage(
                        &mut report,
                        Damage {
                            step: Some(step),
                            file: name.to_owned(),
                            kind,
                            detail,
                            repaired,
                        },
                    );
                }
            }
        }
        // Manifest/marker agreement. A missing manifest is legal
        // (pre-manifest directories); a torn or divergent one is not.
        match commit::read_committed_text(&cfg.dir.join(manifest_name(step))) {
            Ok(m) => {
                let extents = name_set(&m);
                let files = name_set(&marker);
                if extents != files {
                    let diff: Vec<&String> = extents.symmetric_difference(&files).collect();
                    damage(
                        &mut report,
                        Damage {
                            step: Some(step),
                            file: manifest_name(step),
                            kind: DamageKind::MetadataDivergence,
                            detail: format!(
                                "manifest extents and marker files disagree on {diff:?}"
                            ),
                            repaired: false,
                        },
                    );
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                damage(
                    &mut report,
                    Damage {
                        step: Some(step),
                        file: manifest_name(step),
                        kind: DamageKind::MetadataDivergence,
                        detail: format!("manifest unreadable: {e}"),
                        repaired: false,
                    },
                );
            }
        }
    }

    // Stray `.tmp`s: a crashed commit's leavings. Nothing references
    // them, so under `repair` the fix is the reap.
    for name in tmps {
        let mut repaired = false;
        if cfg.repair && fs::remove_file(cfg.dir.join(&name)).is_ok() {
            counters::add_gc_orphans(1);
            repaired = true;
        }
        damage(
            &mut report,
            Damage {
                step: None,
                file: name,
                kind: DamageKind::OrphanTmp,
                detail: "tmp sibling referenced by no commit marker".into(),
                repaired,
            },
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DataLayout;
    use crate::manager::{CheckpointManager, ManagerConfig};
    use crate::strategy::Strategy;
    use crate::tier::TierConfig;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-scrub-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// One tiered generation drained through a burst dir, quiesced.
    fn seeded(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
        let root = scratch(tag);
        let pfs = root.join("pfs");
        let burst = root.join("burst");
        let layout = DataLayout::uniform(4, &[("u", 512), ("v", 128)]);
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.fsync = false;
        cfg.tier = Some(
            TierConfig::new(root.join("local"))
                .burst_dir(&burst)
                .slab_capacity(1 << 20),
        );
        let mgr = CheckpointManager::new(layout, cfg).unwrap();
        mgr.checkpoint(7, |_, _, buf| buf.fill(0x3c)).unwrap();
        mgr.wait_durable(7).unwrap();
        drop(mgr);
        (root, pfs, burst)
    }

    fn first_rbio(dir: &Path) -> PathBuf {
        let mut names: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "rbio"))
            .collect();
        names.sort();
        names.remove(0)
    }

    #[test]
    fn clean_directory_scrubs_clean() {
        let (root, pfs, burst) = seeded("clean");
        let mut cfg = ScrubConfig::new(&pfs);
        cfg.burst_dir = Some(burst);
        let report = scrub(&cfg).unwrap();
        assert!(report.clean(), "{:?}", report.damage);
        assert_eq!(report.generations, 1);
        assert!(report.files_checked >= 2, "{report:?}");
        assert!(
            report.bytes_verified > 0,
            "deep_rate 1.0 must re-read bodies"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_field_is_repaired_from_burst_byte_identically() {
        let (root, pfs, burst) = seeded("torn");
        let victim = first_rbio(&pfs);
        let healthy = fs::read(&victim).unwrap();
        // Flip one payload byte past the header: header CRC still
        // matches, only the deep footer pass can catch it.
        let mut bytes = healthy.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();

        // Dry run classifies but leaves the tear in place.
        let mut cfg = ScrubConfig::new(&pfs);
        cfg.burst_dir = Some(burst.clone());
        let dry = scrub(&cfg).unwrap();
        assert_eq!(dry.damage.len(), 1, "{:?}", dry.damage);
        assert_eq!(dry.damage[0].kind, DamageKind::TornFile);
        assert!(!dry.damage[0].repaired);
        assert_eq!(fs::read(&victim).unwrap(), bytes, "dry run must not write");

        // Repair reinstalls the burst copy byte-for-byte.
        cfg.repair = true;
        let fixed = scrub(&cfg).unwrap();
        assert_eq!(fixed.repairs, 1, "{:?}", fixed.damage);
        assert!(fixed.damage[0].repaired);
        let repaired = fs::read(&victim).unwrap();
        assert_eq!(repaired, healthy, "repair must restore the exact bytes");
        let burst_copy = fs::read(burst.join(victim.file_name().unwrap())).unwrap();
        assert_eq!(
            repaired, burst_copy,
            "repair must be the burst copy verbatim"
        );

        // And the directory now scrubs clean.
        let after = scrub(&cfg).unwrap();
        assert!(after.clean(), "{:?}", after.damage);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_file_is_reinstalled_from_burst() {
        let (root, pfs, burst) = seeded("missing");
        let victim = first_rbio(&pfs);
        let healthy = fs::read(&victim).unwrap();
        fs::remove_file(&victim).unwrap();

        let mut cfg = ScrubConfig::new(&pfs);
        cfg.burst_dir = Some(burst);
        cfg.repair = true;
        let report = scrub(&cfg).unwrap();
        assert_eq!(report.damage.len(), 1, "{:?}", report.damage);
        assert_eq!(report.damage[0].kind, DamageKind::MissingFile);
        assert!(report.damage[0].repaired);
        assert_eq!(fs::read(&victim).unwrap(), healthy);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn damage_without_a_burst_copy_stays_classified() {
        let (root, pfs, _burst) = seeded("noburst");
        let victim = first_rbio(&pfs);
        fs::remove_file(&victim).unwrap();
        let mut cfg = ScrubConfig::new(&pfs);
        cfg.repair = true; // no burst_dir: nothing to repair from
        let report = scrub(&cfg).unwrap();
        assert_eq!(report.unrepaired(), 1, "{:?}", report.damage);
        assert_eq!(report.damage[0].kind, DamageKind::MissingFile);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn orphan_tmps_and_divergent_manifests_are_classified() {
        let (root, pfs, burst) = seeded("orphans");
        fs::write(pfs.join("step0000000009.rbio.tmp"), b"half-written").unwrap();
        // Rewrite the manifest to reference an extent the marker does
        // not list: metadata divergence.
        commit::commit_text(
            &pfs.join("step0000000007.manifest"),
            "step 7\nextents 1\nghost.rbio 0 primary\n",
            false,
        )
        .unwrap();

        let mut cfg = ScrubConfig::new(&pfs);
        cfg.burst_dir = Some(burst);
        cfg.repair = true;
        let report = scrub(&cfg).unwrap();
        let kinds: Vec<DamageKind> = report.damage.iter().map(|d| d.kind).collect();
        assert!(
            kinds.contains(&DamageKind::MetadataDivergence),
            "{:?}",
            report.damage
        );
        assert!(
            kinds.contains(&DamageKind::OrphanTmp),
            "{:?}",
            report.damage
        );
        let orphan = report
            .damage
            .iter()
            .find(|d| d.kind == DamageKind::OrphanTmp)
            .unwrap();
        assert!(orphan.repaired, "repair mode must reap the orphan");
        assert!(!pfs.join("step0000000009.rbio.tmp").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn deep_rate_decimates_the_body_reads() {
        let (root, pfs, _burst) = seeded("rate");
        let mut cfg = ScrubConfig::new(&pfs);
        cfg.deep_rate = 0.0;
        let shallow = scrub(&cfg).unwrap();
        assert!(shallow.clean(), "{:?}", shallow.damage);
        assert_eq!(shallow.bytes_verified, 0, "rate 0.0 must skip body reads");
        cfg.deep_rate = 1.0;
        let deep = scrub(&cfg).unwrap();
        assert!(deep.bytes_verified > 0);
        assert_eq!(shallow.files_checked, deep.files_checked);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn report_json_is_wellformed() {
        let report = ScrubReport {
            generations: 2,
            files_checked: 4,
            bytes_verified: 1280,
            damage: vec![Damage {
                step: Some(7),
                file: "a.rbio".into(),
                kind: DamageKind::TornFile,
                detail: "x".into(),
                repaired: true,
            }],
            repairs: 1,
        };
        let j = report.to_json();
        assert!(j.contains("\"generations\":2"), "{j}");
        assert!(j.contains("\"kind\":\"torn-file\""), "{j}");
        assert!(j.contains("\"repaired\":true"), "{j}");
    }
}
