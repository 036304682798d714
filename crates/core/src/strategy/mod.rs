//! Checkpoint strategies: 1PFPP, coIO and rbIO.
//!
//! A [`CheckpointSpec`] (layout + strategy + tuning) compiles into a
//! [`CheckpointPlan`] whose [`rbio_plan::Program`] can be executed by the
//! real threaded executor ([`crate::exec`]) or the simulated Blue Gene/P
//! (`rbio-machine`). The plan is validated on construction: message
//! matching, deadlock-freedom, and exact write coverage of every output
//! file.

mod coio;
mod pfpp;
mod rbio_strategy;

use rbio_mpiio::domains::DomainConfig;
use rbio_mpiio::{plan_collective_write, CollectiveWrite, Contribution, TwoPhaseConfig};
use rbio_plan::{
    validate, CoverageMode, DataRef, FileId, Op, Program, ProgramBuilder, ValidateError,
};

use crate::format;
use crate::layout::DataLayout;

/// How rbIO writers commit aggregated data (§IV-C of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RbIoCommit {
    /// `nf = ng`: every writer owns one file and commits with independent
    /// `MPI_File_write_at` on `MPI_COMM_SELF`, buffering multiple fields
    /// per flush. The paper's best configuration.
    IndependentPerWriter,
    /// `nf = 1`: writers jointly commit one shared file with a collective
    /// write per field (application two-phase stacked on MPI-IO two-phase).
    CollectiveShared,
}

/// A checkpoint I/O strategy with its tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One POSIX file per processor (`nf = np`).
    OnePfpp,
    /// MPI-IO collective writes into `nf` files (split-collective groups of
    /// `np/nf` ranks); `aggregator_ratio` ranks share one I/O aggregator
    /// (the Blue Gene default is 32 in VN mode).
    CoIo {
        /// Number of output files.
        nf: u32,
        /// Ranks per aggregator within each group.
        aggregator_ratio: u32,
    },
    /// Reduced-blocking I/O: `ng` dedicated writers, each aggregating the
    /// other ranks of its group over nonblocking sends.
    RbIo {
        /// Number of writer ranks (= groups).
        ng: u32,
        /// Commit mode (`nf = ng` vs `nf = 1`).
        commit: RbIoCommit,
    },
}

impl Strategy {
    /// coIO with the Blue Gene default 32:1 aggregator ratio.
    pub fn coio(nf: u32) -> Strategy {
        Strategy::CoIo {
            nf,
            aggregator_ratio: 32,
        }
    }

    /// rbIO with independent per-writer files (`nf = ng`).
    pub fn rbio(ng: u32) -> Strategy {
        Strategy::RbIo {
            ng,
            commit: RbIoCommit::IndependentPerWriter,
        }
    }

    /// Short human-readable label used in reports (“1PFPP”, “coIO nf=8”, …).
    pub fn label(&self) -> String {
        match self {
            Strategy::OnePfpp => "1PFPP".to_string(),
            Strategy::CoIo { nf, .. } => format!("coIO nf={nf}"),
            Strategy::RbIo {
                ng,
                commit: RbIoCommit::IndependentPerWriter,
            } => {
                format!("rbIO ng={ng} nf=ng")
            }
            Strategy::RbIo {
                ng,
                commit: RbIoCommit::CollectiveShared,
            } => {
                format!("rbIO ng={ng} nf=1")
            }
        }
    }
}

/// Filesystem/exchange tunables shared by the strategies.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// Filesystem block size used for domain alignment (GPFS: 4 MiB).
    pub fs_block_size: u64,
    /// Align collective file domains to block boundaries (§V-B).
    pub align_domains: bool,
    /// ROMIO collective buffer size (exchange round granularity).
    pub cb_buffer_size: u64,
    /// rbIO writer commit buffer: aggregated bytes per independent write.
    /// Also caps the size of a single 1PFPP `WriteAt` (large fields chunk).
    pub writer_buffer: u64,
    /// Coalesce all fields of a collective commit (coIO, rbIO `nf = 1`)
    /// into ONE batched collective write — a single exchange and a single
    /// barrier per file instead of one per field. `false` (default) keeps
    /// the paper's flush-per-field semantics ("all the processors commit
    /// data by fields"); `true` trades them for fewer synchronization
    /// points, feeding the pipelined writers one large handoff per step.
    pub coalesce_fields: bool,
    /// Cap on concurrently-committing independent rbIO writers, after
    /// Fig. 8's `nf ≈ 1024` sweet spot: creating many files at once
    /// degrades past that point, so when `ng` exceeds this the writers
    /// open/write/commit in waves of `nf_sweet`, chained by token
    /// messages. `None` (default) = unlimited (all writers concurrent).
    pub nf_sweet: Option<u32>,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            fs_block_size: 4 << 20,
            align_domains: true,
            cb_buffer_size: 16 << 20,
            writer_buffer: 16 << 20,
            coalesce_fields: false,
            nf_sweet: None,
        }
    }
}

/// Everything needed to build one checkpoint step's plan.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Data layout (ranks, fields, sizes).
    pub(crate) layout: DataLayout,
    /// Application name stored in file headers.
    pub(crate) app: String,
    /// Checkpoint step number.
    pub(crate) step: u64,
    /// Subdirectory/prefix for this step's files (e.g. `"step000100"`).
    pub(crate) prefix: String,
    /// Strategy and its parameters.
    pub(crate) strategy: Strategy,
    /// Tuning knobs.
    pub(crate) tuning: Tuning,
}

impl CheckpointSpec {
    /// A spec with defaults: 1PFPP, app `"nekcem"`, step 0, default tuning.
    pub fn new(layout: DataLayout, prefix: impl Into<String>) -> Self {
        CheckpointSpec {
            layout,
            app: "nekcem".to_string(),
            step: 0,
            prefix: prefix.into(),
            strategy: Strategy::OnePfpp,
            tuning: Tuning::default(),
        }
    }

    /// Set the strategy.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Set the step number.
    pub fn step(mut self, step: u64) -> Self {
        self.step = step;
        self
    }

    /// Set the tuning knobs.
    pub fn tuning(mut self, t: Tuning) -> Self {
        self.tuning = t;
        self
    }

    /// Compile the spec into a validated plan.
    pub fn plan(&self) -> Result<CheckpointPlan, PlanError> {
        let np = self.layout.nranks();
        match self.strategy {
            Strategy::OnePfpp => {}
            Strategy::CoIo {
                nf,
                aggregator_ratio,
            } => {
                if nf == 0 || nf > np {
                    return Err(PlanError::BadParam(format!("coIO nf={nf} with np={np}")));
                }
                if aggregator_ratio == 0 {
                    return Err(PlanError::BadParam("aggregator_ratio=0".into()));
                }
            }
            Strategy::RbIo { ng, .. } => {
                if ng == 0 || ng > np {
                    return Err(PlanError::BadParam(format!("rbIO ng={ng} with np={np}")));
                }
            }
        }
        let mut b = PlanBuilder::new(self);
        match self.strategy {
            Strategy::OnePfpp => pfpp::build(&mut b),
            Strategy::CoIo {
                nf,
                aggregator_ratio,
            } => coio::build(&mut b, nf, aggregator_ratio),
            Strategy::RbIo { ng, commit } => rbio_strategy::build(&mut b, ng, commit),
        }
        let plan = b.finish();
        validate(&plan.program, CoverageMode::ExactWrite).map_err(PlanError::Invalid)?;
        Ok(plan)
    }
}

/// Plan construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A strategy parameter is out of range.
    BadParam(String),
    /// The generated plan failed validation (a bug in the builder).
    Invalid(ValidateError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadParam(s) => write!(f, "bad parameter: {s}"),
            PlanError::Invalid(e) => write!(f, "generated plan invalid: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One output file of a plan, with the rank range it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanFile {
    /// Path relative to the checkpoint directory.
    pub name: String,
    /// First covered rank.
    pub r0: u32,
    /// One past the last covered rank.
    pub r1: u32,
}

/// Per-rank payload metadata: what sits in front of the packed field blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankPayloadMeta {
    /// Index into [`CheckpointPlan::plan_files`] of the file whose master
    /// header this rank materializes at payload offset 0 (file owners only).
    pub header_for_file: Option<usize>,
    /// Length of that header (0 for non-owners).
    pub header_len: u64,
}

/// A compiled, validated checkpoint plan.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// The per-rank op programs.
    pub program: Program,
    /// The data layout the plan was built from.
    pub layout: DataLayout,
    /// Application name in file headers.
    pub app: String,
    /// Checkpoint step.
    pub step: u64,
    /// Output files (indices match `program.files`).
    pub plan_files: Vec<PlanFile>,
    /// Per-rank payload metadata.
    pub payload_meta: Vec<RankPayloadMeta>,
    /// The strategy that produced this plan.
    pub strategy: Strategy,
}

impl CheckpointPlan {
    /// Total bytes this checkpoint writes (headers + field data).
    pub fn total_file_bytes(&self) -> u64 {
        self.program.files.iter().map(|f| f.size).sum()
    }
}

/// Split `0..np` into `k` contiguous groups with sizes differing by at most
/// one. Returns `(start, end)` pairs.
pub(crate) fn split_groups(np: u32, k: u32) -> Vec<(u32, u32)> {
    debug_assert!(k >= 1 && k <= np);
    let base = np / k;
    let rem = np % k;
    let mut out = Vec::with_capacity(k as usize);
    let mut start = 0;
    for i in 0..k {
        let len = base + u32::from(i < rem);
        out.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, np);
    out
}

/// The collective commit of one shared file — coIO's group files and
/// rbIO's `nf = 1` file alike: MPI-IO's two-phase write run among
/// `members`, whose first member owns the file's header.
///
/// The owner creates the file and writes the master header; all members
/// meet at a barrier and the rest open the file. Every member keeps its
/// `Open`: it models that member's share of the collective
/// `MPI_File_open`, a metadata open the simulator charges to each. Then
/// one two-phase collective per field of `per_field`, each followed by a
/// barrier — a field is committed before the next begins (§V-B) — or,
/// under [`Tuning::coalesce_fields`], one batched collective and one
/// barrier. Every member closes and the owner commits. Collective `k`
/// uses tag `tag_base + k`; aggregators' round buffers start at
/// `agg_staging_base` in their staging.
pub(crate) fn collective_commit(
    pb: &mut PlanBuilder<'_>,
    file: FileId,
    members: &[u32],
    aggregators: Vec<u32>,
    per_field: Vec<Vec<Contribution>>,
    agg_staging_base: u64,
    tag_base: u64,
) {
    let tuning = pb.spec.tuning;
    let owner = members[0];
    let hdr = pb.payload_base(owner);
    let comm = pb.b.comm(members.to_vec());
    pb.b.push(owner, Op::Open { file, create: true });
    pb.b.push(
        owner,
        Op::WriteAt {
            file,
            offset: 0,
            src: DataRef::Own { off: 0, len: hdr },
        },
    );
    pb.b.push_all(members.iter().copied(), Op::Barrier { comm });
    for &r in &members[1..] {
        pb.b.push(
            r,
            Op::Open {
                file,
                create: false,
            },
        );
    }
    let batches = if tuning.coalesce_fields {
        vec![per_field.into_iter().flatten().collect()]
    } else {
        per_field
    };
    for (k, contributions) in batches.into_iter().enumerate() {
        plan_collective_write(
            &mut pb.b,
            &CollectiveWrite {
                file,
                aggregators: aggregators.clone(),
                contributions,
                agg_staging_base,
            },
            &TwoPhaseConfig {
                domain: DomainConfig {
                    block_size: tuning.fs_block_size,
                    align: tuning.align_domains,
                },
                cb_buffer_size: tuning.cb_buffer_size,
                tag: tag_base + k as u64,
            },
        );
        pb.b.push_all(members.iter().copied(), Op::Barrier { comm });
    }
    for &r in members {
        pb.b.push(r, Op::Close { file });
    }
    // A rename while peers still hold (now-closed or soon-closed)
    // descriptors is fine on POSIX: their fds stay valid, only the name
    // moves.
    pb.b.push(owner, Op::Commit { file });
}

/// Shared state while a strategy assembles its plan.
pub(crate) struct PlanBuilder<'a> {
    pub(crate) spec: &'a CheckpointSpec,
    pub(crate) b: ProgramBuilder,
    pub(crate) plan_files: Vec<PlanFile>,
    pub(crate) payload_meta: Vec<RankPayloadMeta>,
}

impl<'a> PlanBuilder<'a> {
    fn new(spec: &'a CheckpointSpec) -> Self {
        let np = spec.layout.nranks();
        // Payload sizes start as bare field data; owners grow by header len
        // when a strategy assigns them a file.
        let payload: Vec<u64> = (0..np).map(|r| spec.layout.rank_payload_bytes(r)).collect();
        PlanBuilder {
            spec,
            b: ProgramBuilder::new(payload),
            plan_files: Vec::new(),
            payload_meta: vec![
                RankPayloadMeta {
                    header_for_file: None,
                    header_len: 0
                };
                np as usize
            ],
        }
    }

    /// Register an output file covering ranks `r0..r1`, owned (header-wise)
    /// by `owner`. Returns the plan file id.
    pub(crate) fn add_file(&mut self, r0: u32, r1: u32, owner: u32) -> FileId {
        let spec = self.spec;
        let name = format!("{}.{:05}.rbio", spec.prefix, self.plan_files.len());
        let size = format::file_size(&spec.layout, &spec.app, r0, r1);
        // Checkpoint files publish atomically: writes land in a `.tmp`
        // sibling and the owner's `Op::Commit` renames it into place.
        let id = self.b.file_atomic(name.clone(), size);
        self.plan_files.push(PlanFile { name, r0, r1 });
        let hlen = format::header_len(&spec.layout, &spec.app, r0, r1);
        let meta = &mut self.payload_meta[owner as usize];
        assert!(
            meta.header_for_file.is_none(),
            "rank {owner} already owns a file header"
        );
        meta.header_for_file = Some(self.plan_files.len() - 1);
        meta.header_len = hlen;
        id
    }

    /// Header length of the file owned by `rank` (0 when it owns none) —
    /// i.e. the offset of the rank's first field block inside its payload.
    pub(crate) fn payload_base(&self, rank: u32) -> u64 {
        self.payload_meta[rank as usize].header_len
    }

    fn finish(self) -> CheckpointPlan {
        // Grow owner payloads by their header bytes.
        let np = self.spec.layout.nranks();
        let mut payload: Vec<u64> = (0..np)
            .map(|r| self.spec.layout.rank_payload_bytes(r))
            .collect();
        for (r, meta) in self.payload_meta.iter().enumerate() {
            payload[r] += meta.header_len;
        }
        // ProgramBuilder was created with bare sizes; rebuild with the final
        // ones (ops were pushed with offsets that already assume the header
        // prefix, so only the size table changes).
        let mut program = self.b.build();
        program.payload = payload;
        CheckpointPlan {
            program,
            layout: self.spec.layout.clone(),
            app: self.spec.app.clone(),
            step: self.spec.step,
            plan_files: self.plan_files,
            payload_meta: self.payload_meta,
            strategy: self.spec.strategy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_groups_balanced() {
        assert_eq!(split_groups(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(split_groups(8, 4), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(split_groups(3, 3), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(split_groups(5, 1), vec![(0, 5)]);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::OnePfpp.label(), "1PFPP");
        assert_eq!(Strategy::coio(8).label(), "coIO nf=8");
        assert_eq!(Strategy::rbio(4).label(), "rbIO ng=4 nf=ng");
        assert_eq!(
            Strategy::RbIo {
                ng: 4,
                commit: RbIoCommit::CollectiveShared
            }
            .label(),
            "rbIO ng=4 nf=1"
        );
    }

    #[test]
    fn bad_params_rejected() {
        let layout = DataLayout::uniform(8, &[("x", 10)]);
        let spec = CheckpointSpec::new(layout.clone(), "t").strategy(Strategy::coio(0));
        assert!(matches!(spec.plan(), Err(PlanError::BadParam(_))));
        let spec = CheckpointSpec::new(layout.clone(), "t").strategy(Strategy::coio(9));
        assert!(matches!(spec.plan(), Err(PlanError::BadParam(_))));
        let spec = CheckpointSpec::new(layout.clone(), "t").strategy(Strategy::rbio(0));
        assert!(matches!(spec.plan(), Err(PlanError::BadParam(_))));
        let spec = CheckpointSpec::new(layout, "t").strategy(Strategy::CoIo {
            nf: 2,
            aggregator_ratio: 0,
        });
        assert!(matches!(spec.plan(), Err(PlanError::BadParam(_))));
    }
}
