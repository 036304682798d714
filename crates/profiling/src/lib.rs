//! Darshan-style I/O instrumentation.
//!
//! The paper verifies its tuning with two kinds of profile data: per-rank
//! I/O time distributions (Figs. 9–11) and Darshan write-activity plots
//! (Fig. 12). This crate collects the same information from a simulated (or
//! real) run: a [`Timeline`] of per-rank op intervals, from which the
//! distribution series, activity Gantt rows, and counter summaries are
//! derived.

#![forbid(unsafe_code)]

pub mod counters;

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

use rbio_sim::SimTime;

/// The kind of operation an interval covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// File open/create (metadata).
    Open,
    /// File write.
    Write,
    /// File read.
    Read,
    /// File close (metadata).
    Close,
    /// Message send (handoff portion).
    Send,
    /// Message receive (blocked portion).
    Recv,
    /// Barrier wait.
    Barrier,
    /// Local memory copy.
    Pack,
    /// Application computation.
    Compute,
    /// Atomic checkpoint publication (footer + rename, metadata).
    Commit,
    /// A write attempt repeated after a transient error.
    Retry,
    /// Background work (flush/close/commit) a pipelined writer overlaps
    /// with its foreground aggregation; the interval covers the hidden
    /// portion, so writer busy time = Write + Overlap while the rank's
    /// critical path only carries Write.
    Overlap,
}

impl OpKind {
    /// All kinds, for iteration in reports.
    pub(crate) const ALL: [OpKind; 12] = [
        OpKind::Open,
        OpKind::Write,
        OpKind::Read,
        OpKind::Close,
        OpKind::Send,
        OpKind::Recv,
        OpKind::Barrier,
        OpKind::Pack,
        OpKind::Compute,
        OpKind::Commit,
        OpKind::Retry,
        OpKind::Overlap,
    ];

    /// Short label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Close => "close",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
            OpKind::Barrier => "barrier",
            OpKind::Pack => "pack",
            OpKind::Compute => "compute",
            OpKind::Commit => "commit",
            OpKind::Retry => "retry",
            OpKind::Overlap => "overlap",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Rank the op ran on.
    pub rank: u32,
    /// Kind.
    pub kind: OpKind,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Bytes moved (0 for barriers etc.).
    pub bytes: u64,
}

/// One write burst in a Fig.-12-style activity row: `(start, end, bytes)`.
pub(crate) type WriteInterval = (SimTime, SimTime, u64);

/// A run's recorded intervals plus the derived views the paper's plots
/// need.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    intervals: Vec<Interval>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one interval.
    pub fn record(&mut self, rank: u32, kind: OpKind, start: SimTime, end: SimTime, bytes: u64) {
        debug_assert!(end >= start);
        self.intervals.push(Interval {
            rank,
            kind,
            start,
            end,
            bytes,
        });
    }

    /// All intervals, in recording order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Per-rank completion time of the last interval (Figs. 9–11 plot this
    /// per rank). Ranks with no intervals report `SimTime::ZERO`.
    pub fn per_rank_finish(&self, nranks: u32) -> Vec<SimTime> {
        let mut out = vec![SimTime::ZERO; nranks as usize];
        for iv in &self.intervals {
            let slot = &mut out[iv.rank as usize];
            *slot = (*slot).max(iv.end);
        }
        out
    }

    /// Total bytes moved by ops of `kind`.
    pub fn bytes_of(&self, kind: OpKind) -> u64 {
        self.intervals
            .iter()
            .filter(|iv| iv.kind == kind)
            .map(|iv| iv.bytes)
            .sum()
    }

    /// Number of ops of `kind`.
    pub fn count_of(&self, kind: OpKind) -> u64 {
        self.intervals.iter().filter(|iv| iv.kind == kind).count() as u64
    }

    /// Busy time (sum of interval lengths) of `kind` on `rank`.
    pub fn busy_of(&self, rank: u32, kind: OpKind) -> SimTime {
        self.intervals
            .iter()
            .filter(|iv| iv.rank == rank && iv.kind == kind)
            .map(|iv| iv.end - iv.start)
            .sum()
    }

    /// Duration of the longest single interval of `kind` across all ranks
    /// (`SimTime::ZERO` when none was recorded). The perceived-bandwidth
    /// counters use this for the slowest observed handoff.
    pub fn longest_of(&self, kind: OpKind) -> SimTime {
        self.intervals
            .iter()
            .filter(|iv| iv.kind == kind)
            .map(|iv| iv.end - iv.start)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Write-activity rows (Fig. 12): for each rank that wrote, the sorted
    /// list of its write intervals `(start, end, bytes)`.
    pub fn write_activity(&self) -> Vec<(u32, Vec<WriteInterval>)> {
        let mut per_rank: std::collections::BTreeMap<u32, Vec<WriteInterval>> =
            std::collections::BTreeMap::new();
        for iv in &self.intervals {
            if iv.kind == OpKind::Write {
                per_rank
                    .entry(iv.rank)
                    .or_default()
                    .push((iv.start, iv.end, iv.bytes));
            }
        }
        per_rank
            .into_iter()
            .map(|(r, mut v)| {
                v.sort_by_key(|&(s, ..)| s);
                (r, v)
            })
            .collect()
    }

    /// Counter summary table as text (a Darshan-log-like digest).
    pub fn counter_report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>16} {:>14}",
            "op", "count", "bytes", "busy (s)"
        );
        for kind in OpKind::ALL {
            let count = self.count_of(kind);
            if count == 0 {
                continue;
            }
            let bytes = self.bytes_of(kind);
            let busy: SimTime = self
                .intervals
                .iter()
                .filter(|iv| iv.kind == kind)
                .map(|iv| iv.end - iv.start)
                .sum();
            let _ = writeln!(
                s,
                "{:<10} {:>10} {:>16} {:>14.6}",
                kind.label(),
                count,
                bytes,
                busy.as_secs_f64()
            );
        }
        s
    }

    /// ASCII activity strip for Fig.-12-style visual inspection: one row
    /// per writing rank, `cols` buckets from t=0 to `horizon`, `#` where the
    /// rank was writing. Rows are capped at `max_rows` (evenly sampled).
    pub fn activity_ascii(&self, horizon: SimTime, cols: usize, max_rows: usize) -> String {
        let rows = self.write_activity();
        let n = rows.len();
        if n == 0 || cols == 0 {
            return String::new();
        }
        let step = n.div_ceil(max_rows.max(1));
        let mut out = String::new();
        let h = horizon.as_secs_f64().max(1e-12);
        for (rank, ivs) in rows.iter().step_by(step) {
            let mut line = vec![b'.'; cols];
            for &(s, e, _) in ivs {
                let c0 = ((s.as_secs_f64() / h) * cols as f64) as usize;
                let c1 = ((e.as_secs_f64() / h) * cols as f64).ceil() as usize;
                for c in line.iter_mut().take(c1.min(cols)).skip(c0.min(cols)) {
                    *c = b'#';
                }
            }
            let _ = writeln!(
                out,
                "{:>8} |{}|",
                rank,
                String::from_utf8(line).expect("ascii")
            );
        }
        out
    }
}

impl OpKind {
    /// Parse a [`OpKind::label`] back.
    pub(crate) fn from_label(s: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Serialize a timeline as a "darshan-lite" CSV log:
/// `rank,op,start_ns,end_ns,bytes` per line, with a header row. The format
/// is stable and diff-friendly so logs can be archived next to experiment
/// results.
pub fn write_csv(tl: &Timeline, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "rank,op,start_ns,end_ns,bytes")?;
    for iv in tl.intervals() {
        writeln!(
            w,
            "{},{},{},{},{}",
            iv.rank,
            iv.kind.label(),
            iv.start.as_nanos(),
            iv.end.as_nanos(),
            iv.bytes
        )?;
    }
    Ok(())
}

/// Parse a CSV log written by [`write_csv`].
pub fn read_csv(r: impl BufRead) -> io::Result<Timeline> {
    let mut tl = Timeline::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.is_empty() {
            continue; // header
        }
        let mut f = line.split(',');
        let bad = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {line}", lineno + 1),
            )
        };
        let rank: u32 = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
        let kind = f.next().and_then(OpKind::from_label).ok_or_else(bad)?;
        let start: u64 = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
        let end: u64 = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
        let bytes: u64 = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
        if end < start {
            return Err(bad());
        }
        tl.record(
            rank,
            kind,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
            bytes,
        );
    }
    Ok(tl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample() -> Timeline {
        let mut tl = Timeline::new();
        tl.record(0, OpKind::Open, t(0), t(1), 0);
        tl.record(0, OpKind::Write, t(1), t(5), 1000);
        tl.record(0, OpKind::Write, t(6), t(8), 500);
        tl.record(0, OpKind::Close, t(8), t(9), 0);
        tl.record(1, OpKind::Send, t(0), t(2), 1500);
        tl
    }

    #[test]
    fn per_rank_finish_takes_max_end() {
        let tl = sample();
        let fin = tl.per_rank_finish(3);
        assert_eq!(fin[0], t(9));
        assert_eq!(fin[1], t(2));
        assert_eq!(fin[2], SimTime::ZERO);
    }

    #[test]
    fn counters() {
        let tl = sample();
        assert_eq!(tl.count_of(OpKind::Write), 2);
        assert_eq!(tl.bytes_of(OpKind::Write), 1500);
        assert_eq!(tl.bytes_of(OpKind::Send), 1500);
        assert_eq!(tl.busy_of(0, OpKind::Write), t(6));
        assert_eq!(tl.count_of(OpKind::Read), 0);
        assert_eq!(tl.len(), 5);
        assert!(!tl.is_empty());
    }

    #[test]
    fn write_activity_rows_sorted() {
        let mut tl = sample();
        tl.record(0, OpKind::Write, t(0), t(1), 1); // out of order on purpose
        let act = tl.write_activity();
        assert_eq!(act.len(), 1);
        let (rank, ivs) = &act[0];
        assert_eq!(*rank, 0);
        assert_eq!(ivs.len(), 3);
        assert!(ivs.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn counter_report_mentions_active_kinds_only() {
        let tl = sample();
        let rep = tl.counter_report();
        assert!(rep.contains("write"));
        assert!(rep.contains("send"));
        assert!(!rep.contains("read"));
    }

    #[test]
    fn ascii_activity_marks_busy_buckets() {
        let tl = sample();
        let art = tl.activity_ascii(t(10), 10, 10);
        // Rank 0 writes in [1,5) and [6,8) out of 10ms -> buckets 1-4 and 6-7.
        let line = art.lines().next().unwrap();
        assert!(line.contains('#'));
        assert!(line.starts_with("       0 |"));
        let cells: Vec<char> = line.chars().skip(10).take(10).collect();
        assert_eq!(cells[0], '.');
        assert_eq!(cells[2], '#');
        assert_eq!(cells[5], '.');
        assert_eq!(cells[6], '#');
    }

    #[test]
    fn csv_round_trip() {
        let tl = sample();
        let mut buf = Vec::new();
        write_csv(&tl, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("rank,op,start_ns,end_ns,bytes\n"));
        assert_eq!(text.lines().count(), 1 + tl.len());
        let back = read_csv(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.len(), tl.len());
        assert_eq!(back.bytes_of(OpKind::Write), tl.bytes_of(OpKind::Write));
        assert_eq!(back.per_rank_finish(3), tl.per_rank_finish(3));
    }

    #[test]
    fn csv_rejects_garbage() {
        let bad = "rank,op,start_ns,end_ns,bytes\n1,write,10,5,0\n";
        assert!(read_csv(std::io::BufReader::new(bad.as_bytes())).is_err());
        let bad2 = "rank,op,start_ns,end_ns,bytes\n1,frobnicate,0,5,0\n";
        assert!(read_csv(std::io::BufReader::new(bad2.as_bytes())).is_err());
    }

    #[test]
    fn longest_of_picks_the_slowest_single_interval() {
        let tl = sample();
        assert_eq!(tl.longest_of(OpKind::Write), t(4)); // [1,5)
        assert_eq!(tl.longest_of(OpKind::Send), t(2));
        assert_eq!(tl.longest_of(OpKind::Overlap), SimTime::ZERO);
    }

    #[test]
    fn overlap_kind_round_trips_through_csv() {
        let mut tl = Timeline::new();
        tl.record(3, OpKind::Overlap, t(2), t(7), 4096);
        let mut buf = Vec::new();
        write_csv(&tl, &mut buf).unwrap();
        let back = read_csv(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.count_of(OpKind::Overlap), 1);
        assert_eq!(back.bytes_of(OpKind::Overlap), 4096);
        assert_eq!(back.busy_of(3, OpKind::Overlap), t(5));
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in OpKind::ALL {
            assert_eq!(OpKind::from_label(k.label()), Some(k));
        }
        assert_eq!(OpKind::from_label("nope"), None);
    }

    #[test]
    fn empty_timeline_is_safe() {
        let tl = Timeline::new();
        assert!(tl.is_empty());
        assert_eq!(tl.per_rank_finish(2), vec![SimTime::ZERO; 2]);
        assert_eq!(tl.activity_ascii(t(1), 10, 5), "");
    }
}
