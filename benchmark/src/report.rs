//! From one run's samples to named metrics, and how they are printed.

use rbio_plan::json::escape;

use crate::manager_campaign;
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::stats::{gbps, max, median, midmean, percentile};
use crate::sysinfo;
use crate::workload::{Measured, Phase, RESTORE_EVERY};

const MIB: f64 = (1 << 20) as f64;

/// The end-to-end metrics (untraced pass): the rates are user bytes ÷
/// the midmean (see `stats::midmean`) of the window's samples.
pub fn end_to_end(m: &Measured) -> MetricSet {
    let ph = &m.phases[0];
    let mut out = MetricSet::zeroed(END_TO_END);
    out.set("setup_s", median(&m.setup_s), m.setup_s.len());
    out.set(
        "ckpt_gbps",
        gbps(m.ckpt_bytes, midmean(&ph.ckpt_s)),
        ph.ckpt_s.len(),
    );
    out.set(
        "durable_gbps",
        gbps(m.ckpt_bytes, midmean(&ph.durable_s)),
        ph.durable_s.len(),
    );
    out.set(
        "restore_gbps",
        gbps(m.ckpt_bytes, midmean(&ph.restore_s)),
        ph.restore_s.len(),
    );
    out.set("goodput_gbps", goodput(m, ph), ph.cycle_s.len());
    out.set("stored_bytes_per_user_byte", m.stored_ratio, 1);
    out.set("peak_rss_mib", sysinfo::peak_rss_mib(), 1);
    out
}

/// Sustained rate with everything the loop does included: user bytes of
/// one restore cycle ÷ the typical cycle's wall time, times the loops
/// running side by side. Typical cycle, not bytes ÷ window: this box's
/// disk stalls for seconds now and then, and one stall in a window moves
/// a plain mean by a tenth.
fn goodput(m: &Measured, ph: &Phase) -> f64 {
    m.streams as f64 * gbps(RESTORE_EVERY * m.ckpt_bytes, midmean(&ph.cycle_s))
}

/// User bytes made durable in the segment ÷ its wall seconds.
fn goodput_mean(m: &Measured, ph: &Phase) -> f64 {
    gbps(m.ckpt_bytes * ph.durable_s.len() as u64, ph.window_s)
}

/// The per-layer metrics that come from spans, counters and the
/// workload's own counts (traced pass). Probe-backed metrics are filled
/// in afterwards by `probes::run_all`, ceiling ratios by
/// [`ceiling_ratios`].
pub fn per_layer(m: &Measured) -> MetricSet {
    let untraced = &m.phases[0];
    let ph = m.phases.last().expect("a traced run has two segments");
    let tr = &m.tracer;
    let mut out = MetricSet::zeroed(PER_LAYER);
    let gens = ph.ckpt_s.len().max(1) as f64;

    // Median span duration, optionally scaled (ms → us).
    let mut span = |metric: &str, name: &str, scale: f64, p: Option<f64>| {
        let d = tr.durations_ms(name);
        let v = p.map_or_else(|| median(&d), |p| percentile(&d, p));
        out.set(metric, v * scale, d.len());
        v
    };
    span("strategy.plan_ms", "strategy.plan", 1.0, None);
    let materialize_ms = span("format.materialize_ms", "format.materialize", 1.0, None);
    span("exec.execute_ms", "exec.execute", 1.0, None);
    span("exec.worker_time_p50_ms", "exec.worker_rank", 1.0, None);
    span("rt.run_ms", "rt.run", 1.0, None);
    span("rt.rank_time_p50_ms", "rt.checkpoint_rank", 1.0, None);
    span("rt.rank_time_p90_ms", "rt.checkpoint_rank", 1.0, Some(90.0));
    span("manager.checkpoint_ms", "manager.checkpoint", 1.0, None);
    span("manager.wait_durable_ms", "manager.wait_durable", 1.0, None);
    span(
        "manager.restore_latest_ms",
        "manager.restore_latest",
        1.0,
        None,
    );
    span("manager.verify_ms", "manager.verify", 1.0, None);
    let read_ms = span(
        "restart.read_checkpoint_ms",
        "restart.read_checkpoint",
        1.0,
        None,
    );
    span("restart.scan_ms", "restart.scan", 1.0, None);
    span("service.admit_us_p50", "service.open", 1e3, None);
    span("service.write_call_us_p50", "service.write", 1e3, None);
    span(
        "service.write_call_us_p90",
        "service.write",
        1e3,
        Some(90.0),
    );
    span("service.commit_ms", "service.commit", 1.0, None);
    span("service.restore_ms_p50", "service.restore", 1.0, None);
    span("service.restore_ms_p90", "service.restore", 1.0, Some(90.0));
    out.set(
        "format.materialize_gbps",
        gbps(m.ckpt_bytes, materialize_ms / 1e3),
        1,
    );
    out.set("restart.read_gbps", gbps(m.ckpt_bytes, read_ms / 1e3), 1);
    out.set("manager.overhead_ms", manager_campaign::overhead_ms(tr), 1);

    // Per-rank I/O time distribution (the paper's Figs. 9–11): all
    // ranks of all traced generations pooled; "max" is the median over
    // generations of the slowest rank, comparable with execute/run time.
    let mut exec_ranks = tr.durations_ms("exec.writer_rank");
    exec_ranks.extend(tr.durations_ms("exec.worker_rank"));
    out.set(
        "exec.rank_time_p50_ms",
        median(&exec_ranks),
        exec_ranks.len(),
    );
    out.set(
        "exec.rank_time_p90_ms",
        percentile(&exec_ranks, 90.0),
        exec_ranks.len(),
    );
    let slowest = tr.max_per_parent_ms(&["exec.writer_rank", "exec.worker_rank"]);
    out.set("exec.rank_time_max_ms", median(&slowest), slowest.len());
    let slowest = tr.max_per_parent_ms(&["rt.checkpoint_rank"]);
    out.set("rt.rank_time_max_ms", median(&slowest), slowest.len());

    // Program-side counters over the traced segment.
    let d = ph
        .delta
        .as_ref()
        .expect("a finished segment has its counters");
    let user_bytes = gens * m.ckpt_bytes as f64;
    out.set(
        "exec.send_backpressure_blocks",
        d.service.send_backpressure_blocks as f64,
        1,
    );
    out.set("service.throttle_waits", d.service.throttle_waits as f64, 1);
    out.set("service.preemptions", d.service.preemptions as f64, 1);
    out.set("service.rejected", d.service.rejected as f64, 1);
    let drain_ms: Vec<f64> = ph
        .durable_s
        .iter()
        .zip(&ph.ckpt_s)
        .map(|(d, c)| (d - c) * 1e3)
        .collect();
    out.set("tier.drain_ms", median(&drain_ms), drain_ms.len());
    out.set("tier.staged_bytes", d.tier.staged_bytes as f64 / gens, 1);
    out.set("tier.drained_bytes", d.tier.drained_bytes as f64 / gens, 1);
    out.set("tier.restores", d.tier.tier_restores as f64, 1);
    out.set("manager.gc_orphans", d.scrub.gc_orphans as f64, 1);
    out.set("buf.bytes_copied", d.copy.bytes_copied as f64 / gens, 1);
    out.set(
        "buf.copies_per_byte",
        d.copy.bytes_copied as f64 / user_bytes,
        1,
    );
    out.set(
        "scrub.scrub_gbps",
        gbps(m.scrub.bytes_verified, m.scrub.seconds),
        1,
    );
    out.set("scrub.damage_found", m.scrub.damage as f64, 1);

    // The driver's own view of the traced segment.
    let ms: Vec<f64> = ph.ckpt_s.iter().map(|s| s * 1e3).collect();
    let durable_ms: Vec<f64> = ph.durable_s.iter().map(|s| s * 1e3).collect();
    out.set("driver.ckpt_p90_ms", percentile(&ms, 90.0), ms.len());
    out.set("driver.ckpt_max_ms", max(&ms), ms.len());
    out.set(
        "driver.durable_p90_ms",
        percentile(&durable_ms, 90.0),
        durable_ms.len(),
    );
    out.set("driver.goodput_mean_gbps", goodput_mean(m, ph), ms.len());
    out.set("driver.allocs_per_gen", d.allocs.0 as f64 / gens, 1);
    out.set("driver.alloc_bytes_per_gen", d.allocs.1 as f64 / gens, 1);
    out.set(
        "driver.write_syscalls_per_mib",
        d.syscalls.1 as f64 / (user_bytes / MIB),
        1,
    );
    if !ph.restore_s.is_empty() {
        let restored_mib = ph.restore_s.len() as f64 * m.ckpt_bytes as f64 / MIB;
        out.set(
            "driver.read_syscalls_per_mib",
            d.syscalls.0 as f64 / restored_mib,
            1,
        );
    }
    let base = midmean(&untraced.ckpt_s);
    if base > 0.0 {
        out.set(
            "driver.trace_overhead_frac",
            midmean(&ph.ckpt_s) / base - 1.0,
            ph.ckpt_s.len().min(untraced.ckpt_s.len()),
        );
    }
    for (name, v) in &m.counts {
        out.set(name, *v, 1);
    }
    out
}

/// Checkpoint and restore rate of the traced segment as a share of the
/// ceiling the probes measured on the same directory — the portable
/// ratios (they carry across machines where GB/s do not).
pub fn ceiling_ratios(m: &Measured, out: &mut MetricSet) {
    let ph = m.phases.last().expect("segments");
    let (pwrite, read) = (
        out.get("ceiling.pwrite_n_gbps"),
        out.get("ceiling.read_gbps"),
    );
    if pwrite > 0.0 {
        let ckpt = gbps(m.ckpt_bytes, midmean(&ph.ckpt_s));
        out.set(
            "driver.ckpt_frac_of_ceiling",
            ckpt / pwrite,
            ph.ckpt_s.len(),
        );
    }
    if read > 0.0 {
        let restore = gbps(m.ckpt_bytes, midmean(&ph.restore_s));
        out.set(
            "driver.restore_frac_of_ceiling",
            restore / read,
            ph.restore_s.len(),
        );
    }
}

/// One line per metric: name, value, unit, sample count.
pub fn print_table(title: &str, set: &MetricSet) {
    println!("{title}");
    for (name, unit, v) in set.rows() {
        println!("  {name:<34} {:>16.6} {unit:<6} n={}", v.value, v.n);
    }
}

fn json_number(v: f64) -> String {
    // Rust prints the shortest digits that round-trip: every digit
    // measured, no padding. JSON has no NaN/inf; neither is a result.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name":{"value":..,"unit":".."},...}` — the contract's shape; with
/// `counts`, the sample count `n` beside each value as well (the run and
/// result files `compare` reads).
pub fn metrics_json(set: &MetricSet, counts: bool) -> String {
    let body: Vec<String> = set
        .rows()
        .map(|(name, unit, v)| {
            let n = if counts {
                format!(",\"n\":{}", v.n)
            } else {
                String::new()
            };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"{n}}}",
                escape(name),
                json_number(v.value),
                escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}
