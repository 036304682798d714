//! The names this benchmark reports. `BENCHMARK.json` lists the same
//! names, units and directions; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ckpt_gbps", "GB/s"),
    ("durable_gbps", "GB/s"),
    ("restore_gbps", "GB/s"),
    ("goodput_gbps", "GB/s"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`). A metric of a
/// layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("strategy.plan_ms", "ms"),
    ("strategy.plan_ops", "count"),
    ("strategy.plan_files", "count"),
    ("format.materialize_ms", "ms"),
    ("format.materialize_gbps", "GB/s"),
    ("format.crc32c_gbps", "GB/s"),
    ("exec.execute_ms", "ms"),
    ("exec.rank_time_p50_ms", "ms"),
    ("exec.rank_time_p90_ms", "ms"),
    ("exec.rank_time_max_ms", "ms"),
    ("exec.worker_time_p50_ms", "ms"),
    ("exec.bytes_sent", "count"),
    ("exec.retries", "count"),
    ("exec.send_backpressure_blocks", "count"),
    ("rt.run_ms", "ms"),
    ("rt.rank_time_p50_ms", "ms"),
    ("rt.rank_time_p90_ms", "ms"),
    ("rt.rank_time_max_ms", "ms"),
    ("pipeline.submit_us_p50", "us"),
    ("pipeline.submit_us_p90", "us"),
    ("pipeline.drain_ms", "ms"),
    ("pipeline.jobs_per_s", "1/s"),
    ("backend.threaded_write_gbps", "GB/s"),
    ("backend.ring_write_gbps", "GB/s"),
    ("backend.read_at_gbps", "GB/s"),
    ("backend.retries", "count"),
    ("commit.commit_file_ms", "ms"),
    ("commit.verify_gbps", "GB/s"),
    ("commit.commit_text_ms", "ms"),
    ("tier.slab_create_ms", "ms"),
    ("tier.stage_append_gbps", "GB/s"),
    ("tier.drain_ms", "ms"),
    ("tier.staged_bytes", "count"),
    ("tier.drained_bytes", "count"),
    ("tier.restores", "count"),
    ("manager.checkpoint_ms", "ms"),
    ("manager.overhead_ms", "ms"),
    ("manager.wait_durable_ms", "ms"),
    ("manager.restore_latest_ms", "ms"),
    ("manager.verify_ms", "ms"),
    ("manager.gc_orphans", "count"),
    ("restart.read_checkpoint_ms", "ms"),
    ("restart.read_gbps", "GB/s"),
    ("restart.scan_ms", "ms"),
    ("service.admit_us_p50", "us"),
    ("service.write_call_us_p50", "us"),
    ("service.write_call_us_p90", "us"),
    ("service.commit_ms", "ms"),
    ("service.restore_ms_p50", "ms"),
    ("service.restore_ms_p90", "ms"),
    ("service.throttle_waits", "count"),
    ("service.preemptions", "count"),
    ("service.rejected", "count"),
    ("service.tenant_bytes_max_over_min", "ratio"),
    ("service.goodput_q256k_gbps", "GB/s"),
    ("buf.copies_per_byte", "ratio"),
    ("buf.bytes_copied", "count"),
    ("buf.pool_copy_gbps", "GB/s"),
    ("scrub.scrub_gbps", "GB/s"),
    ("scrub.damage_found", "count"),
    ("ceiling.memcpy_gbps", "GB/s"),
    ("ceiling.pwrite_1_gbps", "GB/s"),
    ("ceiling.pwrite_n_gbps", "GB/s"),
    ("ceiling.read_gbps", "GB/s"),
    ("driver.ckpt_frac_of_ceiling", "ratio"),
    ("driver.restore_frac_of_ceiling", "ratio"),
    ("driver.ckpt_p90_ms", "ms"),
    ("driver.ckpt_max_ms", "ms"),
    ("driver.durable_p90_ms", "ms"),
    ("driver.goodput_mean_gbps", "GB/s"),
    ("driver.allocs_per_gen", "count"),
    ("driver.alloc_bytes_per_gen", "count"),
    ("driver.write_syscalls_per_mib", "1/MiB"),
    ("driver.read_syscalls_per_mib", "1/MiB"),
    ("driver.trace_overhead_frac", "ratio"),
    ("driver.failed_frac", "ratio"),
];

/// One reported number: its value and how many samples stand behind it
/// (1 for a count or a single measurement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

/// A full set of one table's metrics, every name present exactly once.
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, Value>,
}

impl MetricSet {
    /// Every metric of `table` at 0 with no samples.
    pub fn zeroed(table: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet {
            table,
            values: table
                .iter()
                .map(|(name, _)| (*name, Value { value: 0.0, n: 0 }))
                .collect(),
        }
    }

    /// Set `name`; a name outside the table is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        *slot = Value { value, n };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name].value
    }

    /// `(name, unit, value)` in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, Value)> + '_ {
        self.table
            .iter()
            .map(|(name, unit)| (*name, *unit, self.values[name]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbio_plan::json;

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, or the driver rejects a run's output.
    #[test]
    fn tables_agree_with_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|a| a.as_arr())
                .expect("metric array")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("string")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|a| a.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn metric_set_holds_every_name_once() {
        let mut m = MetricSet::zeroed(END_TO_END);
        m.set("setup_s", 1.5, 3);
        assert_eq!(m.get("setup_s"), 1.5);
        assert_eq!(m.rows().count(), END_TO_END.len());
        assert_eq!(
            m.rows().next(),
            Some(("setup_s", "s", Value { value: 1.5, n: 3 }))
        );
    }
}
