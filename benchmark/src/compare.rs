//! `compare A.json B.json`: apply `BENCHMARK.json`'s per-metric bounds to
//! two result files — one row per (workload, metric).

use std::collections::BTreeMap;

use rbio_plan::json::{self, Json};

use crate::stats::{median, spread};

/// How one (workload, metric) pair compares.
#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread on either side is wider than the bound, so a
    /// move of that size cannot be told from noise.
    Unresolved,
}

/// One end-to-end metric's gate from `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Bound {
                name: text("name")?.to_owned(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// `workload → metric → one value per untraced run` of a result file.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn samples(result_json: &str) -> Result<Samples, String> {
    let doc = json::parse(result_json).map_err(|e| format!("result file: {e}"))?;
    let mut out = Samples::new();
    for run in doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file: no runs array")?
    {
        if run.get("trace").and_then(Json::as_u64) != Some(0) {
            continue; // end-to-end metrics come from the untraced pass only
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            out.entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let too_wide = |xs: &[f64]| spread(xs).is_some_and(|s| s > bound.bound);
    if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worse_by(median(a), median(b), bound.higher_is_better) > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print the table; returns how many pairs regressed or are unresolved.
pub fn run(benchmark_json: &str, a_json: &str, b_json: &str) -> Result<usize, String> {
    let bounds = bounds(benchmark_json)?;
    let (a, b) = (samples(a_json)?, samples(b_json)?);
    println!(
        "{:<16} {:<27} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "spread", "bound"
    );
    let mut not_ok = 0;
    for (workload, a_metrics) in &a {
        for bound in &bounds {
            let (Some(xa), Some(xb)) = (
                a_metrics.get(&bound.name),
                b.get(workload).and_then(|m| m.get(&bound.name)),
            ) else {
                return Err(format!("{workload}/{}: missing from one file", bound.name));
            };
            let v = verdict(xa, xb, bound);
            not_ok += usize::from(v != Verdict::Ok);
            let (ma, mb) = (median(xa), median(xb));
            let widest = spread(xa).into_iter().chain(spread(xb)).fold(0.0, f64::max);
            println!(
                "{workload:<16} {:<27} {ma:>12.5} {mb:>12.5} {:>9.4} {:>7.1}% {:>6.1}%  {}",
                bound.name,
                if ma != 0.0 { mb / ma } else { 0.0 },
                widest * 100.0,
                bound.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("B/A is B's median over A's median (base: A); spread is the wider of the two sides' inter-quartile distance over median.");
    Ok(not_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: b,
        }
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(10.0, 8.0, true) - 0.2).abs() < 1e-12);
        assert!((worse_by(10.0, 8.0, false) + 0.2).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
        assert_eq!(worse_by(0.0, 1.0, false), f64::INFINITY);
    }

    #[test]
    fn verdicts() {
        let steady_a = [10.0, 10.1, 9.9, 10.0];
        let steady_b = [9.5, 9.6, 9.4, 9.5];
        let slow_b = [8.0, 8.1, 7.9, 8.0];
        let noisy = [5.0, 10.0, 15.0, 10.0];
        assert_eq!(
            verdict(&steady_a, &steady_b, &bound(true, 0.1)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady_a, &slow_b, &bound(true, 0.1)),
            Verdict::Regressed
        );
        // Lower-is-better: a drop is an improvement.
        assert_eq!(verdict(&steady_a, &slow_b, &bound(false, 0.1)), Verdict::Ok);
        assert_eq!(
            verdict(&steady_a, &noisy, &bound(true, 0.1)),
            Verdict::Unresolved
        );
        // Single runs have no spread: only the medians are compared.
        assert_eq!(
            verdict(&[10.0], &[8.0], &bound(true, 0.1)),
            Verdict::Regressed
        );
        // An exact count: any increase past the (tiny) bound regresses.
        assert_eq!(
            verdict(&[1.0, 1.0], &[1.5, 1.5], &bound(false, 0.01)),
            Verdict::Regressed
        );
    }

    #[test]
    fn reads_bounds_and_untraced_samples() {
        let b = bounds(
            r#"{"end_to_end":[{"name":"ckpt_gbps","unit":"GB/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            (b[0].name.as_str(), b[0].higher_is_better, b[0].bound),
            ("ckpt_gbps", true, 0.1)
        );
        let s = samples(
            r#"{"runs":[
                {"workload":"w","trace":0,"metrics":{"ckpt_gbps":{"value":1.5,"unit":"GB/s","n":3}}},
                {"workload":"w","trace":0,"metrics":{"ckpt_gbps":{"value":2.5,"unit":"GB/s","n":3}}},
                {"workload":"w","trace":1,"metrics":{"exec.execute_ms":{"value":9,"unit":"ms","n":3}}}]}"#,
        )
        .unwrap();
        assert_eq!(s["w"]["ckpt_gbps"], vec![1.5, 2.5]);
        assert_eq!(s["w"].len(), 1);
    }
}
