//! The committed perf trajectory: `BENCH_trajectory.json` at the repo
//! root holds one record per `benchmark/run.sh compare` set a change was
//! judged by — the parent and change medians of every (workload,
//! end-to-end metric) pair, their spreads, the verdict, and the claimed
//! row if the change claimed one. The parent medians are from the same
//! session as the change's, so a record's ratios carry across the drift
//! of the box between sessions even where its absolute numbers do not.
//!
//! Usage, from the repo root:
//!
//! ```text
//! trajectory check
//! trajectory render
//! trajectory append --pr N --seeds FIRST-LAST [--set K] [--claim WORKLOAD/METRIC]
//!                   [--parent-commit P] PARENT.json CHANGE.json
//! ```
//!
//! `check` validates `BENCH_trajectory.json`: the schema, records in
//! increasing PR order (sets of one PR in increasing set order), every
//! verdict following from its row's numbers under the record's gates,
//! and every claimed row `ok`. `render` prints, per workload and
//! end-to-end metric, the chain of same-session ratios across the
//! records multiplied through, with an error bar from the chained
//! spreads. `append` reads the two result files
//! `run.sh compare` reads (each the untraced runs of every pair on one
//! side), applies `BENCHMARK.json`'s gates exactly as `compare` does, and
//! appends the record with a `null` commit: it lands in the commit that
//! adds it. `--parent-commit` defaults to the parent runs' recorded
//! commit.

use std::collections::BTreeMap;
use std::process::ExitCode;

use rbio_plan::json::{self, escape, Json};

const SCHEMA_VERSION: u64 = 1;
const FILE: &str = "BENCH_trajectory.json";
const VERDICTS: [&str; 3] = ["ok", "regressed", "unresolved"];

/// One end-to-end metric's gate, as `BENCHMARK.json` states it.
#[derive(Clone, Debug, PartialEq)]
struct Gate {
    metric: String,
    higher_is_better: bool,
    bound: f64,
}

/// One (workload, metric) row of a compare set.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    workload: String,
    metric: String,
    parent: f64,
    change: f64,
    /// `change / parent`; 0 at a zero parent, as `compare` prints it.
    ratio: f64,
    /// The wider of the two sides' quartile distance ÷ median.
    spread: f64,
    /// Each side's quartile distance; `null` where the source table
    /// gave only the wider spread.
    parent_qd: Option<f64>,
    change_qd: Option<f64>,
    verdict: String,
}

/// One compare set.
#[derive(Clone, Debug, PartialEq)]
struct Record {
    pr: u64,
    /// 1 for a PR's first set, 2 for a second set of the same builds.
    set: u64,
    /// Where the numbers come from: `run.sh compare` for a record built
    /// by `append`, else the document a backfilled table was copied from.
    source: String,
    parent: String,
    /// The change's commit; `null` when the record lands in that commit.
    commit: Option<String>,
    seeds: String,
    pairs: u64,
    claim: Option<(String, String)>,
    gates: Vec<Gate>,
    rows: Vec<Row>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(),
        Some("render") => cmd_render(),
        Some("append") => cmd_append(&args[1..]),
        _ => Err(
            "usage: trajectory check | trajectory render | trajectory append --pr N --seeds A-B \
                  [--set K] [--claim WORKLOAD/METRIC] [--commit C] [--parent-commit P] \
                  [--file FILE] [--benchmark FILE] PARENT.json CHANGE.json"
                .into(),
        ),
    };
    match result {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trajectory: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_check() -> Result<String, String> {
    let records = parse_file(&read(FILE)?)?;
    check(&records)?;
    Ok(format!("{FILE}: {} records, all valid", records.len()))
}

fn cmd_render() -> Result<String, String> {
    let records = parse_file(&read(FILE)?)?;
    check(&records)?;
    Ok(render(&records))
}

fn cmd_append(args: &[String]) -> Result<String, String> {
    const KEYS: [&str; 5] = ["pr", "set", "seeds", "claim", "parent-commit"];
    let mut opts = BTreeMap::new();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(key) if KEYS.contains(&key) => {
                let v = it.next().ok_or(format!("--{key} needs a value"))?;
                opts.insert(key, v.clone());
            }
            Some(key) => return Err(format!("unknown option --{key}")),
            None => files.push(a.as_str()),
        }
    }
    let [parent_file, change_file] = files[..] else {
        return Err("append needs PARENT.json and CHANGE.json".into());
    };
    let opt = |k: &str| opts.get(k).cloned();
    let num = |k: &str| -> Result<Option<u64>, String> {
        opt(k)
            .map(|v| v.parse().map_err(|_| format!("--{k}: not a number: {v}")))
            .transpose()
    };
    let benchmark = read("BENCHMARK.json")?;
    let parent_json = read(parent_file)?;
    let claim = opt("claim")
        .map(|c| match c.split_once('/') {
            Some((w, m)) => Ok((w.to_owned(), m.to_owned())),
            None => Err(format!("--claim {c}: want WORKLOAD/METRIC")),
        })
        .transpose()?;
    let head = Head {
        pr: num("pr")?.ok_or("--pr is required")?,
        set: num("set")?.unwrap_or(1),
        parent: match opt("parent-commit") {
            Some(p) => p,
            None => recorded_commit(&parent_json)?,
        },
        seeds: opt("seeds").ok_or("--seeds is required")?,
        claim,
    };
    let record = record_from(head, &benchmark, &parent_json, &read(change_file)?)?;
    let mut records = parse_file(&read(FILE)?)?;
    records.push(record);
    check(&records)?;
    std::fs::write(FILE, to_json(&records)).map_err(|e| format!("{FILE}: {e}"))?;
    let last = records.last().expect("just pushed");
    let not_ok = last.rows.iter().filter(|r| r.verdict != "ok").count();
    Ok(format!(
        "{FILE}: appended PR {} set {} ({} rows, {not_ok} not ok)",
        last.pr,
        last.set,
        last.rows.len()
    ))
}

// ---------------------------------------------------------------- stats

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartile distance with Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method), the definition `compare` uses; `None` below
/// two samples.
fn quartile_distance(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(cut(3) - cut(1))
}

/// How much worse `change` is than `parent`, as a share of `parent`.
fn worse_by(parent: f64, change: f64, higher_is_better: bool) -> f64 {
    if parent == 0.0 {
        return if change == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let rel = (change - parent) / parent.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

/// `compare`'s verdict for a row with this `spread` and these medians.
fn verdict(gate: &Gate, spread: f64, parent: f64, change: f64) -> &'static str {
    if spread > gate.bound {
        "unresolved"
    } else if worse_by(parent, change, gate.higher_is_better) > gate.bound {
        "regressed"
    } else {
        "ok"
    }
}

// ---------------------------------------------------------------- append

/// What `append` is told rather than reads from the result files.
struct Head {
    pr: u64,
    set: u64,
    parent: String,
    seeds: String,
    claim: Option<(String, String)>,
}

/// The gates and the workload order of `BENCHMARK.json`.
fn benchmark_spec(spec: &str) -> Result<(Vec<Gate>, Vec<String>), String> {
    let doc = json::parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let arr = |k: &str| {
        doc.get(k)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no {k} array"))
    };
    let gates = arr("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Gate {
                metric: text(m, "name")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: number(m, "bound")?,
            })
        })
        .collect::<Result<_, String>>()
        .map_err(|e| format!("BENCHMARK.json: gate: {e}"))?;
    let workloads = arr("workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect::<Option<_>>()
        .ok_or("BENCHMARK.json: workload without name")?;
    Ok((gates, workloads))
}

/// `workload → metric → one value per untraced run`.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn runs(result: &str) -> Result<Vec<Json>, String> {
    match json::parse(result).map_err(|e| format!("result file: {e}"))? {
        Json::Obj(mut doc) => match doc.remove("runs") {
            Some(Json::Arr(runs)) => Ok(runs),
            _ => Err("result file: no runs array".into()),
        },
        _ => Err("result file: not an object".into()),
    }
}

fn samples(result: &str) -> Result<(Samples, usize), String> {
    let mut out = Samples::new();
    let mut n = 0;
    for run in runs(result)? {
        if run.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        n += 1;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        for (name, m) in run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?
        {
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
    Ok((out, n))
}

/// The commit the runs of a result file recorded, if they agree on one.
fn recorded_commit(result: &str) -> Result<String, String> {
    let mut commits: Vec<String> = runs(result)?
        .iter()
        .filter_map(|r| {
            r.get("fingerprint")?
                .get("git_commit")?
                .as_str()
                .map(str::to_owned)
        })
        .collect();
    commits.dedup();
    match &commits[..] {
        [one] if one != "unknown" => Ok(one.clone()),
        _ => Err(format!(
            "parent runs record commits {commits:?}: pass --parent-commit"
        )),
    }
}

fn series<'a>(s: &'a Samples, workload: &str, metric: &str) -> Result<&'a [f64], String> {
    s.get(workload)
        .and_then(|m| m.get(metric))
        .map(Vec::as_slice)
        .ok_or(format!("{workload}/{metric}: missing from a result file"))
}

fn record_from(head: Head, benchmark: &str, parent: &str, change: &str) -> Result<Record, String> {
    let (gates, workloads) = benchmark_spec(benchmark)?;
    let ((a, runs_a), (b, runs_b)) = (samples(parent)?, samples(change)?);
    if runs_a != runs_b || runs_a % workloads.len() != 0 {
        return Err(format!(
            "{runs_a} parent and {runs_b} change runs: want the same whole number of runs of each of {} workloads",
            workloads.len()
        ));
    }
    let mut rows = Vec::new();
    for workload in &workloads {
        for gate in &gates {
            let (xa, xb) = (
                series(&a, workload, &gate.metric)?,
                series(&b, workload, &gate.metric)?,
            );
            let (ma, mb) = (median(xa), median(xb));
            let (qa, qb) = (quartile_distance(xa), quartile_distance(xb));
            let rel = |qd: Option<f64>, m: f64| match qd {
                Some(q) if m != 0.0 => q / m.abs(),
                _ => 0.0,
            };
            let spread = rel(qa, ma).max(rel(qb, mb));
            rows.push(Row {
                workload: workload.clone(),
                metric: gate.metric.clone(),
                parent: ma,
                change: mb,
                ratio: if ma != 0.0 { mb / ma } else { 0.0 },
                spread,
                parent_qd: qa,
                change_qd: qb,
                verdict: verdict(gate, spread, ma, mb).to_owned(),
            });
        }
    }
    Ok(Record {
        pr: head.pr,
        set: head.set,
        source: "run.sh compare".into(),
        parent: head.parent,
        commit: None,
        seeds: head.seeds,
        pairs: (runs_a / workloads.len()) as u64,
        claim: head.claim,
        gates,
        rows,
    })
}

// ---------------------------------------------------------------- render

/// A link of a chain: a PR, its same-session ratio and the row's spread.
type Link = (u64, f64, f64);

/// Each (workload, metric) row's chain, one link per PR, taken from the
/// PR's first set that has the row.
fn chains(records: &[Record]) -> Vec<((&str, &str), Vec<Link>)> {
    let mut out: Vec<((&str, &str), Vec<Link>)> = Vec::new();
    for r in records {
        for row in &r.rows {
            let key = (row.workload.as_str(), row.metric.as_str());
            let links = match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, links)) => links,
                None => {
                    out.push((key, Vec::new()));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            // A later set of the same PR measured the same change again.
            if links.last().is_none_or(|&(pr, _, _)| pr != r.pr) {
                links.push((r.pr, row.ratio, row.spread));
            }
        }
    }
    out
}

/// The chained ratio and its bar: the product of the links' ratios, and
/// that product times `exp(∓√Σ ln²(1 + spread))` — each link's spread
/// taken as an independent relative error.
fn chained(links: &[Link]) -> (f64, f64, f64) {
    let product: f64 = links.iter().map(|&(_, ratio, _)| ratio).product();
    let rss = links
        .iter()
        .map(|&(_, _, spread)| (1.0 + spread).ln().powi(2))
        .sum::<f64>()
        .sqrt();
    (product, product * (-rss).exp(), product * rss.exp())
}

fn render(records: &[Record]) -> String {
    let mut out = String::from(
        "Chained same-session ratios (change ÷ parent; one set per PR, its first \
         with the row).\nBar: product × exp(∓√Σ ln²(1 + spread)).\n",
    );
    for ((workload, metric), links) in chains(records) {
        let (product, lo, hi) = chained(&links);
        let steps: Vec<String> = links
            .iter()
            .map(|(pr, ratio, _)| format!("{pr}:{ratio:.3}"))
            .collect();
        out.push_str(&format!(
            "{workload} {metric}: {product:.3} [{lo:.3}, {hi:.3}] over {} PRs ({})\n",
            links.len(),
            steps.join(" · ")
        ));
    }
    out
}

// ---------------------------------------------------------------- file

fn parse_file(text: &str) -> Result<Vec<Record>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!("schema_version is not {SCHEMA_VERSION}"));
    }
    doc.get("records")
        .and_then(Json::as_arr)
        .ok_or("no records array")?
        .iter()
        .enumerate()
        .map(|(i, r)| parse_record(r).map_err(|e| format!("record {i}: {e}")))
        .collect()
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or(format!("no {key}"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or(format!("{key} is not a string"))
}

fn count(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or(format!("{key} is not a whole number"))
}

fn number(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or(format!("{key} is not a number"))
}

fn maybe<T>(
    obj: &Json,
    key: &str,
    get: fn(&Json, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        _ => get(obj, key).map(Some),
    }
}

fn list<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(obj, key)?
        .as_arr()
        .ok_or(format!("{key} is not an array"))
}

fn parse_record(r: &Json) -> Result<Record, String> {
    let claim = match field(r, "claim")? {
        Json::Null => None,
        c => Some((text(c, "workload")?, text(c, "metric")?)),
    };
    let gates = list(r, "gates")?
        .iter()
        .map(|g| {
            Ok(Gate {
                metric: text(g, "metric")?,
                higher_is_better: match text(g, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("gate better is {other:?}")),
                },
                bound: number(g, "bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let rows = list(r, "rows")?
        .iter()
        .map(|row| {
            Ok(Row {
                workload: text(row, "workload")?,
                metric: text(row, "metric")?,
                parent: number(row, "parent")?,
                change: number(row, "change")?,
                ratio: number(row, "ratio")?,
                spread: number(row, "spread")?,
                parent_qd: maybe(row, "parent_qd", number)?,
                change_qd: maybe(row, "change_qd", number)?,
                verdict: text(row, "verdict")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Record {
        pr: count(r, "pr")?,
        set: count(r, "set")?,
        source: text(r, "source")?,
        parent: text(r, "parent")?,
        commit: maybe(r, "commit", text)?,
        seeds: text(r, "seeds")?,
        pairs: count(r, "pairs")?,
        claim,
        gates,
        rows,
    })
}

/// Every rule a record set must keep; the first one broken, named.
fn check(records: &[Record]) -> Result<(), String> {
    for pair in records.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if (b.pr, b.set) <= (a.pr, a.set) {
            return Err(format!(
                "PR {} set {} follows PR {} set {}: records must come in increasing order",
                b.pr, b.set, a.pr, a.set
            ));
        }
    }
    for r in records {
        check_record(r).map_err(|e| format!("PR {} set {}: {e}", r.pr, r.set))?;
    }
    Ok(())
}

fn check_record(r: &Record) -> Result<(), String> {
    if r.set == 0 || r.pairs == 0 || r.rows.is_empty() || r.gates.is_empty() {
        return Err("set, pairs, rows and gates must be non-empty".into());
    }
    if r.source.is_empty() || r.parent.is_empty() || r.seeds.is_empty() {
        return Err("source, parent and seeds must be non-empty".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for row in &r.rows {
        let at = format!("{}/{}", row.workload, row.metric);
        if !seen.insert((row.workload.as_str(), row.metric.as_str())) {
            return Err(format!("{at}: listed twice"));
        }
        let gate = r
            .gates
            .iter()
            .find(|g| g.metric == row.metric)
            .ok_or(format!("{at}: no gate for the metric"))?;
        if !VERDICTS.contains(&row.verdict.as_str()) {
            return Err(format!("{at}: verdict {:?}", row.verdict));
        }
        if row.spread < 0.0
            || row.parent_qd.is_some_and(|q| q < 0.0)
            || row.change_qd.is_some_and(|q| q < 0.0)
        {
            return Err(format!("{at}: negative spread"));
        }
        // The verdict must follow from the row's numbers. The ratio is
        // the one `compare` printed, so a table copied at its precision
        // checks too; such a table (no quartile distances) printed the
        // spread to 0.1 %, so either side of that rounding will do.
        let change = if row.parent == 0.0 { 1.0 } else { row.ratio };
        let copied = row.parent_qd.is_none() && row.change_qd.is_none();
        let rounding = if copied { 0.0005 } else { 0.0 };
        let want = verdict(gate, row.spread + rounding, 1.0, change);
        if row.verdict != want && row.verdict != verdict(gate, row.spread - rounding, 1.0, change) {
            return Err(format!(
                "{at}: verdict {} but its numbers say {want}",
                row.verdict
            ));
        }
    }
    if let Some((w, m)) = &r.claim {
        let row = r
            .rows
            .iter()
            .find(|row| &row.workload == w && &row.metric == m)
            .ok_or(format!("claimed row {w}/{m} is not in the record"))?;
        if row.verdict != "ok" {
            return Err(format!("claimed row {w}/{m} is {}", row.verdict));
        }
    }
    Ok(())
}

fn opt_num(x: Option<f64>) -> String {
    x.map_or_else(|| "null".into(), |v| v.to_string())
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// The whole file, one row per line so that a diff shows the rows a
/// record adds.
fn to_json(records: &[Record]) -> String {
    let mut out = format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"records\": [");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let claim = r.claim.as_ref().map_or_else(
            || "null".into(),
            |(w, m)| format!("{{\"workload\": {}, \"metric\": {}}}", quoted(w), quoted(m)),
        );
        out.push_str(&format!(
            "    {{\n      \"pr\": {},\n      \"set\": {},\n      \"source\": {},\n      \
             \"parent\": {},\n      \"commit\": {},\n      \"seeds\": {},\n      \
             \"pairs\": {},\n      \"claim\": {claim},\n      \"gates\": [\n",
            r.pr,
            r.set,
            quoted(&r.source),
            quoted(&r.parent),
            r.commit.as_deref().map_or_else(|| "null".into(), quoted),
            quoted(&r.seeds),
            r.pairs,
        ));
        let gates: Vec<String> = r
            .gates
            .iter()
            .map(|g| {
                format!(
                    "        {{\"metric\": {}, \"better\": \"{}\", \"bound\": {}}}",
                    quoted(&g.metric),
                    if g.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                    g.bound
                )
            })
            .collect();
        out.push_str(&gates.join(",\n"));
        out.push_str("\n      ],\n      \"rows\": [\n");
        let rows: Vec<String> = r
            .rows
            .iter()
            .map(|row| {
                format!(
                    "        {{\"workload\": {}, \"metric\": {}, \"parent\": {}, \"change\": {}, \
                     \"ratio\": {}, \"spread\": {}, \"parent_qd\": {}, \"change_qd\": {}, \
                     \"verdict\": {}}}",
                    quoted(&row.workload),
                    quoted(&row.metric),
                    row.parent,
                    row.change,
                    row.ratio,
                    row.spread,
                    opt_num(row.parent_qd),
                    opt_num(row.change_qd),
                    quoted(&row.verdict),
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_trajectory.json");
    const BENCHMARK: &str = include_str!("../../../../BENCHMARK.json");

    #[test]
    fn the_committed_trajectory_is_valid_and_round_trips() {
        let records = parse_file(COMMITTED).expect("parses");
        check(&records).expect("valid");
        assert!(records.iter().any(|r| r.source == "CHANGES.md"));
        assert_eq!(parse_file(&to_json(&records)).unwrap(), records);
    }

    #[test]
    fn the_committed_trajectory_renders_every_chain() {
        let records = parse_file(COMMITTED).expect("parses");
        let text = render(&records);
        // The newest PR's links come from its first set.
        let newest = records.last().expect("records").pr;
        let last = records.iter().find(|r| r.pr == newest).expect("newest");
        for row in &last.rows {
            let head = format!("{} {}: ", row.workload, row.metric);
            let line = text.lines().find(|l| l.starts_with(&head));
            let line = line.unwrap_or_else(|| panic!("no chain for {head}"));
            assert!(
                line.contains(&format!("{}:{:.3}", last.pr, row.ratio)),
                "{line}"
            );
        }
    }

    #[test]
    fn a_chain_multiplies_one_set_per_pr_and_widens_its_bar() {
        let (gates, _) = benchmark_spec(BENCHMARK).unwrap();
        let row = |ratio: f64, spread: f64| Row {
            workload: "w".into(),
            metric: "ckpt_gbps".into(),
            parent: 1.0,
            change: ratio,
            ratio,
            spread,
            parent_qd: None,
            change_qd: None,
            verdict: "ok".into(),
        };
        let record = |pr: u64, set: u64, r: Row| Record {
            pr,
            set,
            source: "test".into(),
            parent: "p".into(),
            commit: None,
            seeds: "1-2".into(),
            pairs: 2,
            claim: None,
            gates: gates.clone(),
            rows: vec![r],
        };
        let records = [
            record(1, 1, row(2.0, 0.1)),
            // A second set of PR 1 is the same change measured again.
            record(1, 2, row(3.0, 0.2)),
            record(2, 1, row(0.5, 0.1)),
        ];
        let found = chains(&records);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, vec![(1, 2.0, 0.1), (2, 0.5, 0.1)]);
        let (product, lo, hi) = chained(&found[0].1);
        let rss = (2.0 * 1.1f64.ln().powi(2)).sqrt();
        assert!((product - 1.0).abs() < 1e-12);
        assert!((lo - (-rss).exp()).abs() < 1e-12 && (hi - rss.exp()).abs() < 1e-12);
        assert!(render(&records).contains("w ckpt_gbps: 1.000 [0.874, 1.144] over 2 PRs"));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_distance(&xs), Some(8.25 - 2.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartile_distance(&[2.0, 1.0]), Some(1.5));
        assert_eq!(quartile_distance(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    /// A result file of `values[i]` for every gated metric of every
    /// workload, one untraced run per value (plus a traced run, ignored).
    fn result(values: &[f64], commit: &str) -> String {
        let (gates, workloads) = benchmark_spec(BENCHMARK).unwrap();
        let mut runs = Vec::new();
        for w in &workloads {
            for (trace, v) in values.iter().map(|v| (0, v)).chain([(1, &-1.0)]) {
                let metrics: Vec<String> = gates
                    .iter()
                    .map(|g| format!("\"{}\":{{\"value\":{v},\"unit\":\"x\",\"n\":1}}", g.metric))
                    .collect();
                runs.push(format!(
                    "{{\"workload\":\"{w}\",\"trace\":{trace},\"fingerprint\":{{\"git_commit\":\"{commit}\"}},\
                     \"metrics\":{{{}}}}}",
                    metrics.join(",")
                ));
            }
        }
        format!("{{\"schema_version\":1,\"runs\":[{}]}}", runs.join(","))
    }

    fn head(claim: Option<(&str, &str)>) -> Head {
        Head {
            pr: 99,
            set: 1,
            parent: recorded_commit(&result(&[1.0], "abc")).unwrap(),
            seeds: "1-4".into(),
            claim: claim.map(|(w, m)| (w.into(), m.into())),
        }
    }

    #[test]
    fn append_applies_the_gates_as_compare_does() {
        let parent = result(&[1.0, 1.0, 1.0, 1.0], "abc");
        let faster = result(&[1.1, 1.1, 1.1, 1.1], "def");
        let r = record_from(
            head(Some(("rbio_exec", "ckpt_gbps"))),
            BENCHMARK,
            &parent,
            &faster,
        )
        .unwrap();
        assert_eq!((r.parent.as_str(), r.pairs), ("abc", 4));
        let row = |m: &str| {
            r.rows
                .iter()
                .find(|x| x.workload == "rbio_exec" && x.metric == m)
                .unwrap()
        };
        // Higher is better for a rate, lower for a time: +10 % is inside
        // the 25 % bound either way. A lower-better count with a 1 %
        // bound regresses at +10 %.
        assert_eq!(row("ckpt_gbps").verdict, "ok");
        assert_eq!(row("setup_s").verdict, "ok");
        assert!((row("ckpt_gbps").ratio - 1.1).abs() < 1e-12);
        assert_eq!(row("ckpt_gbps").parent_qd, Some(0.0));
        assert_eq!(row("stored_bytes_per_user_byte").verdict, "regressed");
        let noisy = result(&[0.5, 1.0, 1.5, 1.0], "def");
        let r2 = record_from(head(None), BENCHMARK, &parent, &noisy).unwrap();
        assert!(r2.rows.iter().all(|x| x.verdict == "unresolved"));
        // A regressed or unresolved row is a fact to record; only a
        // claimed row must be ok.
        check(&[r, Record { pr: 100, ..r2 }]).unwrap();
    }

    #[test]
    fn check_refuses_what_it_should() {
        let parent = result(&[1.0, 1.0], "abc");
        let same = result(&[1.0, 1.0], "def");
        let r = record_from(
            head(Some(("rbio_exec", "ckpt_gbps"))),
            BENCHMARK,
            &parent,
            &same,
        )
        .unwrap();
        check(std::slice::from_ref(&r)).unwrap();
        // PR order.
        let earlier = Record {
            pr: 98,
            ..r.clone()
        };
        assert!(check(&[r.clone(), earlier])
            .unwrap_err()
            .contains("increasing"));
        assert!(check(&[r.clone(), r.clone()])
            .unwrap_err()
            .contains("increasing"));
        check(&[
            r.clone(),
            Record {
                set: 2,
                ..r.clone()
            },
        ])
        .unwrap();
        // A claimed row that is not ok, and a verdict its numbers deny.
        let mut claimed = r.clone();
        let i = claimed
            .rows
            .iter()
            .position(|x| x.metric == "ckpt_gbps")
            .unwrap();
        claimed.rows[i].spread = 0.5;
        claimed.rows[i].verdict = "unresolved".into();
        assert!(check(&[claimed.clone()])
            .unwrap_err()
            .contains("claimed row"));
        claimed.rows[i].verdict = "ok".into();
        assert!(check(&[claimed])
            .unwrap_err()
            .contains("numbers say unresolved"));
        // A copied table printed its spread to 0.1 %: a spread printed at
        // the bound may be either side of it, and only that one.
        let mut copied = Record {
            claim: None,
            ..r.clone()
        };
        let row = &mut copied.rows[i];
        (row.parent_qd, row.change_qd, row.spread) = (None, None, 0.25);
        for v in ["ok", "unresolved"] {
            copied.rows[i].verdict = v.into();
            check(std::slice::from_ref(&copied)).unwrap();
        }
        copied.rows[i].spread = 0.251;
        copied.rows[i].verdict = "ok".into();
        assert!(check(&[copied]).unwrap_err().contains("numbers say"));
        // Schema.
        assert!(parse_file("{\"schema_version\":2,\"records\":[]}").is_err());
        assert!(parse_file(&to_json(&[r]).replace("\"pairs\": 2", "\"pairs\": \"2\"")).is_err());
    }
}
