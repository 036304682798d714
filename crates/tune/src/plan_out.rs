//! The tuner's output artifact: a winning configuration serialized as
//! JSON, plus adapters that turn it back into the concrete configs the
//! rest of the stack consumes ([`ExecConfig`] for the real executor,
//! [`MachineConfig`] for the simulator, [`Strategy`]/[`Tuning`] for
//! the planner).

use crate::oracle::Objective;
use crate::space::{Candidate, StrategyKind};
use rbio::exec::ExecConfig;
use rbio::strategy::{Strategy, Tuning};
use rbio_machine::MachineConfig;
use rbio_plan::json::{self, Json};
use std::fmt;
use std::path::Path;

/// Version stamp written into every exported plan.
const FORMAT_VERSION: u64 = 1;

/// Why [`TunedPlan::from_json`] refused a text.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Not a tuned plan: bad JSON, a missing or mistyped field, an
    /// unknown name or an unsupported version.
    Malformed(String),
    /// A count or rate outside `1..=max`: zero, or too large for the
    /// type the stack takes it as.
    OutOfRange {
        /// The JSON key.
        field: &'static str,
        /// The value the text held.
        value: u64,
        /// The largest admissible value.
        max: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Malformed(msg) => f.write_str(msg),
            PlanError::OutOfRange { field, value, max } => {
                write!(f, "field '{field}' is {value}, outside 1..={max}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<&str> for PlanError {
    fn from(msg: &str) -> Self {
        PlanError::Malformed(msg.to_string())
    }
}

/// A tuner winner, ready to export or apply.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPlan {
    /// The winning knob settings.
    pub candidate: Candidate,
    /// Simulated cost of the winner, seconds.
    pub cost_seconds: f64,
    /// Ranks the search was run for.
    pub np: u32,
    /// Env preset label the search ran against.
    pub env_label: String,
    /// Objective the cost minimizes.
    pub objective: Objective,
}

fn strategy_name(s: StrategyKind) -> &'static str {
    match s {
        StrategyKind::OnePfpp => "1pfpp",
        StrategyKind::CoIo => "coio",
        StrategyKind::RbIo => "rbio",
    }
}

fn strategy_from_name(s: &str) -> Option<StrategyKind> {
    match s {
        "1pfpp" => Some(StrategyKind::OnePfpp),
        "coio" => Some(StrategyKind::CoIo),
        "rbio" => Some(StrategyKind::RbIo),
        _ => None,
    }
}

impl TunedPlan {
    /// Serialize to the stable JSON export format.
    pub fn to_json(&self) -> String {
        let c = &self.candidate;
        let tier = match c.tier_drain_bw {
            Some(bw) => bw.to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\n",
                "  \"version\": {},\n",
                "  \"env\": \"{}\",\n",
                "  \"np\": {},\n",
                "  \"objective\": \"{}\",\n",
                "  \"cost_seconds\": {},\n",
                "  \"candidate\": {{\n",
                "    \"strategy\": \"{}\",\n",
                "    \"nf\": {},\n",
                "    \"pipeline_depth\": {},\n",
                "    \"writer_buffer\": {},\n",
                "    \"cb_buffer\": {},\n",
                "    \"coalesce_fields\": {},\n",
                "    \"tier_drain_bw\": {}\n",
                "  }}\n",
                "}}\n",
            ),
            FORMAT_VERSION,
            json::escape(&self.env_label),
            self.np,
            self.objective.name(),
            self.cost_seconds,
            strategy_name(c.strategy),
            c.nf,
            c.pipeline_depth,
            c.writer_buffer,
            c.cb_buffer,
            c.coalesce_fields,
            tier,
        )
    }

    /// Parse a plan previously written by [`TunedPlan::to_json`].
    /// Unknown keys are ignored, so a plan that still carries the engine
    /// keys of earlier exports loads (and runs on the default engine).
    /// `nf`, `pipeline_depth` and `np` must be in `1..=u32::MAX`, a
    /// drain rate at least 1.
    pub fn from_json(input: &str) -> Result<TunedPlan, PlanError> {
        let root = json::parse(input).map_err(|e| PlanError::Malformed(e.to_string()))?;
        let version = field_u64(&root, "version")?;
        if version != FORMAT_VERSION {
            return Err(PlanError::Malformed(format!(
                "unsupported tuned-plan version {version}"
            )));
        }
        let c = root.get("candidate").ok_or("missing field 'candidate'")?;
        let tier_drain_bw = match c.get("tier_drain_bw") {
            None | Some(Json::Null) => None,
            Some(_) => Some(field_in(c, "tier_drain_bw", u64::MAX)?),
        };
        let candidate = Candidate {
            strategy: strategy_from_name(field_str(c, "strategy")?)
                .ok_or("unknown strategy name")?,
            nf: field_count(c, "nf")?,
            pipeline_depth: field_count(c, "pipeline_depth")?,
            writer_buffer: field_u64(c, "writer_buffer")?,
            cb_buffer: field_u64(c, "cb_buffer")?,
            coalesce_fields: c
                .get("coalesce_fields")
                .and_then(Json::as_bool)
                .ok_or("missing field 'coalesce_fields'")?,
            tier_drain_bw,
        };
        Ok(TunedPlan {
            candidate,
            cost_seconds: root
                .get("cost_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing field 'cost_seconds'")?,
            np: field_count(&root, "np")?,
            env_label: field_str(&root, "env")?.to_string(),
            objective: Objective::from_name(field_str(&root, "objective")?)
                .ok_or("unknown objective name")?,
        })
    }

    /// The planner strategy this plan selects.
    pub fn strategy(&self) -> Strategy {
        match self.candidate.strategy {
            StrategyKind::OnePfpp => Strategy::OnePfpp,
            StrategyKind::CoIo => Strategy::coio(self.candidate.nf),
            StrategyKind::RbIo => Strategy::rbio(self.candidate.nf),
        }
    }

    /// The planner tuning this plan selects.
    pub fn tuning(&self) -> Tuning {
        Tuning {
            cb_buffer_size: self.candidate.cb_buffer,
            writer_buffer: self.candidate.writer_buffer,
            coalesce_fields: self.candidate.coalesce_fields,
            ..Tuning::default()
        }
    }

    /// A real-executor config applying every executor-visible knob. The
    /// plan runs on the default (threaded) engine: the tuner prices no
    /// engine choice.
    pub fn exec_config(&self, base_dir: impl AsRef<Path>) -> ExecConfig {
        ExecConfig::new(base_dir).pipeline_depth(self.candidate.pipeline_depth)
    }

    /// `base` with this plan's machine knobs applied, exactly as the
    /// oracle priced them ([`Candidate::machine_config`]): the flush-call
    /// cost is `base`'s.
    pub fn machine_config(&self, base: &MachineConfig) -> MachineConfig {
        self.candidate.machine_config(base)
    }
}

fn field_u64(v: &Json, name: &str) -> Result<u64, PlanError> {
    v.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| PlanError::Malformed(format!("missing or non-integer field '{name}'")))
}

fn field_str<'j>(v: &'j Json, name: &str) -> Result<&'j str, PlanError> {
    v.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| PlanError::Malformed(format!("missing or non-string field '{name}'")))
}

/// An integer field that must be in `1..=max`.
fn field_in(v: &Json, field: &'static str, max: u64) -> Result<u64, PlanError> {
    let value = field_u64(v, field)?;
    if (1..=max).contains(&value) {
        Ok(value)
    } else {
        Err(PlanError::OutOfRange { field, value, max })
    }
}

/// A count the stack takes as a nonzero `u32`.
fn field_count(v: &Json, field: &'static str) -> Result<u32, PlanError> {
    // In range, so the cast is lossless.
    field_in(v, field, u64::from(u32::MAX)).map(|n| n as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Env, MachineOracle};
    use crate::space::Space;
    use proptest::prelude::{any, prop_assert, proptest};
    use rbio::backend::BackendKind;
    use rbio_machine::TierModel;
    use rbio_sim::SimTime;

    fn sample() -> TunedPlan {
        let mut c = Space::intrepid(16384).seed_candidate();
        c.strategy = StrategyKind::RbIo;
        c.nf = 1024;
        c.pipeline_depth = 2;
        TunedPlan {
            candidate: c,
            cost_seconds: 2.465,
            np: 16384,
            env_label: "intrepid".to_string(),
            objective: Objective::Perceived,
        }
    }

    #[test]
    fn json_round_trips() {
        let plan = sample();
        let text = plan.to_json();
        let back = TunedPlan::from_json(&text).expect("parse");
        assert_eq!(back, plan);
        // And with a tier knob present.
        let mut tiered = sample();
        tiered.candidate.tier_drain_bw = Some(1_500_000_000);
        tiered.env_label = "tier".to_string();
        tiered.objective = Objective::Durable;
        let back = TunedPlan::from_json(&tiered.to_json()).expect("parse");
        assert_eq!(back, tiered);
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(TunedPlan::from_json("{}").is_err());
        let bad_version = sample()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        assert!(TunedPlan::from_json(&bad_version).is_err());
        let bad_strategy = sample().to_json().replace("\"rbio\"", "\"mpiio\"");
        assert!(TunedPlan::from_json(&bad_strategy).is_err());
    }

    #[test]
    fn counts_out_of_range_or_zero_are_typed_errors() {
        let text = sample().to_json();
        let out_of_range = |field, value, max| {
            Err(PlanError::OutOfRange {
                field,
                value,
                max: u64::from(max),
            })
        };
        // 2^32 + 1024 must not wrap to nf = 1024, and 0 is no count.
        let wide_nf = text.replace("\"nf\": 1024", "\"nf\": 4294968320");
        assert_eq!(
            TunedPlan::from_json(&wide_nf),
            out_of_range("nf", 4_294_968_320, u32::MAX)
        );
        let zero_nf = text.replace("\"nf\": 1024", "\"nf\": 0");
        assert_eq!(
            TunedPlan::from_json(&zero_nf),
            out_of_range("nf", 0, u32::MAX)
        );
        let zero_depth = text.replace("\"pipeline_depth\": 2", "\"pipeline_depth\": 0");
        assert_eq!(
            TunedPlan::from_json(&zero_depth),
            out_of_range("pipeline_depth", 0, u32::MAX)
        );
        let wide_depth = text.replace("\"pipeline_depth\": 2", "\"pipeline_depth\": 4294967298");
        assert_eq!(
            TunedPlan::from_json(&wide_depth),
            out_of_range("pipeline_depth", 4_294_967_298, u32::MAX)
        );
        let wide_np = text.replace("\"np\": 16384", "\"np\": 4294983680");
        assert_eq!(
            TunedPlan::from_json(&wide_np),
            out_of_range("np", 4_294_983_680, u32::MAX)
        );
        let zero_drain = text.replace("\"tier_drain_bw\": null", "\"tier_drain_bw\": 0");
        assert_eq!(
            TunedPlan::from_json(&zero_drain),
            Err(PlanError::OutOfRange {
                field: "tier_drain_bw",
                value: 0,
                max: u64::MAX
            })
        );
        // The largest count still loads.
        let max_nf = text.replace("\"nf\": 1024", "\"nf\": 4294967295");
        assert_eq!(
            TunedPlan::from_json(&max_nf).map(|p| p.candidate.nf),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn a_plan_with_the_dropped_backend_keys_loads_and_runs_threaded() {
        // Version-1 exports carried the engine and its batch.
        let plan = sample();
        let old = plan.to_json().replace(
            "\"tier_drain_bw\"",
            "\"backend\": \"ring\",\n    \"backend_batch\": 8,\n    \"tier_drain_bw\"",
        );
        assert!(old.contains("\"backend\": \"ring\""));
        let back = TunedPlan::from_json(&old).expect("unknown keys are ignored");
        assert_eq!(back, plan);
        assert_eq!(
            back.exec_config("/tmp/ckpt").io_backend,
            BackendKind::Threaded
        );
    }

    #[test]
    fn exec_config_applies_knobs() {
        let plan = sample();
        let cfg = plan.exec_config("/tmp/ckpt");
        assert_eq!(cfg.pipeline_depth, plan.candidate.pipeline_depth);
        assert_eq!(cfg.io_backend, BackendKind::Threaded);
        // The coalesce caps are not tuned: the executor's defaults ride.
        assert_eq!(cfg.coalesce_max_bytes, rbio::exec::DEFAULT_COALESCE_BYTES);
        assert_eq!(cfg.coalesce_max_ops, rbio::exec::DEFAULT_COALESCE_OPS);
    }

    #[test]
    fn machine_config_applies_knobs() {
        let mut plan = sample();
        plan.candidate.tier_drain_bw = Some(2_000_000_000);
        let base = MachineConfig::intrepid(16384);
        let m = plan.machine_config(&base);
        assert_eq!(m.pipeline_depth, plan.candidate.pipeline_depth);
        assert_eq!(m.flush_call_cost, base.flush_call_cost);
        // No tier on the base: the knob is ignored.
        assert!(m.tier.is_none());
        let mut tiered_base = base.clone();
        tiered_base.tier = Some(TierModel::local_only(3.0e9));
        let m = plan.machine_config(&tiered_base);
        assert_eq!(m.tier.unwrap().burst_bw, Some(2.0e9));
    }

    #[test]
    fn an_exported_plan_prices_what_the_oracle_priced() {
        // On a CIOD base the plan's machine pays the CIOD flush call
        // (2 ms), and matches the oracle's machine but for profiling.
        let plan = sample();
        let env = Env::ciod(16384);
        let m = plan.machine_config(&env.machine);
        assert_eq!(m.flush_call_cost, SimTime::from_millis(2));
        assert_eq!(m.pipeline_depth, 2);
        let priced = MachineOracle::new(env)
            .unwrap()
            .machine_for(&plan.candidate);
        let priced = MachineConfig {
            profile: m.profile,
            ..priced
        };
        assert_eq!(format!("{priced:?}"), format!("{m:?}"));
    }

    #[test]
    fn strategy_and_tuning_reflect_candidate() {
        let plan = sample();
        assert_eq!(plan.strategy(), Strategy::rbio(1024));
        let t = plan.tuning();
        assert_eq!(t.writer_buffer, plan.candidate.writer_buffer);
        assert_eq!(t.cb_buffer_size, plan.candidate.cb_buffer);
    }

    /// Bytes a mutation writes: JSON punctuation, digits, the letters of
    /// `true`/`false`/`null`, and one byte outside ASCII's printable set.
    const ALPHABET: &[u8] = b"0123456789-+.eE\"{}[],: \\nulltrfas\x7f";

    /// Values a numeric edit writes half the time: the edges of the
    /// `u32` counts and of `Json::as_u64`.
    const EDGES: [u64; 6] = [0, 1, 0xFFFF_FFFF, 1 << 32, (1 << 32) + 1024, 1 << 53];

    /// Apply one edit to `text`: overwrite, delete or insert a byte at
    /// `at`, truncate there, or set one numeric field to an edge value
    /// or to `big` shifted right.
    fn mutate(text: &mut Vec<u8>, (at, pick, kind, big): (u64, u8, u8, u64)) {
        let at = (at % (text.len() as u64 + 1)) as usize;
        let byte = ALPHABET[usize::from(pick) % ALPHABET.len()];
        match kind {
            0 if at < text.len() => text[at] = byte,
            1 if at < text.len() => {
                text.remove(at);
            }
            2 => text.insert(at, byte),
            3 => text.truncate(at),
            _ => {
                let fields = ["nf", "pipeline_depth", "np", "tier_drain_bw", "version"];
                let field = fields[usize::from(pick) % fields.len()];
                let s = String::from_utf8_lossy(text).into_owned();
                let key = format!("\"{field}\": ");
                if let Some(start) = s.find(&key).map(|i| i + key.len()) {
                    let end = start + s[start..].find([',', '\n']).unwrap_or(0);
                    let value = if big % 2 == 0 {
                        EDGES[(big >> 1) as usize % EDGES.len()]
                    } else {
                        big >> (pick % 64)
                    };
                    *text = format!("{}{value}{}", &s[..start], &s[end..]).into_bytes();
                }
            }
        }
    }

    /// The integer `key` of `obj`, as the JSON text holds it.
    fn raw(obj: &Json, key: &str) -> Option<u64> {
        obj.get(key).and_then(Json::as_u64)
    }

    proptest! {
        /// A mutated plan parses or is refused: it never panics, and what
        /// parses holds the text's nonzero counts and converts into every
        /// config.
        #[test]
        fn mutated_plans_parse_or_error_and_never_panic(
            edits in proptest::collection::vec(
                (any::<u64>(), any::<u8>(), 0u8..5, any::<u64>()),
                1..6,
            ),
            tiered in any::<bool>(),
        ) {
            let mut plan = sample();
            if tiered {
                plan.candidate.tier_drain_bw = Some(1_500_000_000);
            }
            let mut text = plan.to_json().into_bytes();
            for edit in edits {
                mutate(&mut text, edit);
            }
            let text = String::from_utf8_lossy(&text);
            if let Ok(p) = TunedPlan::from_json(&text) {
                // What parses holds exactly the text's counts: none wrapped.
                let root = json::parse(&text).expect("from_json parsed it");
                let c = root.get("candidate").expect("from_json read it");
                prop_assert!(p.np > 0 && p.candidate.nf > 0 && p.candidate.pipeline_depth > 0);
                prop_assert!(raw(&root, "np") == Some(u64::from(p.np)));
                prop_assert!(raw(c, "nf") == Some(u64::from(p.candidate.nf)));
                prop_assert!(raw(c, "pipeline_depth") == Some(u64::from(p.candidate.pipeline_depth)));
                prop_assert!(p.candidate.tier_drain_bw != Some(0));
                let _ = (p.strategy(), p.tuning(), p.exec_config("/tmp/ckpt"));
                let _ = p.machine_config(&Env::tier(16384).machine);
            }
        }
    }
}
