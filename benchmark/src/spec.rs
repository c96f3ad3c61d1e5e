//! `BENCHMARK.json`, the one place metric names, units, directions and
//! bounds are written down. The runner reads it rather than repeating it,
//! and refuses to run if what it measures and what the file lists differ.

use std::path::Path;

use crate::json::Value;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before it counts as a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = Value::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            v.get(key)
                .ok_or_else(|| format!("missing `{key}`"))?
                .arr()
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: m.need_str("name")?.to_string(),
                        unit: m.need_str("unit")?.to_string(),
                        higher_is_better: match m.need_str("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("`better` is `{other}`")),
                        },
                        bound: m.get("bound").and_then(Value::num),
                    })
                })
                .collect()
        };
        let spec = Spec {
            run_seconds: v.need_num("run_seconds")?,
            workloads: v
                .get("workloads")
                .ok_or("missing `workloads`")?
                .arr()
                .iter()
                .map(|w| w.need_str("name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        if let Some(m) = spec.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("end-to-end metric `{}` has no bound", m.name));
        }
        Ok(spec)
    }

    /// A metric's entry, end-to-end or per-layer. The runner checks its
    /// own lists against the file before it measures anything, so a name
    /// it asks for is there.
    pub fn def(&self, name: &str) -> &MetricDef {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` was checked against BENCHMARK.json"))
    }

    /// Fail unless `names` are exactly this list's names, in any order.
    pub fn same_names(defs: &[MetricDef], names: &[&str], what: &str) -> Result<(), String> {
        let mut listed: Vec<&str> = defs.iter().map(|m| m.name.as_str()).collect();
        let mut measured = names.to_vec();
        listed.sort_unstable();
        measured.sort_unstable();
        if listed == measured {
            return Ok(());
        }
        let only = |a: &[&str], b: &[&str]| -> Vec<String> {
            a.iter()
                .filter(|n| !b.contains(n))
                .map(|n| n.to_string())
                .collect()
        };
        Err(format!(
            "{what} metrics differ from BENCHMARK.json: listed only {:?}, measured only {:?}",
            only(&listed, &measured),
            only(&measured, &listed)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{END_TO_END, PER_LAYER};
    use crate::workloads::NAMES;

    fn committed() -> Spec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Spec::load(&path).expect("BENCHMARK.json parses")
    }

    /// The file the driver reads and the code that measures agree.
    #[test]
    fn benchmark_json_lists_what_the_runner_measures() {
        let spec = committed();
        assert_eq!(spec.workloads, NAMES);
        Spec::same_names(&spec.end_to_end, &END_TO_END, "end-to-end").unwrap();
        Spec::same_names(&spec.per_layer, &PER_LAYER, "per-layer").unwrap();
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    /// The contract's limits on the file, so a bad edit fails here first.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        let spec = committed();
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(spec.end_to_end.iter().all(|m| m.bound.unwrap() <= 0.25));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(ok_name(&m.name), "bad name {}", m.name);
            assert!(ok_unit(&m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
        }
    }

    #[test]
    fn parse_rejects_what_it_cannot_use() {
        let base = r#"{"run_seconds": 5, "workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "b", "unit": "count", "better": "higher"}]}"#;
        let spec = Spec::parse(base).unwrap();
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert!(spec.per_layer[0].higher_is_better);
        assert!(Spec::parse(&base.replace("\"lower\"", "\"sideways\"")).is_err());
        assert!(Spec::parse(&base.replace(", \"bound\": 0.1", "")).is_err());
        assert!(Spec::parse(&base.replace("\"run_seconds\": 5,", "")).is_err());
        assert!(Spec::same_names(&spec.end_to_end, &["a"], "x").is_ok());
        let err = Spec::same_names(&spec.end_to_end, &["a", "c"], "x").unwrap_err();
        assert!(err.contains("\"c\""), "{err}");
    }
}
