//! The values a run measured, and the line it hands to `run.py`.
//!
//! The binary prints names and values only. `BENCHMARK.json` at the
//! repository root is the one catalog: `run.py` checks the printed names
//! against it and attaches the units.

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Metric values collected by a run, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Records 0 for layers the workload does not run. Naming them is
    /// what lets `run.py` fail on any other metric left unset.
    pub fn not_run(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// `{"attempted": .., "failed": .., "metrics": {name: value, ..}}`,
    /// refused when a value is not finite.
    pub fn result_line(&self, attempted: u64, failed: u64) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.values.len());
        for &(name, value) in &self.values {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!("\"{name}\": {value}"));
        }
        Ok(format!(
            "{{\"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"` value in `BENCHMARK.json`: workloads and metrics.
    fn declared_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn declared_names_are_legal_and_unique() {
        let all = declared_names();
        assert!(all.len() > 10, "{all:?}");
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate name");
        assert!(!valid_name("") && !valid_name("a b") && !valid_name(".x") && !valid_name("é"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_refuses_non_finite_values() {
        let mut ms = Metrics::default();
        ms.set("a", 1.5);
        ms.not_run(&["b"]);
        assert_eq!(
            ms.result_line(3, 0).expect("finite"),
            "{\"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": 1.5, \"b\": 0}}"
        );
        ms.set("b", f64::NAN);
        assert!(ms.result_line(3, 0).is_err());
    }
}
