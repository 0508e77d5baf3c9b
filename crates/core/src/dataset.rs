//! The performance characterization dataset (Sec. V-B): one row per
//! `(LLM, GPU profile, #concurrent users)` with the four measured metrics,
//! plus the tuned maximum batch weight per `(LLM, GPU profile)` cell.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::CoreError;

/// One measurement row of the characterization dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// LLM catalog name.
    pub llm: String,
    /// GPU profile name (e.g. `2xA100-40GB`).
    pub profile: String,
    /// Concurrent users of the load test.
    pub users: u32,
    /// Median time to first token, seconds.
    pub ttft_s: f64,
    /// Median normalized TTFT, seconds per input token.
    pub nttft_s: f64,
    /// Median inter-token latency, seconds.
    pub itl_s: f64,
    /// Output-token throughput, tokens/second.
    pub throughput: f64,
}

impl PerfRow {
    /// Append the row as one CSV line (no header), floats in shortest
    /// round-trip form so [`PerfRow::parse_csv`] recovers them bit-exactly.
    /// The one row writer of the dataset CSV and the sweep journal.
    pub(crate) fn write_csv(&self, out: &mut String) {
        let PerfRow { llm, profile, users, ttft_s, nttft_s, itl_s, throughput } = self;
        writeln!(out, "{llm},{profile},{users},{ttft_s},{nttft_s},{itl_s},{throughput}")
            .expect("write to String cannot fail");
    }

    /// Parse one line written by [`PerfRow::write_csv`]; the error names the
    /// bad field, and the caller adds where the line came from. The one row
    /// parser of the dataset CSV and the sweep journal.
    pub(crate) fn parse_csv(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(format!("expected 7 fields, found {}", fields.len()));
        }
        let parse_f =
            |s: &str, what: &str| s.parse::<f64>().map_err(|_| format!("bad {what}: {s:?}"));
        Ok(PerfRow {
            llm: fields[0].to_string(),
            profile: fields[1].to_string(),
            users: fields[2].parse().map_err(|_| format!("bad users: {:?}", fields[2]))?,
            ttft_s: parse_f(fields[3], "ttft")?,
            nttft_s: parse_f(fields[4], "nttft")?,
            itl_s: parse_f(fields[5], "itl")?,
            throughput: parse_f(fields[6], "throughput")?,
        })
    }
}

/// The dataset: measurement rows plus per-cell tuned batch weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CharacterizationDataset {
    /// Measurement rows, ordered (llm, profile, users).
    pub rows: Vec<PerfRow>,
    /// Tuned maximum batch weight per `(llm, profile)`.
    pub tuned_weights: BTreeMap<(String, String), u64>,
}

impl CharacterizationDataset {
    /// Number of measurement rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distinct LLM names, sorted.
    pub fn llms(&self) -> Vec<String> {
        let mut v: Vec<String> = self.rows.iter().map(|r| r.llm.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct GPU-profile names, sorted.
    pub fn profiles(&self) -> Vec<String> {
        let mut v: Vec<String> = self.rows.iter().map(|r| r.profile.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct user counts, ascending.
    pub fn user_counts(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.rows.iter().map(|r| r.users).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All rows of one LLM.
    pub fn rows_for_llm(&self, llm: &str) -> Vec<&PerfRow> {
        self.rows.iter().filter(|r| r.llm == llm).collect()
    }

    /// All rows except one LLM's (the leave-one-LLM-out training set).
    pub fn rows_excluding_llm(&self, llm: &str) -> Vec<&PerfRow> {
        self.rows.iter().filter(|r| r.llm != llm).collect()
    }

    /// Look up one measurement.
    pub fn get(&self, llm: &str, profile: &str, users: u32) -> Option<&PerfRow> {
        self.rows.iter().find(|r| r.llm == llm && r.profile == profile && r.users == users)
    }

    /// Whether the `(llm, profile)` cell was feasible (has any rows).
    pub fn cell_feasible(&self, llm: &str, profile: &str) -> bool {
        self.rows.iter().any(|r| r.llm == llm && r.profile == profile)
    }

    /// Serialize to CSV (header + one line per row).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("llm,profile,users,ttft_s,nttft_s,itl_s,throughput\n");
        for r in &self.rows {
            r.write_csv(&mut out);
        }
        out
    }

    /// Structural validation for datasets crossing a trust boundary (e.g.
    /// hot-reloaded by a serving daemon): every row must name a catalog LLM
    /// and a parseable GPU profile, have `users ≥ 1` and finite,
    /// non-negative metrics, and no `(llm, profile, users)` key may repeat.
    pub fn validate(&self) -> Result<(), CoreError> {
        use std::collections::BTreeSet;
        let mut seen: BTreeSet<(&str, &str, u32)> = BTreeSet::new();
        for (i, r) in self.rows.iter().enumerate() {
            let ctx = |what: &str| CoreError::Parse(format!("row {i}: {what}"));
            if llmpilot_sim::llm::llm_by_name(&r.llm).is_none() {
                return Err(ctx(&format!("unknown LLM {:?}", r.llm)));
            }
            if crate::recommend::parse_profile(&r.profile).is_none() {
                return Err(ctx(&format!("unknown GPU profile {:?}", r.profile)));
            }
            if r.users == 0 {
                return Err(ctx("users must be >= 1"));
            }
            for (name, v) in [
                ("ttft_s", r.ttft_s),
                ("nttft_s", r.nttft_s),
                ("itl_s", r.itl_s),
                ("throughput", r.throughput),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(ctx(&format!("{name} must be finite and non-negative, got {v}")));
                }
            }
            if !seen.insert((r.llm.as_str(), r.profile.as_str(), r.users)) {
                return Err(ctx(&format!(
                    "duplicate measurement ({}, {}, {})",
                    r.llm, r.profile, r.users
                )));
            }
        }
        Ok(())
    }

    /// Parse the CSV produced by [`Self::to_csv`] (tuned weights are not
    /// part of the CSV exchange format).
    pub fn from_csv(text: &str) -> Result<Self, CoreError> {
        let mut rows = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if lineno == 0 || line.trim().is_empty() {
                continue;
            }
            let row = PerfRow::parse_csv(line)
                .map_err(|e| CoreError::Parse(format!("line {}: {e}", lineno + 1)))?;
            rows.push(row);
        }
        Ok(Self { rows, tuned_weights: BTreeMap::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CharacterizationDataset {
        let mut ds = CharacterizationDataset::default();
        for llm in ["a", "b"] {
            for profile in ["1xT4-16GB", "1xH100-80GB"] {
                for users in [1u32, 2, 4] {
                    ds.rows.push(PerfRow {
                        llm: llm.into(),
                        profile: profile.into(),
                        users,
                        ttft_s: 0.1 * f64::from(users),
                        nttft_s: 0.001 * f64::from(users),
                        itl_s: 0.02,
                        throughput: 100.0 * f64::from(users),
                    });
                }
                ds.tuned_weights.insert((llm.into(), profile.into()), 10_000);
            }
        }
        ds
    }

    #[test]
    fn accessors() {
        let ds = sample();
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.llms(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(ds.profiles().len(), 2);
        assert_eq!(ds.user_counts(), vec![1, 2, 4]);
        assert_eq!(ds.rows_for_llm("a").len(), 6);
        assert_eq!(ds.rows_excluding_llm("a").len(), 6);
        assert!(ds.get("a", "1xT4-16GB", 2).is_some());
        assert!(ds.get("a", "1xT4-16GB", 3).is_none());
        assert!(ds.cell_feasible("b", "1xH100-80GB"));
        assert!(!ds.cell_feasible("c", "1xH100-80GB"));
    }

    #[test]
    fn csv_round_trip() {
        let ds = sample();
        let csv = ds.to_csv();
        let parsed = CharacterizationDataset::from_csv(&csv).unwrap();
        assert_eq!(parsed.rows, ds.rows);
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        assert!(CharacterizationDataset::from_csv("h\na,b,c\n").is_err());
        assert!(CharacterizationDataset::from_csv("h\na,p,x,0.1,0.2,0.3,4\n").is_err());
        assert!(CharacterizationDataset::from_csv("h\na,p,1,zz,0.2,0.3,4\n").is_err());
    }

    fn valid_row() -> PerfRow {
        PerfRow {
            llm: "Llama-2-7b".into(),
            profile: "1xA100-40GB".into(),
            users: 1,
            ttft_s: 0.1,
            nttft_s: 0.001,
            itl_s: 0.02,
            throughput: 100.0,
        }
    }

    #[test]
    fn validate_accepts_catalog_rows() {
        let ds = CharacterizationDataset { rows: vec![valid_row()], ..Default::default() };
        assert!(ds.validate().is_ok());
        assert!(CharacterizationDataset::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_rows() {
        type Mutator = Box<dyn Fn(&mut PerfRow)>;
        let cases: Vec<(&str, Mutator)> = vec![
            ("unknown llm", Box::new(|r| r.llm = "no-such-llm".into())),
            ("unknown profile", Box::new(|r| r.profile = "9xB200".into())),
            ("zero users", Box::new(|r| r.users = 0)),
            ("nan latency", Box::new(|r| r.itl_s = f64::NAN)),
            ("negative throughput", Box::new(|r| r.throughput = -1.0)),
            ("infinite ttft", Box::new(|r| r.ttft_s = f64::INFINITY)),
        ];
        for (what, mutate) in cases {
            let mut row = valid_row();
            mutate(&mut row);
            let ds = CharacterizationDataset { rows: vec![row], ..Default::default() };
            assert!(ds.validate().is_err(), "validate should reject {what}");
        }
    }

    #[test]
    fn validate_rejects_duplicate_keys() {
        let ds =
            CharacterizationDataset { rows: vec![valid_row(), valid_row()], ..Default::default() };
        assert!(matches!(ds.validate(), Err(CoreError::Parse(msg)) if msg.contains("duplicate")));
    }

    #[test]
    fn empty_csv_is_empty_dataset() {
        let ds = CharacterizationDataset::from_csv("header\n").unwrap();
        assert!(ds.is_empty());
    }
}
