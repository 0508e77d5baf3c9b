#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Typed command-line flag parsing for the `llm-pilot` binary.
//!
//! Each `llm-pilot` subcommand (the `serve` daemon included) *declares*
//! its flags instead of hand-rolling a `HashMap<String, String>` with
//! per-call-site `parse().expect` plumbing:
//!
//! ```
//! use llmpilot_cli::Command;
//!
//! let mut cmd = Command::new("demo", "demonstrate typed flags");
//! let out = cmd.required::<String>("out", "FILE", "output path");
//! let users = cmd.flag("users", "N", "number of users", 200u32);
//! let verbose = cmd.switch("verbose", "print more");
//! let args: Vec<String> = vec!["--out".into(), "x.csv".into(), "--verbose".into()];
//! let parsed = cmd.parse(&args).unwrap();
//! assert_eq!(parsed.get(&out), "x.csv");
//! assert_eq!(parsed.get(&users), 200);
//! assert!(parsed.get(&verbose));
//! ```
//!
//! Each [`Command`] generates its own `--help` text; unknown flags,
//! missing values, and failed parses/validations are reported as
//! [`CliError::Usage`], which [`Command::parse_or_exit`] turns into the
//! conventional exit code 2 (`--help` exits 0).

use std::any::Any;
use std::fmt::Display;
use std::marker::PhantomData;
use std::str::FromStr;

/// A typed handle to a declared flag; index into the command's spec table.
pub struct Flag<T> {
    index: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Flag<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Flag<T> {}

enum Kind {
    /// `--name VALUE`
    Value,
    /// `--name` (boolean presence)
    Switch,
}

type ParseFn = Box<dyn Fn(&str) -> Result<Box<dyn Any>, String>>;
type DefaultFn = Box<dyn Fn() -> Box<dyn Any>>;

struct FlagSpec {
    name: &'static str,
    value_name: &'static str,
    help: String,
    kind: Kind,
    required: bool,
    default_text: Option<String>,
    parse: ParseFn,
    default: Option<DefaultFn>,
}

/// Errors surfaced by [`Command::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given; the caller should print help and exit 0.
    Help,
    /// A usage error; the caller should print it and exit 2.
    Usage(String),
}

impl Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

/// One subcommand: its declared flags and generated help.
pub struct Command {
    name: String,
    about: String,
    specs: Vec<FlagSpec>,
    max_positionals: usize,
    positional_doc: String,
}

impl Command {
    /// A new command. `name` is the full invocation prefix shown in usage
    /// lines (e.g. `"llm-pilot characterize"`).
    pub fn new(name: impl Into<String>, about: impl Into<String>) -> Self {
        Command {
            name: name.into(),
            about: about.into(),
            specs: Vec::new(),
            max_positionals: 0,
            positional_doc: String::new(),
        }
    }

    /// Allow up to `max` positional arguments, documented as `doc`.
    pub fn positionals(&mut self, max: usize, doc: impl Into<String>) {
        self.max_positionals = max;
        self.positional_doc = doc.into();
    }

    fn push<T>(&mut self, spec: FlagSpec) -> Flag<T> {
        assert!(self.specs.iter().all(|s| s.name != spec.name), "duplicate flag --{}", spec.name);
        self.specs.push(spec);
        Flag { index: self.specs.len() - 1, _marker: PhantomData }
    }

    /// An optional `--name VALUE` flag with a default.
    pub fn flag<T>(
        &mut self,
        name: &'static str,
        value_name: &'static str,
        help: impl Into<String>,
        default: T,
    ) -> Flag<T>
    where
        T: FromStr + Display + Clone + 'static,
    {
        self.flag_checked(name, value_name, help, default, |_| true, "")
    }

    /// An optional `--name VALUE` flag with a default and a validity
    /// `check`; rejected values report the violated `constraint`.
    pub fn flag_checked<T>(
        &mut self,
        name: &'static str,
        value_name: &'static str,
        help: impl Into<String>,
        default: T,
        check: impl Fn(&T) -> bool + 'static,
        constraint: &str,
    ) -> Flag<T>
    where
        T: FromStr + Display + Clone + 'static,
    {
        let mut help = help.into();
        if !constraint.is_empty() {
            help.push_str(&format!(" (must be {constraint})"));
        }
        let constraint = constraint.to_string();
        let flag_name = name;
        self.push(FlagSpec {
            name,
            value_name,
            help,
            kind: Kind::Value,
            required: false,
            default_text: Some(default.to_string()),
            parse: Box::new(move |raw| {
                let value: T =
                    raw.parse().map_err(|_| format!("invalid value for --{flag_name}: {raw:?}"))?;
                if !check(&value) {
                    return Err(format!("--{flag_name} must be {constraint}, got {raw:?}"));
                }
                Ok(Box::new(value))
            }),
            default: Some(Box::new(move || Box::new(default.clone()))),
        })
    }

    /// A required `--name VALUE` flag.
    pub fn required<T>(
        &mut self,
        name: &'static str,
        value_name: &'static str,
        help: impl Into<String>,
    ) -> Flag<T>
    where
        T: FromStr + Clone + 'static,
    {
        let flag_name = name;
        self.push(FlagSpec {
            name,
            value_name,
            help: help.into(),
            kind: Kind::Value,
            required: true,
            default_text: None,
            parse: Box::new(move |raw| {
                let value: T =
                    raw.parse().map_err(|_| format!("invalid value for --{flag_name}: {raw:?}"))?;
                Ok(Box::new(value))
            }),
            default: None,
        })
    }

    /// An optional `--name VALUE` flag with no default: parses to
    /// `Some(value)` when given, `None` otherwise.
    pub fn optional<T>(
        &mut self,
        name: &'static str,
        value_name: &'static str,
        help: impl Into<String>,
    ) -> Flag<Option<T>>
    where
        T: FromStr + Clone + 'static,
    {
        let flag_name = name;
        self.push(FlagSpec {
            name,
            value_name,
            help: help.into(),
            kind: Kind::Value,
            required: false,
            default_text: None,
            parse: Box::new(move |raw| {
                let value: T =
                    raw.parse().map_err(|_| format!("invalid value for --{flag_name}: {raw:?}"))?;
                Ok(Box::new(Some(value)))
            }),
            default: Some(Box::new(|| Box::new(None::<T>))),
        })
    }

    /// A boolean `--name` switch (true when present).
    pub fn switch(&mut self, name: &'static str, help: impl Into<String>) -> Flag<bool> {
        self.push(FlagSpec {
            name,
            value_name: "",
            help: help.into(),
            kind: Kind::Switch,
            required: false,
            default_text: None,
            parse: Box::new(|_| Ok(Box::new(true))),
            default: Some(Box::new(|| Box::new(false))),
        })
    }

    /// The generated help text for this command.
    pub fn help(&self) -> String {
        let mut out = format!("{} — {}\n\n", self.name, self.about);
        out.push_str(&format!("usage: {} [flags]", self.name));
        if self.max_positionals > 0 {
            out.push_str(&format!(" {}", self.positional_doc));
        }
        out.push_str("\n\nflags:\n");
        let mut rows: Vec<(String, &str)> = Vec::new();
        for spec in &self.specs {
            let left = match spec.kind {
                Kind::Switch => format!("--{}", spec.name),
                Kind::Value => format!("--{} {}", spec.name, spec.value_name),
            };
            rows.push((left, &spec.help));
        }
        rows.push(("--help".to_string(), "show this help"));
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (i, (left, help)) in rows.iter().enumerate() {
            out.push_str(&format!("  {left:<width$}  {help}"));
            if let Some(spec) = self.specs.get(i) {
                if spec.required {
                    out.push_str(" (required)");
                } else if let Some(d) = &spec.default_text {
                    out.push_str(&format!(" [default: {d}]"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// The one-line usage hint appended to usage errors.
    fn usage_hint(&self) -> String {
        format!("run `{} --help` for usage", self.name)
    }

    /// Parse `args` (everything after the subcommand word).
    pub fn parse(&self, args: &[String]) -> Result<Parsed, CliError> {
        let mut values: Vec<Option<Box<dyn Any>>> = self.specs.iter().map(|_| None).collect();
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let token = &args[i];
            if token == "--help" || token == "-h" {
                return Err(CliError::Help);
            }
            let name = token
                .strip_prefix("--")
                .or_else(|| token.strip_prefix('-').filter(|_| token.len() > 1));
            match name {
                Some(name) => {
                    let Some(idx) = self.specs.iter().position(|s| s.name == name) else {
                        return Err(CliError::Usage(format!("unknown flag {token}")));
                    };
                    let spec = &self.specs[idx];
                    let raw = match spec.kind {
                        Kind::Switch => "",
                        Kind::Value => {
                            i += 1;
                            match args.get(i) {
                                Some(raw) => raw.as_str(),
                                None => {
                                    return Err(CliError::Usage(format!(
                                        "missing value for --{name}"
                                    )))
                                }
                            }
                        }
                    };
                    values[idx] = Some((spec.parse)(raw).map_err(CliError::Usage)?);
                    i += 1;
                }
                None => {
                    positionals.push(token.clone());
                    i += 1;
                }
            }
        }
        if positionals.len() > self.max_positionals {
            return Err(CliError::Usage(format!(
                "unexpected argument {:?}",
                positionals[self.max_positionals]
            )));
        }
        let mut filled = Vec::with_capacity(values.len());
        for (value, spec) in values.into_iter().zip(&self.specs) {
            match value {
                Some(v) => filled.push(v),
                None => match &spec.default {
                    Some(default) => filled.push(default()),
                    None => {
                        return Err(CliError::Usage(format!("missing required --{}", spec.name)))
                    }
                },
            }
        }
        Ok(Parsed { values: filled, positionals })
    }

    /// [`Command::parse`], mapping `--help` to exit 0 and usage errors to
    /// an `error: …` line plus exit 2.
    pub fn parse_or_exit(&self, args: &[String]) -> Parsed {
        match self.parse(args) {
            Ok(parsed) => parsed,
            Err(CliError::Help) => {
                print!("{}", self.help());
                std::process::exit(0)
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("error: {msg}");
                eprintln!("{}", self.usage_hint());
                std::process::exit(2)
            }
        }
    }
}

/// The parsed flag values of one invocation.
pub struct Parsed {
    values: Vec<Box<dyn Any>>,
    positionals: Vec<String>,
}

impl Parsed {
    /// The value of a declared flag. Panics only on a mismatched
    /// `Flag` handle from a *different* `Command` (a programming error).
    pub fn get<T: Clone + 'static>(&self, flag: &Flag<T>) -> T {
        self.values[flag.index]
            .downcast_ref::<T>()
            .expect("Flag handle used with a foreign Command")
            .clone()
    }

    /// Positional (non-flag) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn typed_defaults_required_and_switches() {
        let mut cmd = Command::new("t", "test");
        let out = cmd.required::<String>("out", "FILE", "output");
        let n = cmd.flag("n", "N", "count", 10u32);
        let v = cmd.switch("verbose", "more");
        let llm = cmd.optional::<String>("llm", "NAME", "restrict");
        let p = cmd.parse(&args(&["--out", "x.csv", "--verbose"])).unwrap();
        assert_eq!(p.get(&out), "x.csv");
        assert_eq!(p.get(&n), 10);
        assert!(p.get(&v));
        assert_eq!(p.get(&llm), None);
        let p = cmd.parse(&args(&["--out", "y", "--n", "3", "--llm", "z"])).unwrap();
        assert_eq!(p.get(&n), 3);
        assert_eq!(p.get(&llm), Some("z".to_string()));
    }

    #[test]
    fn single_dash_matches_by_name() {
        let mut cmd = Command::new("t", "test");
        let n = cmd.flag("n", "N", "count", 1u32);
        let p = cmd.parse(&args(&["-n", "5"])).unwrap();
        assert_eq!(p.get(&n), 5);
    }

    #[test]
    fn unknown_flag_missing_value_and_missing_required_are_usage_errors() {
        let mut cmd = Command::new("t", "test");
        let _out = cmd.required::<String>("out", "FILE", "output");
        assert!(matches!(
            cmd.parse(&args(&["--nope", "1"])),
            Err(CliError::Usage(msg)) if msg.contains("unknown flag --nope")
        ));
        assert!(matches!(
            cmd.parse(&args(&["--out"])),
            Err(CliError::Usage(msg)) if msg.contains("missing value")
        ));
        assert!(matches!(
            cmd.parse(&args(&[])),
            Err(CliError::Usage(msg)) if msg.contains("missing required --out")
        ));
    }

    #[test]
    fn checked_flags_report_the_constraint() {
        let mut cmd = Command::new("t", "test");
        let _p = cmd.flag_checked(
            "prob",
            "P",
            "probability",
            0.0f64,
            |v| (0.0..=1.0).contains(v),
            "a probability in [0, 1]",
        );
        assert!(matches!(
            cmd.parse(&args(&["--prob", "1.5"])),
            Err(CliError::Usage(msg)) if msg.contains("a probability in [0, 1]")
        ));
        assert!(matches!(
            cmd.parse(&args(&["--prob", "abc"])),
            Err(CliError::Usage(msg)) if msg.contains("invalid value")
        ));
        assert!(cmd.parse(&args(&["--prob", "0.5"])).is_ok());
    }

    #[test]
    fn help_lists_every_flag_with_defaults() {
        let mut cmd = Command::new("llm-pilot demo", "a demo");
        let _a = cmd.required::<String>("out", "FILE", "output path");
        let _b = cmd.flag("duration", "SECS", "virtual seconds", 120.0f64);
        let _c = cmd.switch("trace-summary", "print span summary");
        assert!(matches!(cmd.parse(&args(&["--help"])), Err(CliError::Help)));
        let help = cmd.help();
        assert!(help.contains("llm-pilot demo"));
        assert!(help.contains("--out FILE"));
        assert!(help.contains("(required)"));
        assert!(help.contains("[default: 120]"));
        assert!(help.contains("--trace-summary"));
    }

    #[test]
    fn positionals_are_bounded() {
        let mut cmd = Command::new("t", "test");
        cmd.positionals(1, "ACTION");
        let p = cmd.parse(&args(&["fit"])).unwrap();
        assert_eq!(p.positionals(), ["fit"]);
        assert!(matches!(cmd.parse(&args(&["fit", "extra"])), Err(CliError::Usage(_))));
        let strict = Command::new("s", "strict");
        assert!(matches!(strict.parse(&args(&["stray"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn last_occurrence_wins_and_negative_numbers_are_not_flags() {
        let mut cmd = Command::new("t", "test");
        let n = cmd.flag("n", "N", "count", 1i64);
        let p = cmd.parse(&args(&["--n", "2", "--n", "7"])).unwrap();
        assert_eq!(p.get(&n), 7);
        // A lone "-" is positional, not a flag.
        let mut cmd2 = Command::new("t2", "test");
        cmd2.positionals(1, "WORD");
        let p = cmd2.parse(&args(&["-"])).unwrap();
        assert_eq!(p.positionals(), ["-"]);
    }
}
