//! Minimal argument parsing (no external dependencies).
//!
//! Flags come as `--flag value` or `--flag=value`; one positional command
//! leads. The fallible core (`try_*` methods) returns [`ArgError`] so it
//! is unit-testable; the CLI binary wraps it with exit-on-error helpers.

use baryon_workloads::Scale;
use std::collections::BTreeMap;

/// A command-line shape error, displayed to the user verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: one positional command plus `--key value` /
/// `--key=value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: Option<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Unknown shapes — `--flag` without a value, an empty flag name,
    /// stray positionals after the command — fail loudly.
    pub fn try_parse<I: IntoIterator<Item = String>>(items: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = items.into_iter();
        while let Some(item) = it.next() {
            if let Some(key) = item.strip_prefix("--") {
                let (key, value) = match key.split_once('=') {
                    Some((key, value)) => (key, value.to_owned()),
                    None => match it.next() {
                        Some(value) => (key, value),
                        None => return Err(ArgError(format!("flag --{key} needs a value"))),
                    },
                };
                if key.is_empty() {
                    return Err(ArgError(format!("malformed flag `{item}`")));
                }
                out.flags.insert(key.to_owned(), value);
            } else if out.command.is_none() {
                out.command = Some(item);
            } else {
                return Err(ArgError(format!("unexpected argument: {item}")));
            }
        }
        Ok(out)
    }

    /// Parses, printing the error and exiting with status 2 on bad shapes.
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Self {
        Self::try_parse(items).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Refuses every flag outside `known` (space-separated names of the
    /// flags `command` reads), so that a typo or a retired flag cannot
    /// silently run at the defaults.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag (in sorted order).
    pub fn try_only(&self, command: &str, known: &str) -> Result<(), ArgError> {
        let unknown = |key: &&String| !known.split_whitespace().any(|k| k == key.as_str());
        match self.flags.keys().find(unknown) {
            Some(key) => Err(ArgError(format!("unknown flag --{key} for {command}"))),
            None => Ok(()),
        }
    }

    /// [`Args::try_only`]; exits with status 2 on an unknown flag.
    pub fn only(&self, command: &str, known: &str) {
        self.try_only(command, known).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// The positional command, if given.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// A flag's value, if present.
    pub fn get(&self, key: &str) -> Option<String> {
        self.flags.get(key).cloned()
    }

    /// A mandatory flag.
    ///
    /// # Errors
    ///
    /// Fails if the flag is missing.
    pub fn try_require(&self, key: &str) -> Result<String, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Fails on unparsable input.
    pub fn try_num(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("flag --{key} expects a number, got {v}"))),
        }
    }

    /// A mandatory flag; exits with a message if missing.
    pub fn require(&self, key: &str) -> String {
        self.try_require(key).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// A numeric flag with a default; exits on unparsable input.
    pub fn num(&self, key: &str, default: u64) -> u64 {
        self.try_num(key, default).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// A boolean flag with a default (`--key true|false|1|0|on|off`).
    ///
    /// # Errors
    ///
    /// Fails on values outside that set.
    pub fn try_bool(&self, key: &str, default: bool) -> Result<bool, ArgError> {
        match self.flags.get(key).map(String::as_str) {
            None => Ok(default),
            Some("true" | "1" | "on") => Ok(true),
            Some("false" | "0" | "off") => Ok(false),
            Some(v) => Err(ArgError(format!(
                "flag --{key} expects true/false, got {v}"
            ))),
        }
    }

    /// A boolean flag with a default; exits on unparsable input.
    pub fn bool_flag(&self, key: &str, default: bool) -> bool {
        self.try_bool(key, default).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// The capacity scale (`--scale` divisor, default 256).
    pub fn scale(&self) -> Scale {
        Scale {
            divisor: self.num("scale", 256),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Args {
        Args::try_parse(items.iter().map(|s| s.to_string())).expect("well-formed")
    }

    fn parse_err(items: &[&str]) -> ArgError {
        Args::try_parse(items.iter().map(|s| s.to_string())).expect_err("malformed")
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&["run", "--workload", "505.mcf_r", "--insts", "1000"]);
        assert_eq!(a.command(), Some("run"));
        assert_eq!(a.get("workload").as_deref(), Some("505.mcf_r"));
        assert_eq!(a.num("insts", 5), 1000);
        assert_eq!(a.num("warmup", 7), 7);
    }

    #[test]
    fn equals_shape_is_equivalent() {
        let a = parse(&["run", "--workload=505.mcf_r", "--insts=1000"]);
        assert_eq!(a.get("workload").as_deref(), Some("505.mcf_r"));
        assert_eq!(a.num("insts", 5), 1000);
        // Mixed shapes in one line.
        let a = parse(&["run", "--workload=ycsb-a", "--seed", "9"]);
        assert_eq!(a.get("workload").as_deref(), Some("ycsb-a"));
        assert_eq!(a.num("seed", 0), 9);
        // Values may contain `=` themselves.
        let a = parse(&["run", "--csv=out=weird.csv"]);
        assert_eq!(a.get("csv").as_deref(), Some("out=weird.csv"));
        // An explicit empty value is allowed.
        let a = parse(&["run", "--csv="]);
        assert_eq!(a.get("csv").as_deref(), Some(""));
    }

    #[test]
    fn empty_args() {
        let a = parse(&[]);
        assert_eq!(a.command(), None);
        assert!(a.get("x").is_none());
    }

    #[test]
    fn scale_default() {
        assert_eq!(parse(&["list"]).scale().divisor, 256);
        assert_eq!(parse(&["list", "--scale", "512"]).scale().divisor, 512);
        assert_eq!(parse(&["list", "--scale=512"]).scale().divisor, 512);
    }

    #[test]
    fn bool_flags_parse_the_usual_spellings() {
        assert!(!parse(&["run"]).bool_flag("telemetry", false));
        assert!(parse(&["run"]).bool_flag("telemetry", true));
        for on in ["true", "1", "on"] {
            assert!(parse(&["run", "--telemetry", on]).bool_flag("telemetry", false));
        }
        for off in ["false", "0", "off"] {
            assert!(!parse(&["run", "--telemetry", off]).bool_flag("telemetry", true));
        }
        let a = parse(&["run", "--telemetry", "maybe"]);
        assert!(a.try_bool("telemetry", false).is_err());
    }

    #[test]
    fn malformed_shapes_error() {
        assert!(parse_err(&["run", "--insts"]).0.contains("needs a value"));
        assert!(parse_err(&["run", "extra"]).0.contains("unexpected"));
        assert!(parse_err(&["run", "--=5"]).0.contains("malformed flag"));
        assert!(parse_err(&["run", "--"]).0.contains("needs a value"));
    }

    #[test]
    fn only_known_flags_pass() {
        let a = parse(&["run", "--insts", "5", "--seed=2"]);
        assert_eq!(a.try_only("run", "insts seed scale"), Ok(()));
        assert_eq!(
            a.try_only("run", "insts"),
            Err(ArgError("unknown flag --seed for run".into()))
        );
        assert_eq!(parse(&["list"]).try_only("list", ""), Ok(()));
    }

    #[test]
    fn fallible_accessors_report_instead_of_exiting() {
        let a = parse(&["run", "--insts", "abc"]);
        assert!(a.try_require("workload").is_err());
        assert_eq!(a.try_require("insts").as_deref(), Ok("abc"));
        assert!(a.try_num("insts", 1).unwrap_err().0.contains("number"));
        assert_eq!(a.try_num("missing", 17), Ok(17));
    }
}
