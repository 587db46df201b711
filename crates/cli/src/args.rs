//! Minimal `--key value` / `--flag` argument parsing (no external deps).

use std::collections::BTreeMap;

/// Parsed arguments: `--key value` pairs and bare `--flags`.
#[derive(Debug, Default, Clone)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an argument list. Every option must start with `--`; an
    /// option followed by another option (or nothing) is a flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got {:?}", argv[i]))?;
            if key.is_empty() {
                return Err("empty option name".to_string());
            }
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    args.values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    args.flags.push(key.to_string());
                    i += 1;
                }
            }
        }
        Ok(args)
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// An optional float option.
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.values
            .get(key)
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--{key} expects a number, got {s:?}"))
            })
            .transpose()
    }

    /// An optional positive-integer option (≥ 1).
    pub fn get_usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.values
            .get(key)
            .map(|s| match s.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("--{key} expects an integer ≥ 1, got {s:?}")),
            })
            .transpose()
    }

    /// An optional byte-size option: a non-negative integer with an
    /// optional binary `k`/`m`/`g` suffix (case-insensitive), e.g.
    /// `--memory-budget 64m`. Zero is allowed — it is the evict-everything
    /// extreme of the residency policy.
    pub fn get_bytes(&self, key: &str) -> Result<Option<usize>, String> {
        let Some(raw) = self.values.get(key) else {
            return Ok(None);
        };
        let err =
            || format!("--{key} expects a byte size (e.g. 512k, 64m, 2g, 1048576), got {raw:?}");
        let (digits, mult) = match raw.chars().last().map(|c| c.to_ascii_lowercase()) {
            Some('k') => (&raw[..raw.len() - 1], 1usize << 10),
            Some('m') => (&raw[..raw.len() - 1], 1 << 20),
            Some('g') => (&raw[..raw.len() - 1], 1 << 30),
            _ => (raw.as_str(), 1),
        };
        let n: usize = digits.parse().map_err(|_| err())?;
        n.checked_mul(mult).map(Some).ok_or_else(err)
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects options/flags outside a sub-command's vocabulary, so typos
    /// fail with that sub-command's usage instead of silently parsing. A
    /// value option that swallowed no value (it was last, or followed by
    /// another option) and a flag that swallowed one are reported with a
    /// targeted hint.
    pub fn validate(&self, options: &[&str], flags: &[&str]) -> Result<(), String> {
        for key in self.values.keys() {
            if !options.contains(&key.as_str()) {
                return Err(if flags.contains(&key.as_str()) {
                    format!("--{key} does not take a value")
                } else {
                    format!("unknown option --{key}")
                });
            }
        }
        for key in &self.flags {
            if !flags.contains(&key.as_str()) {
                return Err(if options.contains(&key.as_str()) {
                    format!("--{key} expects a value")
                } else {
                    format!("unknown flag --{key}")
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let a = Args::parse(&s(&["--d1", "a.csv", "--no-glue", "--c", "2.5"])).unwrap();
        assert_eq!(a.required("d1").unwrap(), "a.csv");
        assert!(a.flag("no-glue"));
        assert_eq!(a.get_f64("c").unwrap(), Some(2.5));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn usize_requires_positive_integer() {
        let a = Args::parse(&s(&["--threads", "4", "--k", "0", "--b", "x"])).unwrap();
        assert_eq!(a.get_usize("threads").unwrap(), Some(4));
        assert_eq!(a.get_usize("missing").unwrap(), None);
        assert!(a.get_usize("k").is_err(), "zero rejected");
        assert!(a.get_usize("b").is_err());
    }

    #[test]
    fn bytes_accept_plain_and_suffixed_sizes() {
        let a = Args::parse(&s(&[
            "--a", "1048576", "--b", "512k", "--c", "64M", "--d", "2g", "--e", "0", "--f", "64q",
        ]))
        .unwrap();
        assert_eq!(a.get_bytes("a").unwrap(), Some(1 << 20));
        assert_eq!(a.get_bytes("b").unwrap(), Some(512 << 10));
        assert_eq!(a.get_bytes("c").unwrap(), Some(64 << 20));
        assert_eq!(a.get_bytes("d").unwrap(), Some(2 << 30));
        assert_eq!(
            a.get_bytes("e").unwrap(),
            Some(0),
            "zero is the evict-everything budget"
        );
        assert_eq!(a.get_bytes("missing").unwrap(), None);
        assert!(a.get_bytes("f").is_err(), "unknown suffix rejected");
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Args::parse(&s(&["oops"])).is_err());
    }

    #[test]
    fn missing_required_reports_option_name() {
        let a = Args::parse(&[]).unwrap();
        let err = a.required("gt").unwrap_err();
        assert!(err.contains("--gt"));
    }

    #[test]
    fn bad_number_reports_value() {
        let a = Args::parse(&s(&["--c", "abc"])).unwrap();
        assert!(a.get_f64("c").is_err());
    }

    #[test]
    fn validate_accepts_the_vocabulary() {
        let a = Args::parse(&s(&["--input", "x.csv", "--verify"])).unwrap();
        assert!(a.validate(&["input", "batch-size"], &["verify"]).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_and_misused_options() {
        let a = Args::parse(&s(&["--inptu", "x.csv"])).unwrap();
        let err = a.validate(&["input"], &["verify"]).unwrap_err();
        assert!(err.contains("unknown option --inptu"), "{err}");

        // A value option with no value parses as a flag; the error says
        // what is missing rather than calling it unknown.
        let a = Args::parse(&s(&["--input"])).unwrap();
        let err = a.validate(&["input"], &[]).unwrap_err();
        assert!(err.contains("--input expects a value"), "{err}");

        // A flag that swallowed a value gets the inverse hint.
        let a = Args::parse(&s(&["--verify", "yes"])).unwrap();
        let err = a.validate(&["input"], &["verify"]).unwrap_err();
        assert!(err.contains("--verify does not take a value"), "{err}");
    }

    #[test]
    fn parallel_opts_parse_together() {
        let a = Args::parse(&s(&["--threads", "4"])).unwrap();
        assert_eq!(a.get_usize("threads").unwrap(), Some(4));
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.get_usize("threads").unwrap(), None, "absent = auto-scale");
        let a = Args::parse(&s(&["--threads", "0"])).unwrap();
        assert!(a.get_usize("threads").is_err(), "zero threads rejected");
    }
}
