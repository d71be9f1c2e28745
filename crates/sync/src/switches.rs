//! The runtime switch table: every `START_*` environment variable the
//! library reads, parsed once per process, here, by one grammar. README.md
//! ("Runtime switches") tabulates each variable's values, default and
//! reader; `START_SCALE` sizes the experiments and is read in `crates/bench`.
//!
//! The grammar: an unset or empty variable gives the default, an accepted
//! value sets the switch, and any other value (`true`, `on`, a typo) keeps
//! the default and is reported once on stderr, so it never flips a switch.

use std::sync::OnceLock as StdOnceLock; // sync-ok: the switch table's own plumbing

/// The parsed switches; [`switches`] holds the process's table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Switches {
    /// `START_AUDIT` (`0`/`1`, on in debug builds): `fit` audits its first tape.
    pub audit: bool,
    /// `START_MEM_PLAN` (`0`/`1`, on): `BatchTrainer` plans backward releases.
    pub mem_plan: bool,
    /// `START_SANITIZE` (`0`/`1`, on in debug builds): the aliasing and
    /// lock-order sanitizers run.
    pub sanitize: bool,
    /// `START_BACKEND` (`auto`/`simd`/`scalar`, `auto`) is `scalar`: force
    /// the scalar kernels; `auto` and `simd` take SIMD when the CPU has it.
    pub scalar_backend: bool,
    /// Each set value no switch accepts, as `START_NAME=value`.
    pub ignored: Vec<String>,
}

const OFF_ON: &[(&str, bool)] = &[("0", false), ("1", true)];

impl Switches {
    /// Parse every switch from `lookup`, which maps a variable's name after
    /// `START_` (`AUDIT`, …) to its value if set: a pure function of those
    /// values.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let mut ignored = Vec::new();
        let mut read = |name: &str, accepted: &[(&str, bool)], default: bool| {
            let value = lookup(name).unwrap_or_default();
            match accepted.iter().find(|(v, _)| *v == value) {
                Some(&(_, setting)) => setting,
                None if value.is_empty() => default,
                None => {
                    ignored.push(format!("START_{name}={value}"));
                    default
                }
            }
        };
        let debug = cfg!(debug_assertions);
        Self {
            audit: read("AUDIT", OFF_ON, debug),
            mem_plan: read("MEM_PLAN", OFF_ON, true),
            sanitize: read("SANITIZE", OFF_ON, debug),
            scalar_backend: read(
                "BACKEND",
                &[("auto", false), ("simd", false), ("scalar", true)],
                false,
            ),
            ignored,
        }
    }
}

/// The process's switch table, parsed from the environment on first use
/// (reporting ignored values on stderr) and fixed from then on.
pub fn switches() -> &'static Switches {
    static TABLE: StdOnceLock<Switches> = StdOnceLock::new(); // sync-ok: the switch table's own plumbing
    TABLE.get_or_init(|| {
        let table = Switches::from_lookup(|name| std::env::var("START_".to_owned() + name).ok());
        for set in &table.ignored {
            eprintln!("start: ignoring {set}: not an accepted value, the default applies");
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table with only `START_<name>` set.
    fn with(name: &str, value: Option<&str>) -> Switches {
        let name = name.strip_prefix("START_").unwrap_or(name);
        Switches::from_lookup(|n| if n == name { value.map(str::to_string) } else { None })
    }

    #[test]
    fn unset_and_empty_give_the_defaults() {
        let defaults = Switches {
            audit: cfg!(debug_assertions),
            mem_plan: true,
            sanitize: cfg!(debug_assertions),
            scalar_backend: false,
            ignored: Vec::new(),
        };
        assert_eq!(Switches::from_lookup(|_| None), defaults);
        for name in ["START_AUDIT", "START_MEM_PLAN", "START_SANITIZE", "START_BACKEND"] {
            assert_eq!(with(name, Some("")), defaults, "{name}");
        }
    }

    #[test]
    fn zero_and_one_set_each_flag() {
        for (value, on) in [("0", false), ("1", true)] {
            assert_eq!(with("START_AUDIT", Some(value)).audit, on);
            assert_eq!(with("START_MEM_PLAN", Some(value)).mem_plan, on);
            assert_eq!(with("START_SANITIZE", Some(value)).sanitize, on);
        }
        assert!(with("START_BACKEND", Some("scalar")).scalar_backend);
        assert!(!with("START_BACKEND", Some("simd")).scalar_backend);
        assert!(!with("START_BACKEND", Some("auto")).scalar_backend);
    }

    #[test]
    fn unrecognised_values_never_flip_a_switch_and_are_reported() {
        let defaults = Switches::from_lookup(|_| None);
        for (name, value) in [
            ("START_AUDIT", "false"),
            ("START_AUDIT", "on"),
            ("START_MEM_PLAN", "false"),
            ("START_SANITIZE", "false"),
            ("START_SANITIZE", "yes"),
            ("START_BACKEND", "scaler"),
            ("START_BACKEND", "SCALAR"),
        ] {
            let parsed = with(name, Some(value));
            assert_eq!(parsed.ignored, vec![format!("{name}={value}")]);
            assert_eq!(Switches { ignored: Vec::new(), ..parsed }, defaults, "{name}={value}");
        }
    }
}
