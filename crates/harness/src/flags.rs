//! The one command-line parser every binary shares.
//!
//! A binary declares its value flags (each with what its value must
//! be), switches and whether it takes bare arguments in a [`FlagSpec`].
//! [`Flags::finish`] then names every problem in one message ending
//! "(try --help)": unknown flags, unexpected arguments, duplicates, a
//! value flag followed by nothing or by another `--flag`, values that
//! do not parse, and any the caller adds. Usage errors exit 2.

use std::str::FromStr;

/// What one binary (or subcommand) accepts on its command line.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlagSpec {
    /// Flags that take one value, each with what the value must be
    /// ("a number"), for "`--flag` expects a number, got `x`".
    pub values: &'static [(&'static str, &'static str)],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Whether bare arguments (input files) are accepted.
    pub positionals: bool,
    /// What `--help` or `-h` makes [`Flags::finish`] return.
    pub usage: &'static str,
}

/// A command line split against a [`FlagSpec`], collecting problems
/// until [`Flags::finish`].
#[derive(Debug, Default)]
pub struct Flags {
    spec: FlagSpec,
    help: bool,
    /// Declared flags given, with values (`None`: a switch, or missing).
    given: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
    unknown: Vec<String>,
    problems: Vec<String>,
}

impl Flags {
    /// Splits `args` (program name already stripped) against `spec`.
    pub fn parse(spec: &FlagSpec, args: impl IntoIterator<Item = String>) -> Flags {
        let mut flags = Flags {
            spec: *spec,
            ..Flags::default()
        };
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let mut declared = spec.values.iter().map(|(f, _)| f).chain(spec.switches);
            match declared.find(|f| **f == arg) {
                None if arg == "--help" || arg == "-h" => flags.help = true,
                Some(&flag) => {
                    if flags.given.iter().any(|(f, _)| *f == flag) {
                        flags.problems.push(format!("duplicate flag {flag}"));
                    }
                    let mut value = None;
                    if !spec.switches.contains(&flag) {
                        value = args.next_if(|next| !next.starts_with("--"));
                        if value.is_none() {
                            flags.problems.push(format!("{flag} needs a value"));
                        }
                    }
                    flags.given.push((flag, value));
                }
                None if arg.starts_with("--") => flags.unknown.push(format!("`{arg}`")),
                None if spec.positionals => flags.positionals.push(arg),
                None => flags.problems.push(format!("unexpected argument `{arg}`")),
            }
        }
        flags
    }

    /// The value given for `flag`, parsed; `None` when the flag is
    /// absent or its value does not parse (recorded as a problem).
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let declared = self.spec.values.iter().find(|(f, _)| *f == flag);
        let (_, expects) = declared.expect("a declared value flag");
        let raw = self.given.iter().find(|(f, _)| *f == flag)?.1.as_ref()?;
        let value = raw.parse().ok();
        if value.is_none() {
            self.problems
                .push(format!("{flag} expects {expects}, got `{raw}`"));
        }
        value
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        assert!(self.spec.switches.contains(&flag), "{flag} is no switch");
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The bare arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Records a problem the table cannot see (a range, a conflict).
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// `Ok` for a sound command line; the usage text after `--help`;
    /// otherwise one message naming every problem, unknown flags first.
    pub fn finish(self) -> Result<(), String> {
        if self.help {
            return Err(self.spec.usage.to_string());
        }
        let mut parts = self.problems;
        if !self.unknown.is_empty() {
            let plural = if self.unknown.len() == 1 { "" } else { "s" };
            let unknown = format!("unknown flag{plural} {}", self.unknown.join(", "));
            parts.insert(0, unknown);
        }
        if parts.is_empty() {
            return Ok(());
        }
        Err(format!("{} (try --help)", parts.join("; ")))
    }

    /// [`Flags::finish`] for a binary's `main`: on an error (or
    /// `--help`), prints `program: message` and exits 2.
    pub fn finish_or_exit(self, program: &str) {
        if let Err(message) = self.finish() {
            eprintln!("{program}: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FlagSpec = FlagSpec {
        values: &[("--seed", "a number"), ("--out", "a file path")],
        switches: &["--rts"],
        positionals: false,
        usage: "usage: test [--seed N] [--out FILE] [--rts]",
    };

    const FILES: FlagSpec = FlagSpec {
        positionals: true,
        ..SPEC
    };

    /// Parses `argv` against `spec` and reads every declared flag, the
    /// way a binary does before `finish`.
    fn run(spec: &FlagSpec, argv: &[&str]) -> Result<(), String> {
        let mut flags = Flags::parse(spec, argv.iter().map(|s| s.to_string()));
        let _: Option<u64> = flags.value("--seed");
        let _: Option<String> = flags.value("--out");
        flags.switch("--rts");
        flags.finish()
    }

    #[test]
    fn a_sound_command_line_yields_typed_values_and_positionals() {
        let argv = [
            "in.json", "--seed", "3", "--rts", "--out", "o.pcap", "b.json",
        ];
        let mut flags = Flags::parse(&FILES, argv.map(String::from));
        assert_eq!(flags.value::<u64>("--seed"), Some(3));
        assert_eq!(flags.value::<String>("--out").as_deref(), Some("o.pcap"));
        assert!(flags.switch("--rts"));
        assert_eq!(flags.positionals(), ["in.json", "b.json"]);
        flags.finish().unwrap();

        let mut flags = Flags::parse(&SPEC, Vec::new());
        assert_eq!(flags.value::<u64>("--seed"), None);
        assert!(!flags.switch("--rts"));
        assert!(flags.positionals().is_empty());
        flags.finish().unwrap();
    }

    #[test]
    fn unknown_flags_are_named_together() {
        assert_eq!(
            run(&SPEC, &["--bogus", "--rts", "--frob"]).unwrap_err(),
            "unknown flags `--bogus`, `--frob` (try --help)"
        );
    }

    #[test]
    fn a_stray_positional_is_named() {
        assert_eq!(
            run(&SPEC, &["--rts", "extra"]).unwrap_err(),
            "unexpected argument `extra` (try --help)"
        );
        assert!(run(&FILES, &["--rts", "extra"]).is_ok());
    }

    #[test]
    fn a_duplicate_is_an_error() {
        assert_eq!(
            run(&SPEC, &["--seed", "1", "--seed", "2"]).unwrap_err(),
            "duplicate flag --seed (try --help)"
        );
        assert_eq!(
            run(&SPEC, &["--rts", "--rts"]).unwrap_err(),
            "duplicate flag --rts (try --help)"
        );
    }

    #[test]
    fn a_missing_value_is_named_even_before_another_flag() {
        assert_eq!(
            run(&SPEC, &["--out"]).unwrap_err(),
            "--out needs a value (try --help)"
        );
        // `--rts` is not swallowed as the path: it still counts.
        let mut flags = Flags::parse(&SPEC, ["--out", "--rts"].map(String::from));
        assert!(flags.switch("--rts"));
        assert_eq!(flags.value::<String>("--out"), None);
        assert_eq!(
            flags.finish().unwrap_err(),
            "--out needs a value (try --help)"
        );
    }

    #[test]
    fn a_bad_value_says_what_was_expected() {
        assert_eq!(
            run(&SPEC, &["--seed", "two"]).unwrap_err(),
            "--seed expects a number, got `two` (try --help)"
        );
    }

    #[test]
    fn every_problem_lands_in_one_message() {
        let mut flags = Flags::parse(
            &SPEC,
            ["--x", "1", "--seed", "a", "--seed", "b", "--out"].map(String::from),
        );
        let _: Option<u64> = flags.value("--seed");
        flags.problem("--seed must be odd");
        assert_eq!(
            flags.finish().unwrap_err(),
            "unknown flag `--x`; unexpected argument `1`; duplicate flag --seed; \
             --out needs a value; --seed expects a number, got `a`; --seed must be odd \
             (try --help)"
        );
    }

    #[test]
    fn help_returns_the_usage_text() {
        assert_eq!(run(&SPEC, &["--bogus", "-h"]).unwrap_err(), SPEC.usage);
        assert_eq!(run(&SPEC, &["--help"]).unwrap_err(), SPEC.usage);
    }
}
