//! Command-line parsing shared by the gate binaries (`load_sim`,
//! `warm_start`, `scaling_sweep`, `chaos`).
//!
//! Each binary names its own *shaping* flags — the ones that change the
//! configuration — and parses their values; this module handles the
//! rest the same way everywhere:
//!
//! * `--smoke` and `--quiet`;
//! * `--budget-seconds S`, which only `--smoke` enforces, so any other
//!   run refuses it rather than silently ignoring it;
//! * pinned modes (`--smoke`, plus switches such as `load_sim
//!   --evented`) refuse shaping flags rather than silently ignoring them;
//! * an unknown argument is refused with the binary's flag list.
//!
//! Every refusal goes to stderr as `<bin>: <reason>`, and the binary
//! exits 1.

use std::process::ExitCode;
use std::str::FromStr;

/// The flags every gate binary shares, after parsing.
#[derive(Debug, Default)]
pub struct GateArgs {
    /// `--smoke`: the pinned CI configuration.
    pub smoke: bool,
    /// `--quiet`: no summary table.
    pub quiet: bool,
    /// `--budget-seconds S` (only with `--smoke`).
    pub budget_seconds: Option<f64>,
    /// The binary's own switches that were passed (see [`GateArgs::has`]).
    switches: Vec<&'static str>,
    /// Shaping flags that were passed, in order.
    shaping: Vec<String>,
}

/// The value side of the command line, handed to a binary's shaping
/// parser.
pub struct Values(std::vec::IntoIter<String>);

impl Values {
    /// The next argument, as the value of `flag`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.0.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag}: {v}"))
    }
}

impl GateArgs {
    /// Parses `args` for binary `bin`.
    ///
    /// `switches` are the binary's pinned-mode switches; `budget` says
    /// whether it accepts `--budget-seconds`; `flags` is the hint listed
    /// after an unknown argument. `shape` parses one shaping flag and
    /// its value into the binary's configuration, returning `false` for
    /// a flag it does not know. A refused command line is reported and
    /// comes back as the exit code.
    pub fn parse(
        bin: &'static str,
        args: impl Iterator<Item = String>,
        switches: &[&'static str],
        budget: bool,
        flags: &str,
        shape: impl FnMut(&str, &mut Values) -> Result<bool, String>,
    ) -> Result<GateArgs, ExitCode> {
        Self::try_parse(args, switches, budget, flags, shape)
            .and_then(|parsed| parsed.refusal().map_or(Ok(parsed), Err))
            .map_err(|reason| {
                crate::progress::fail(bin, format!("{bin}: {reason}"));
                ExitCode::FAILURE
            })
    }

    fn try_parse(
        args: impl Iterator<Item = String>,
        switches: &[&'static str],
        budget: bool,
        flags: &str,
        mut shape: impl FnMut(&str, &mut Values) -> Result<bool, String>,
    ) -> Result<GateArgs, String> {
        let mut out = GateArgs::default();
        let mut values = Values(args.collect::<Vec<_>>().into_iter());
        while let Some(arg) = values.0.next() {
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                "--quiet" => out.quiet = true,
                "--budget-seconds" if budget => {
                    out.budget_seconds = Some(values.value("--budget-seconds")?)
                }
                other => {
                    if let Some(switch) = switches.iter().find(|s| **s == other) {
                        out.switches.push(*switch);
                    } else if shape(other, &mut values)? {
                        out.shaping.push(arg);
                    } else {
                        return Err(format!("unknown argument: {other} (try {flags})"));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Why this command line is refused, if it is.
    fn refusal(&self) -> Option<String> {
        let pinned = self.smoke.then_some("--smoke");
        if let Some(mode) = pinned
            .into_iter()
            .chain(self.switches.iter().copied())
            .next()
        {
            if !self.shaping.is_empty() {
                return Some(format!(
                    "{mode} runs a pinned configuration and does not accept {}",
                    self.shaping.join(", ")
                ));
            }
        }
        (self.budget_seconds.is_some() && !self.smoke)
            .then(|| "--budget-seconds only applies to --smoke".to_string())
    }

    /// Whether `switch` was passed.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(GateArgs, usize), String> {
        let mut n = 0usize;
        let args = line.split_whitespace().map(String::from);
        let parsed = GateArgs::try_parse(args, &["--evented"], true, "--n", |flag, v| {
            Ok(match flag {
                "--n" => {
                    n = v.value(flag)?;
                    true
                }
                _ => false,
            })
        })?;
        match parsed.refusal() {
            Some(reason) => Err(reason),
            None => Ok((parsed, n)),
        }
    }

    #[test]
    fn pinned_modes_refuse_shaping_and_budget_needs_smoke() {
        let (args, n) = parse("--n 64 --quiet").unwrap();
        assert_eq!(n, 64);
        assert!(args.quiet && !args.smoke);
        let (args, _) = parse("--smoke --budget-seconds 9").unwrap();
        assert_eq!(args.budget_seconds, Some(9.0));
        assert!(parse("--evented").unwrap().0.has("--evented"));

        let refused = |line: &str| parse(line).err().unwrap();
        assert_eq!(
            refused("--smoke --n 64"),
            "--smoke runs a pinned configuration and does not accept --n"
        );
        assert_eq!(
            refused("--evented --n 64"),
            "--evented runs a pinned configuration and does not accept --n"
        );
        assert_eq!(
            refused("--budget-seconds 9"),
            "--budget-seconds only applies to --smoke"
        );
        assert_eq!(refused("--n"), "--n needs a value");
        assert_eq!(refused("--n x"), "bad --n: x");
        assert_eq!(refused("--out x"), "unknown argument: --out (try --n)");
    }
}
