//! Flag parsing for the `mc2ls` tool (plain `std`, no dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// Usage text printed on parse errors and `mc2ls help`.
pub const USAGE: &str = "\
usage: mc2ls <command> [flags]

commands:
  generate   --preset california|new-york [--scale S] [--seed N] --out FILE
  stats      --data FILE | --preset P [--scale S]
  solve      --data FILE | --preset P [--scale S]
             [--candidates N] [--facilities M] [-k K] [--tau T]
             [--method baseline|kcifp|iqt|iqt-c|iqt-pino] [--threads T]
             [--block-size auto|plain|B] [--pf-exact]
             [--model cumulative|logit] [--candidates-file FILE]
             [--selector rescan|celf|decremental|auto]
             [--svg FILE] [--json]
  analyze    --data FILE | --preset P [--scale S]
             [--candidates N] [--facilities M] [-k K] [--tau T]
             [--block-size auto|plain|B] [--pf-exact]
             [--selector rescan|celf|decremental|auto]
  convert    --checkins FILE --out FILE [--bounds ny|ca] [--min-positions N]
  candgen    --data FILE | --preset P [--scale S] --window W --out FILE
             [-m M] [--min-separation D] [--threads T] [--json]
             (MaxRS-style sweep: proposes top-m candidate sites from the
             users' positions; solve/snapshot consume the emitted file
             via --candidates-file)
  snapshot   save --preset P | --data FILE [--scale S] [--candidates N]
             [--facilities M] [-k K] [--tau T] [--block-size auto|plain|B]
             [--model cumulative|logit] [--candidates-file FILE]
             [--threads T] [--shards N] [--site-seed N] --out FILE.mc2s
             load --file FILE.mc2s  (verify + print metadata)
             diff --base FILE.mc2s --target FILE.mc2s --out FILE.mc2d
  serve      --snapshot FILE.mc2s [--addr HOST:PORT] [--workers N]
             [--threads T] [--shards N] [--cache N] [--max-pending N]
             [--coalesce-us N] [--port-file FILE]
             or: --live --preset P | --data FILE [instance flags]
             [--leaf-diagonal D]  (accepts the UPDATE verb, no snapshot)
  query      --addr HOST:PORT [--candidates 1,2,3] [-k K]
             [--selector rescan|celf|decremental|auto] [--tau T]
             [--block-size auto|plain|B] [--pf-exact] [--json]
             [--model cumulative|logit]  (must match the snapshot)
             [--stats] [--reload FILE.mc2s] [--shutdown]
             [--propose --window W [-m M] [--min-separation D]]
             (PROPOSE: server-side sweep over the snapshot's positions)
  update     --addr HOST:PORT --checkins FILE [--bounds ny|ca]
             [--batch N] [--limit N] [--anchor-lat A] [--anchor-lon B]
             (replays a timestamped SNAP check-in stream as UPDATE batches)
  help";

/// A parsed command line: the subcommand plus flag key/value pairs.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The subcommand name.
    pub command: String,
    /// The action token of commands that take one (`snapshot save|load`);
    /// `None` for every other command.
    pub action: Option<String>,
    flags: BTreeMap<String, String>,
}

/// Argument-parsing errors.
#[derive(Debug)]
pub enum ArgError {
    /// No subcommand given.
    Missing,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A flag without its value, or a stray positional.
    Malformed(String),
    /// A flag value failed to parse.
    BadValue(String, String),
    /// A mandatory flag is absent.
    Required(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing => write!(f, "missing command"),
            ArgError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            ArgError::Malformed(a) => write!(f, "malformed argument '{a}'"),
            ArgError::BadValue(k, v) => write!(f, "bad value '{v}' for --{k}"),
            ArgError::Required(k) => write!(f, "missing required flag --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

const COMMANDS: &[&str] = &[
    "generate", "stats", "solve", "analyze", "convert", "candgen", "snapshot", "serve", "query",
    "update", "help",
];
/// Boolean flags that take no value.
const SWITCHES: &[&str] = &["json", "stats", "shutdown", "pf-exact", "live", "propose"];
/// Commands taking a positional action token before their flags, with the
/// actions each admits.
const ACTIONS: &[(&str, &[&str])] = &[("snapshot", &["save", "load", "diff"])];

impl Parsed {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Parsed, ArgError> {
        let (command, mut rest) = args.split_first().ok_or(ArgError::Missing)?;
        if !COMMANDS.contains(&command.as_str()) {
            return Err(ArgError::UnknownCommand(command.clone()));
        }
        let mut action = None;
        if let Some((_, admitted)) = ACTIONS.iter().find(|(c, _)| c == command) {
            let (token, after) = rest
                .split_first()
                .ok_or_else(|| ArgError::Required("<action>".into()))?;
            if !admitted.contains(&token.as_str()) {
                return Err(ArgError::BadValue("<action>".into(), token.clone()));
            }
            action = Some(token.clone());
            rest = after;
        }
        let mut flags = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .or_else(|| arg.strip_prefix('-'))
                .ok_or_else(|| ArgError::Malformed(arg.clone()))?;
            if key.is_empty() {
                return Err(ArgError::Malformed(arg.clone()));
            }
            if SWITCHES.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| ArgError::Malformed(format!("--{key} needs a value")))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Parsed {
            command: command.clone(),
            action,
            flags,
        })
    }

    /// The raw string value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A mandatory string flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Required(key.into()))
    }

    /// An optional typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue(key.into(), v.into())),
        }
    }

    /// A boolean switch.
    pub fn switch(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags_and_switches() {
        let p = Parsed::parse(&to_args("solve --data x.json -k 5 --json")).unwrap();
        assert_eq!(p.command, "solve");
        assert_eq!(p.get("data"), Some("x.json"));
        assert_eq!(p.get_or("k", 1usize).unwrap(), 5);
        assert!(p.switch("json"));
        assert!(!p.switch("svg"));
    }

    #[test]
    fn rejects_unknown_command() {
        assert!(matches!(
            Parsed::parse(&to_args("frobnicate --x 1")),
            Err(ArgError::UnknownCommand(_))
        ));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(matches!(
            Parsed::parse(&to_args("solve --data")),
            Err(ArgError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(matches!(
            Parsed::parse(&to_args("solve stray")),
            Err(ArgError::Malformed(_))
        ));
    }

    #[test]
    fn typed_defaults_and_errors() {
        let p = Parsed::parse(&to_args("solve --tau 0.7")).unwrap();
        assert_eq!(p.get_or("tau", 0.5f64).unwrap(), 0.7);
        assert_eq!(p.get_or("k", 10usize).unwrap(), 10);
        let bad = Parsed::parse(&to_args("solve --tau seven")).unwrap();
        assert!(matches!(
            bad.get_or("tau", 0.5f64),
            Err(ArgError::BadValue(_, _))
        ));
    }

    #[test]
    fn require_reports_missing() {
        let p = Parsed::parse(&to_args("generate")).unwrap();
        assert!(matches!(p.require("out"), Err(ArgError::Required(_))));
    }

    #[test]
    fn action_commands_take_one_action_token() {
        let p = Parsed::parse(&to_args("snapshot save --out x.mc2s")).unwrap();
        assert_eq!(p.command, "snapshot");
        assert_eq!(p.action.as_deref(), Some("save"));
        assert_eq!(p.get("out"), Some("x.mc2s"));
        // Plain commands never get an action.
        let p = Parsed::parse(&to_args("solve --tau 0.7")).unwrap();
        assert_eq!(p.action, None);
    }

    #[test]
    fn action_commands_reject_missing_or_unknown_actions() {
        assert!(matches!(
            Parsed::parse(&to_args("snapshot")),
            Err(ArgError::Required(_))
        ));
        assert!(matches!(
            Parsed::parse(&to_args("snapshot frobnicate --out x")),
            Err(ArgError::BadValue(_, _))
        ));
        // The action slot does not make other commands accept positionals.
        assert!(matches!(
            Parsed::parse(&to_args("serve stray")),
            Err(ArgError::Malformed(_))
        ));
    }
}
