//! Flag parsing for the `mc2ls` tool (plain `std`, no dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// Usage text printed on parse errors and `mc2ls help`.
pub const USAGE: &str = "\
usage: mc2ls <command> [flags]

commands:
  generate   --preset california|new-york [--scale S] [--seed N] --out FILE
  stats      --data FILE | --preset P [--scale S] [--seed N]
  solve      --data FILE | --preset P [--scale S] [--seed N]
             [--candidates N] [--facilities M] [-k K] [--tau T]
             [--method baseline|kcifp|iqt|iqt-c|iqt-pino] [--threads T]
             [--block-size auto|plain|B] [--site-seed N]
             [--model cumulative|logit] [--candidates-file FILE]
             [--selector rescan|celf|decremental|auto]
             [--svg FILE] [--json]
  analyze    --data FILE | --preset P [--scale S] [--seed N]
             [--candidates N] [--facilities M] [-k K] [--tau T]
             [--block-size auto|plain|B] [--site-seed N]
             [--model cumulative|logit] [--candidates-file FILE]
             [--selector rescan|celf|decremental|auto]
  convert    --checkins FILE --out FILE [--bounds ny|ca] [--min-positions N]
  candgen    --data FILE | --preset P [--scale S] [--seed N] --window W
             --out FILE [-m M] [--min-separation D] [--threads T] [--json]
             (MaxRS-style sweep: proposes top-m candidate sites from the
             users' positions; solve/snapshot consume the emitted file
             as their candidates file)
  snapshot   save --preset P | --data FILE [--scale S] [--seed N]
             [--candidates N] [--facilities M] [-k K] [--tau T]
             [--block-size auto|plain|B] [--model cumulative|logit]
             [--candidates-file FILE] [--threads T] [--shards N]
             [--site-seed N] [--leaf-diagonal D] --out FILE.mc2s
             load --file FILE.mc2s  (verify + print metadata)
             diff --base FILE.mc2s --target FILE.mc2s --out FILE.mc2d
  serve      --snapshot FILE.mc2s [--addr HOST:PORT] [--workers N]
             [--threads T] [--shards N] [--cache N] [--max-pending N]
             [--coalesce-us N] [--port-file FILE]
             or: --live --preset P | --data FILE [--scale S] [--seed N]
             [--candidates N] [--facilities M] [-k K] [--tau T]
             [--block-size auto|plain|B] [--model cumulative|logit]
             [--candidates-file FILE] [--site-seed N] [--leaf-diagonal D]
             (accepts the UPDATE verb, no snapshot)
  query      --addr HOST:PORT [--candidates 1,2,3] [-k K] [--tau T]
             [--block-size auto|plain|B] [--json]
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
    /// A flag the command does not admit: the command (with its action,
    /// if any) and the flag as typed.
    UnknownFlag(String, String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing => write!(f, "missing command"),
            ArgError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            ArgError::Malformed(a) => write!(f, "malformed argument '{a}'"),
            ArgError::BadValue(k, v) => write!(f, "bad value '{v}' for --{k}"),
            ArgError::Required(k) => write!(f, "missing required flag --{k}"),
            ArgError::UnknownFlag(c, a) => write!(f, "unknown flag '{a}' for '{c}'"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Boolean flags that take no value.
const SWITCHES: &[&str] = &["json", "stats", "shutdown", "live", "propose"];

/// The dataset flags: a file, or a preset generated at a scale and seed.
const DATASET: &[&str] = &["data", "preset", "scale", "seed"];
/// The instance flags `solve`, `analyze`, `snapshot save` and `serve
/// --live` read on top of [`DATASET`].
#[rustfmt::skip]
const INSTANCE: &[&str] = &[
    "candidates", "facilities", "k", "tau", "site-seed", "block-size", "model", "candidates-file",
];

/// Every command, its action token (empty for commands that take none)
/// and the flags it admits, in groups. The parser admits nothing else, and
/// USAGE lists exactly these flags per command (a test checks both ways).
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, &[&[&str]])] = &[
    ("generate", "", &[&["preset", "scale", "seed", "out"]]),
    ("stats", "", &[DATASET]),
    ("solve", "", &[DATASET, INSTANCE, &["method", "threads", "selector", "svg", "json"]]),
    ("analyze", "", &[DATASET, INSTANCE, &["selector"]]),
    ("convert", "", &[&["checkins", "out", "bounds", "min-positions"]]),
    ("candgen", "", &[DATASET, &["window", "out", "m", "min-separation", "threads", "json"]]),
    ("snapshot", "save", &[DATASET, INSTANCE, &["threads", "shards", "leaf-diagonal", "out"]]),
    ("snapshot", "load", &[&["file"]]),
    ("snapshot", "diff", &[&["base", "target", "out"]]),
    ("serve", "", &[
        &["snapshot", "addr", "workers", "threads", "shards", "cache", "max-pending",
          "coalesce-us", "port-file", "live", "leaf-diagonal"],
        DATASET,
        INSTANCE,
    ]),
    ("query", "", &[&[
        "addr", "candidates", "k", "tau", "block-size", "json", "model", "stats", "reload",
        "shutdown", "propose", "window", "m", "min-separation",
    ]]),
    ("update", "", &[&[
        "addr", "checkins", "bounds", "batch", "limit", "anchor-lat", "anchor-lon",
    ]]),
    ("help", "", &[]),
];

impl Parsed {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Parsed, ArgError> {
        let (command, mut rest) = args.split_first().ok_or(ArgError::Missing)?;
        let rows: Vec<_> = COMMANDS.iter().filter(|(c, ..)| c == command).collect();
        let Some(&&(_, first_action, first_flags)) = rows.first() else {
            return Err(ArgError::UnknownCommand(command.clone()));
        };
        let (action, admitted) = if first_action.is_empty() {
            (None, first_flags)
        } else {
            let (token, after) = rest
                .split_first()
                .ok_or_else(|| ArgError::Required("<action>".into()))?;
            let &&(_, _, admitted) = rows
                .iter()
                .find(|(_, a, _)| a == token)
                .ok_or_else(|| ArgError::BadValue("<action>".into(), token.clone()))?;
            rest = after;
            (Some(token.clone()), admitted)
        };
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
            if !admitted.iter().any(|group| group.contains(&key)) {
                let label = match &action {
                    Some(a) => format!("{command} {a}"),
                    None => command.clone(),
                };
                return Err(ArgError::UnknownFlag(label, arg.clone()));
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
    use std::collections::BTreeSet;

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

    #[test]
    fn flags_outside_the_commands_table_are_rejected_by_name() {
        for (line, flag) in [
            ("solve --preset new-york --tua 0.3", "--tua"),
            ("solve --pf-exact --json", "--pf-exact"),
            ("query --addr 127.0.0.1:1 --selector celf", "--selector"),
            ("snapshot load --file x.mc2s --tau 0.3", "--tau"),
            ("help -k 3", "-k"),
        ] {
            match Parsed::parse(&to_args(line)) {
                Err(e @ ArgError::UnknownFlag(_, _)) => {
                    assert!(e.to_string().contains(&format!("'{flag}'")), "{line}: {e}")
                }
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    fn takes_action(command: &str) -> bool {
        COMMANDS
            .iter()
            .any(|&(c, a, _)| c == command && !a.is_empty())
    }

    /// The flags USAGE lists per command (and action), keyed like
    /// `snapshot save`; parenthesised notes are prose, not flags.
    fn usage_flags() -> BTreeMap<String, BTreeSet<String>> {
        let mut listed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let (mut command, mut key, mut depth) = (String::new(), String::new(), 0i32);
        let body = USAGE.split_once("commands:\n").expect("commands section").1;
        for line in body.lines() {
            let mut words = line.split_whitespace();
            if !line.starts_with("   ") {
                command = words.next().expect("command name").to_string();
                key = command.clone();
                if !takes_action(&command) {
                    listed.entry(key.clone()).or_default();
                }
            }
            for word in words {
                let is_action = COMMANDS.iter().any(|&(c, a, _)| c == command && a == word);
                if depth == 0 && is_action {
                    key = format!("{command} {word}");
                    listed.entry(key.clone()).or_default();
                    continue;
                }
                let flag = word.trim_start_matches('[').trim_end_matches(']');
                if depth == 0 && !word.contains('(') && flag.starts_with('-') {
                    let name = flag.trim_start_matches('-');
                    listed
                        .entry(key.clone())
                        .or_default()
                        .insert(name.to_string());
                }
                depth += word.matches('(').count() as i32 - word.matches(')').count() as i32;
            }
        }
        listed
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_admits() {
        let table: BTreeMap<String, BTreeSet<String>> = COMMANDS
            .iter()
            .map(|&(c, a, groups)| {
                let key = if a.is_empty() {
                    c.to_string()
                } else {
                    format!("{c} {a}")
                };
                let flags = groups.iter().flat_map(|g| g.iter()).map(|f| f.to_string());
                (key, flags.collect())
            })
            .collect();
        assert_eq!(usage_flags(), table);
    }
}
