//! Command line of the benchmark's phases; each prints one JSON object.
//!
//! ```text
//! perfbench setup --workload W --seed N --dir D
//! perfbench run   --workload W --dir D --seconds S [--oracle off]
//! perfbench trace --workload W --dir D --seconds S
//! ```

use std::path::PathBuf;
use std::process::exit;

use perfbench::suite::{Sizes, Workload};
use perfbench::{layers, phases};

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage:\n  perfbench setup --workload W --seed N --dir D\n  \
         perfbench run --workload W --dir D --seconds S [--oracle off]\n  \
         perfbench trace --workload W --dir D --seconds S"
    );
    exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1).map_or_else(|| usage(&format!("{name} needs a value")), String::as_str)
    })
}

fn required<'a>(args: &'a [String], name: &str) -> &'a str {
    flag(args, name).unwrap_or_else(|| usage(&format!("{name} is required")))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    let raw = required(args, name);
    raw.parse().unwrap_or_else(|_| usage(&format!("{name} wants a number, got `{raw}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage("missing command") };
    let name = required(&args, "--workload");
    let workload = Workload::parse(name).unwrap_or_else(|| usage(&format!("no workload `{name}`")));
    let dir = PathBuf::from(required(&args, "--dir"));
    let sizes = Sizes::BENCH;
    let result = match command.as_str() {
        "setup" => phases::setup(workload, &sizes, number(&args, "--seed"), &dir),
        "run" => {
            let oracle = match flag(&args, "--oracle") {
                None | Some("on") => true,
                Some("off") => false,
                Some(other) => usage(&format!("--oracle is on or off, not `{other}`")),
            };
            phases::run(workload, &sizes, &dir, number(&args, "--seconds"), oracle)
        }
        "trace" => layers::trace(workload, &sizes, &dir, number(&args, "--seconds")),
        other => usage(&format!("unknown command `{other}`")),
    };
    match result {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("perfbench {command} {name}: {e}");
            exit(1);
        }
    }
}
