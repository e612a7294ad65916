//! The `ecochip` command line's contract.
//!
//! [`USAGE_CASES`] is the one table of malformed invocations: for every
//! command (the classic front end, `serve` and `orchestrate`) it pins the
//! exit code and a substring of the one-line error on stderr — unknown
//! and value-less flags, bad numeric values, flags that require or
//! conflict with others, unknown names and unreadable input files. Exit
//! code 2 is a usage error (HTTP's 400), 1 a runtime failure. A
//! usage error prints nothing on stdout.
//!
//! `tests/golden/cli/` pins the stdout bytes of a report, a sweep table
//! and the test-case list. After an intended change, re-bless with
//!
//! ```sh
//! ECOCHIP_BLESS_GOLDEN=1 cargo test --test cli
//! ```

mod common;

use std::path::Path;
use std::process::{Command, Output};

use eco_chip::techdb::{Area, NodeParams, TechDb, TechNode, TimeSpan, TransistorDensity};
use eco_chip::testcases::{catalog, io};
use eco_chip::{ChipletSize, System, UsageProfile};

use common::{check_golden, golden_dir};

const BIN: &str = env!("CARGO_BIN_EXE_ecochip");

/// One malformed invocation: its arguments, the expected exit code and a
/// substring stderr must contain.
///
/// In arguments, `@design` names an exported `ga102-3chiplet` system file,
/// `@bad` a file holding truncated JSON, `@missing` a path that does not
/// exist, `@a15` the exported `a15` system, and the other names an
/// exported `a15` system with one input out of its physical range (see
/// [`NON_PHYSICAL`]) or a technology database with one value out of its
/// range (see [`NON_PHYSICAL_TECHDB`]).
type UsageCase = (&'static [&'static str], i32, &'static str);

const USAGE_CASES: &[UsageCase] = &[
    // Search flags: the classic front end and orchestrate.
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "hillclimb",
        ],
        2,
        "pareto|anneal|genetic",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "anneal",
            "--budget",
            "0",
        ],
        2,
        "--budget needs a positive integer",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "anneal",
            "--budget",
            "-3",
        ],
        2,
        "--budget needs a positive integer",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "anneal",
            "--seed",
            "banana",
        ],
        2,
        "--seed needs an unsigned 64-bit integer",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "pareto",
            "--objectives",
            "embodied,karma",
        ],
        2,
        "unknown objective",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "pareto",
            "--objectives",
            " , ",
        ],
        2,
        "empty objective",
    ),
    (
        &["--testcase", "ga102", "--optimize", "pareto"],
        2,
        "--optimize requires --sweep",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--budget",
            "5",
        ],
        2,
        "--budget requires --optimize",
    ),
    (
        &["--testcase", "ga102", "--sweep", "lifetime", "--seed", "1"],
        2,
        "--seed requires --optimize",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "pareto",
            "--stream",
            "jsonl",
        ],
        2,
        "drop --stream",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--rounds",
            "3",
        ],
        2,
        "--rounds requires --optimize",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--optimize",
            "anneal",
            "--check",
        ],
        2,
        "does not apply to --optimize",
    ),
    // The classic front end.
    (&["--frobnicate"], 2, "unknown flag \"--frobnicate\""),
    (&["--testcase"], 2, "--testcase needs a value"),
    (&["--export"], 2, "--export needs a value"),
    (&["--testcase", "ga102", "--csv"], 2, "--csv needs a value"),
    (
        &["--testcase", "ga102", "--jobs", "x"],
        2,
        "--jobs needs a positive integer",
    ),
    (
        &["--testcase", "ga102", "--jobs", "0"],
        2,
        "--jobs needs a positive integer",
    ),
    // The engine's claim size is a constant, not a flag.
    (
        &["--testcase", "ga102", "--sweep", "lifetime", "--chunk", "3"],
        2,
        "unknown flag \"--chunk\"",
    ),
    (
        &["--testcase", "ga102", "--memo-max-entries", "-1"],
        2,
        "--memo-max-entries needs a non-negative integer",
    ),
    // The memo lives and dies with its process: no file to load or save.
    (
        &["--testcase", "ga102", "--memo-file", "m.json"],
        2,
        "unknown flag \"--memo-file\"",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--shard",
            "2/2",
        ],
        2,
        "invalid shard selector \"2/2\"",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--shard",
            "bogus",
        ],
        2,
        "invalid shard selector \"bogus\"",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--stream",
            "xml",
        ],
        2,
        "unknown stream format \"xml\"",
    ),
    (
        &["--testcase", "ga102", "--sweep", "wrong"],
        2,
        "unknown sweep axis \"wrong\"",
    ),
    (&["--testcase", "nope"], 2, "unknown test case \"nope\""),
    (
        &["--testcase", "ga102", "--shard", "0/2"],
        2,
        "--shard requires --sweep",
    ),
    (
        &["--testcase", "ga102", "--stream", "jsonl"],
        2,
        "--stream requires --sweep",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--objectives",
            "cost",
        ],
        2,
        "--objectives requires --optimize",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "pareto",
            "--csv",
            "x.csv",
        ],
        2,
        "do not apply to --optimize",
    ),
    (
        &[
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--optimize",
            "pareto",
            "--json",
            "x.json",
        ],
        2,
        "do not apply to --optimize",
    ),
    (
        &["--testcase", "ga102", "--memo-save-every", "5"],
        2,
        "unknown flag \"--memo-save-every\"",
    ),
    (&[], 2, "no arguments given"),
    (&["--verbose"], 2, "nothing to do"),
    (
        &["bogus-subcommand"],
        2,
        "unknown subcommand \"bogus-subcommand\"",
    ),
    (
        &["--log-level", "loud", "--testcase", "ga102"],
        2,
        "--log-level needs error, warn, info or debug",
    ),
    (
        &["--log-format", "xml", "--testcase", "ga102"],
        2,
        "--log-format needs text or json",
    ),
    (
        &["--testcase", "ga102", "--log-level"],
        2,
        "--log-level needs a value",
    ),
    (&["--design", "@missing"], 1, "configuration file i/o error"),
    (
        &["--testcase", "ga102", "--techdb", "@missing"],
        1,
        "configuration file i/o error",
    ),
    // `serve`.
    (
        &["serve", "--frobnicate"],
        2,
        "unknown serve flag \"--frobnicate\"",
    ),
    (
        &["serve", "--testcase", "ga102"],
        2,
        "unknown serve flag \"--testcase\"",
    ),
    (&["serve", "--addr"], 2, "--addr needs a value"),
    (&["serve", "--addr", "not an addr"], 2, "invalid address"),
    (
        &["serve", "--jobs", "0"],
        2,
        "--jobs needs a positive integer",
    ),
    (
        &["serve", "--chunk", "3"],
        2,
        "unknown serve flag \"--chunk\"",
    ),
    (
        &["serve", "--threads", "0"],
        2,
        "--threads needs a positive integer",
    ),
    (
        &["serve", "--memo-file", "m.json"],
        2,
        "unknown serve flag \"--memo-file\"",
    ),
    (
        &["serve", "--idle-timeout-ms", "0"],
        2,
        "--idle-timeout-ms needs a positive integer",
    ),
    (
        &["serve", "--max-requests-per-conn", "0"],
        2,
        "--max-requests-per-conn needs a positive integer",
    ),
    (
        &["serve", "--max-inflight", "0"],
        2,
        "--max-inflight needs a positive integer",
    ),
    (
        &["serve", "--max-connections", "0"],
        2,
        "--max-connections needs a positive integer",
    ),
    (
        &["serve", "--memo-max-entries", "x"],
        2,
        "--memo-max-entries needs a non-negative integer",
    ),
    (
        &["serve", "--memo-save-every", "5"],
        2,
        "unknown serve flag \"--memo-save-every\"",
    ),
    (
        &["serve", "--techdb", "@missing"],
        1,
        "configuration file i/o error",
    ),
    // `orchestrate`.
    (
        &["orchestrate", "--frobnicate"],
        2,
        "unknown orchestrate flag \"--frobnicate\"",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--stream",
            "jsonl",
        ],
        2,
        "unknown orchestrate flag \"--stream\"",
    ),
    (
        &["orchestrate", "--testcase", "ga102"],
        2,
        "orchestrate needs --sweep",
    ),
    (
        &["orchestrate", "--testcase", "ga102", "--sweep", "lifetime"],
        2,
        "orchestrate needs --workers <N> or --remote",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--remote",
            "http://127.0.0.1:1",
        ],
        2,
        "pass either --workers (local in-process servers) or --remote (server URLs), not both",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "0",
        ],
        2,
        "--workers needs a positive integer",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
        ],
        2,
        "--workers needs a value",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--remote",
            ",",
        ],
        2,
        "--remote needs at least one URL",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--retries",
            "x",
        ],
        2,
        "--retries needs a non-negative integer",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--backoff-ms",
            "-1",
        ],
        2,
        "--backoff-ms needs a non-negative integer",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--jobs",
            "0",
        ],
        2,
        "--jobs needs a positive integer",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--optimize",
            "anneal",
            "--rounds",
            "0",
        ],
        2,
        "--rounds needs a positive integer",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--optimize",
            "anneal",
            "--budget",
            "0",
        ],
        2,
        "--budget needs a positive integer",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--optimize",
            "anneal",
            "--seed",
            "x",
        ],
        2,
        "--seed needs an unsigned 64-bit integer",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--optimize",
            "hillclimb",
        ],
        2,
        "unknown optimize method \"hillclimb\"",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--optimize",
            "anneal",
            "--objectives",
            "karma",
        ],
        2,
        "unknown objective \"karma\"",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--budget",
            "5",
        ],
        2,
        "--budget requires --optimize",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--seed",
            "5",
        ],
        2,
        "--seed requires --optimize",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--objectives",
            "cost",
        ],
        2,
        "--objectives requires --optimize",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--design",
            "@design",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
        ],
        2,
        "pass either --testcase or --design, not both",
    ),
    (
        &["orchestrate", "--sweep", "lifetime", "--workers", "2"],
        2,
        "orchestrate needs a design",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "nope",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
        ],
        2,
        "unknown test case \"nope\"",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "wrong",
            "--workers",
            "2",
        ],
        2,
        "unknown sweep axis \"wrong\"",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--share-memo",
        ],
        2,
        "unknown orchestrate flag \"--share-memo\"",
    ),
    (
        &[
            "orchestrate",
            "--design",
            "@missing",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
        ],
        1,
        "configuration file i/o error",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "ga102",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--techdb",
            "@missing",
        ],
        1,
        "configuration file i/o error",
    ),
    // The perf harness is `perfbench/`, not a subcommand.
    (
        &["bench"],
        2,
        "unknown subcommand \"bench\" (expected serve or orchestrate)",
    ),
    // The classic front end refuses two designs, as orchestrate and HTTP do.
    (
        &["--testcase", "ga102", "--design", "@design"],
        2,
        "pass either --testcase or --design, not both",
    ),
    // Names resolve through the HTTP request types and read as their 400
    // body does.
    (
        &["--testcase", "nope"],
        2,
        "bad request: unknown test case \"nope\"; the built-ins are: ",
    ),
    (
        &["--testcase", "ga102", "--sweep", "wrong"],
        2,
        "bad request: invalid system description: unknown sweep axis \"wrong\"",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "nope",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
        ],
        2,
        "bad request: unknown test case \"nope\"; the built-ins are: ",
    ),
    // Input files name their path; one that does not parse is a usage error.
    (
        &["--design", "@bad"],
        2,
        "bad.json: configuration parse error",
    ),
    (
        &["--testcase", "ga102", "--techdb", "@bad"],
        2,
        "bad.json: configuration parse error",
    ),
    (
        &["serve", "--techdb", "@bad"],
        2,
        "bad.json: configuration parse error",
    ),
    (
        &[
            "orchestrate",
            "--design",
            "@bad",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
        ],
        2,
        "bad.json: configuration parse error",
    ),
    (
        &["--design", "@missing"],
        1,
        "missing.json: configuration file i/o error",
    ),
    (
        &["serve", "--techdb", "@missing"],
        1,
        "missing.json: configuration file i/o error",
    ),
    // A system whose inputs leave their physical ranges is refused before
    // any output, naming the field.
    (
        &["--design", "@lifetime"],
        2,
        "invalid system description: lifetime must be finite and > 0, got -5",
    ),
    (
        &["--design", "@chiplet_volume"],
        2,
        "volumes.chiplet_volume must be ≥ 1, got 0",
    ),
    (
        &["--design", "@system_volume"],
        2,
        "volumes.system_volume must be ≥ 1, got 0",
    ),
    (
        &["--design", "@charger_efficiency"],
        2,
        "usage.charger_efficiency must be in (0, 1], got 0",
    ),
    (
        &["--design", "@battery_wh"],
        2,
        "usage.battery_wh must be finite and ≥ 0, got -5",
    ),
    (
        &["--design", "@no_chiplets"],
        2,
        "chiplets: a system needs at least one chiplet",
    ),
    (
        &["--design", "@chiplet_area"],
        2,
        "chiplets[0].size must be finite and > 0, got -10",
    ),
    (
        &[
            "--design",
            "@lifetime",
            "--sweep",
            "packaging",
            "--stream",
            "jsonl",
        ],
        2,
        "lifetime must be finite and > 0",
    ),
    // So is a technology database, on every command that takes one.
    (
        &["--design", "@a15", "--techdb", "@negative_defect_density"],
        2,
        "negative_defect_density.json: invalid technology database: \
         nodes[5].defect_density must be finite and ≥ 0, got -0.5",
    ),
    (
        &["--design", "@a15", "--techdb", "@zero_logic_density"],
        2,
        "zero_logic_density.json: invalid technology database: \
         nodes[5].logic_density must be finite and > 0, got 0",
    ),
    (
        &["serve", "--techdb", "@negative_defect_density"],
        2,
        "nodes[5].defect_density must be finite and ≥ 0, got -0.5",
    ),
    (
        &[
            "orchestrate",
            "--testcase",
            "a15",
            "--sweep",
            "lifetime",
            "--workers",
            "2",
            "--techdb",
            "@zero_logic_density",
        ],
        2,
        "nodes[5].logic_density must be finite and > 0, got 0",
    ),
];

/// An edit to one node of a technology database.
type NodeEdit = fn(&mut NodeParams);

/// The default database with node 5 out of its physical range, by the
/// file name `@name` arguments use.
const NON_PHYSICAL_TECHDB: [(&str, NodeEdit); 2] = [
    ("negative_defect_density", |p| {
        // The constructor clamps; a file does not.
        p.defect_density = serde_json::from_str("-0.5").expect("a density")
    }),
    ("zero_logic_density", |p| {
        p.logic_density = TransistorDensity::from_mtr_per_mm2(0.0)
    }),
];

/// An edit to a system.
type Edit = fn(&mut System);

/// The `a15` system with one input out of its physical range, by the
/// file name `@name` arguments use.
const NON_PHYSICAL: [(&str, Edit); 7] = [
    ("lifetime", |s| s.lifetime = TimeSpan::from_hours(-5.0)),
    ("chiplet_volume", |s| s.volumes.chiplet_volume = 0),
    ("system_volume", |s| s.volumes.system_volume = 0),
    ("charger_efficiency", |s| {
        set_battery(s, |_, _, eff| *eff = 0.0)
    }),
    ("battery_wh", |s| set_battery(s, |wh, _, _| *wh = -5.0)),
    ("no_chiplets", |s| s.chiplets.clear()),
    ("chiplet_area", |s| {
        s.chiplets[0].size = ChipletSize::AreaAtNode {
            area: Area::from_mm2(-10.0),
            node: TechNode::N5,
        }
    }),
];

/// Edit the battery profile of `system`: capacity, charges per year and
/// charger efficiency.
fn set_battery(system: &mut System, edit: fn(&mut f64, &mut f64, &mut f64)) {
    let UsageProfile::Battery {
        battery_wh,
        charges_per_year,
        charger_efficiency,
    } = &mut system.usage
    else {
        panic!("the a15 has a battery profile");
    };
    edit(battery_wh, charges_per_year, charger_efficiency);
}

/// Run `ecochip` with `args`, the inherited log setting removed so only
/// the arguments decide it.
fn ecochip(args: &[&str]) -> Output {
    Command::new(BIN)
        .env_remove("ECOCHIP_LOG")
        .args(args)
        .output()
        .expect("run ecochip")
}

/// Write the files the `@` placeholders name into `dir`.
fn write_inputs(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create input dir");
    let system = catalog::build(&TechDb::default(), "ga102-3chiplet").expect("built-in system");
    io::save_system(&system, dir.join("design.json")).expect("write design");
    std::fs::write(dir.join("bad.json"), "{\"name\": \"x\", ").expect("write bad JSON");
    let a15 = catalog::build(&TechDb::default(), "a15").expect("built-in system");
    io::save_system(&a15, dir.join("a15.json")).expect("write design");
    for (name, edit) in NON_PHYSICAL {
        let mut system = a15.clone();
        edit(&mut system);
        io::save_system(&system, dir.join(format!("{name}.json"))).expect("write design");
    }
    let db = TechDb::default();
    for (name, edit) in NON_PHYSICAL_TECHDB {
        let mut params = db.node(TechNode::N5).expect("5 nm").clone();
        edit(&mut params);
        let db = db.to_builder().insert(params).build();
        io::save_techdb(&db, dir.join(format!("{name}.json"))).expect("write techdb");
    }
}

#[test]
fn malformed_invocations_exit_with_their_code_and_hint() {
    let dir = std::env::temp_dir().join(format!("ecochip-cli-{}", std::process::id()));
    write_inputs(&dir);
    let mut failures = Vec::new();
    for &(args, code, hint) in USAGE_CASES {
        let args: Vec<String> = args
            .iter()
            .map(|arg| match arg.strip_prefix('@') {
                Some(name) => dir.join(format!("{name}.json")).display().to_string(),
                None => (*arg).to_owned(),
            })
            .collect();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let output = ecochip(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        let stdout = String::from_utf8_lossy(&output.stdout);
        if output.status.code() != Some(code) || !stderr.contains(hint) {
            failures.push(format!(
                "{args:?}: exit {:?} (want {code}), stderr {stderr:?} (want {hint:?})",
                output.status.code()
            ));
        } else if code == 2 && !stdout.is_empty() {
            failures.push(format!("{args:?}: usage error printed {stdout:?}"));
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove input dir");
    assert!(
        failures.is_empty(),
        "{} of {} rows failed:\n{}",
        failures.len(),
        USAGE_CASES.len(),
        failures.join("\n")
    );
}

#[test]
fn classic_stdout_matches_golden_files() {
    let mut outputs = Vec::new();
    for (name, args) in [
        (
            "ga102-3chiplet.report.txt",
            &["--testcase", "ga102-3chiplet"][..],
        ),
        (
            "ga102-3chiplet.packaging.txt",
            &[
                "--testcase",
                "ga102-3chiplet",
                "--sweep",
                "packaging",
                "--jobs",
                "2",
            ][..],
        ),
        ("list-testcases.txt", &["--list-testcases"][..]),
    ] {
        let output = ecochip(args);
        assert!(
            output.status.success(),
            "ecochip {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        outputs.push((name.to_owned(), output.stdout));
    }
    check_golden(&golden_dir("cli"), &outputs);
}
