#![warn(missing_docs)]

//! `baryon-cli` — run hybrid-memory experiments from the command line.
//!
//! ```text
//! baryon-cli list
//! baryon-cli run --workload 505.mcf_r --controller baryon --insts 150000
//! baryon-cli run --workload pr.twi --controller dice --scale=512 --csv out.csv
//! baryon-cli compare --workload ycsb-a
//! baryon-cli record --workload ycsb-a --ops 100000 --out trace.bin
//! baryon-cli serve --port 8677 --workers 4 --queue-depth 32
//! baryon-cli fleet --port 8678 --shards 3 --workers 2
//! baryon-cli fleet admin stage --file policy.json
//! baryon-cli fleet admin commit
//! baryon-cli figure --id fig9 --scale 512 --out baryon-results
//! baryon-cli figure --id all --quick true
//! ```
//!
//! Controllers: `baryon`, `baryon-fa`, `baryon-mixed`, `simple`, `unison`,
//! `dice`, `hybrid2`, `micro-sector`, `os-paging`, `trimma` — the
//! [`FamilyId`](baryon_core::family::FamilyId) registry is the single
//! source of truth for these names.
//!
//! `serve` and `fleet` print `ADDR <socket-addr>` as their first stdout
//! line once bound — the machine-readable spawn contract supervisors and
//! scripts key on (with `--port 0` it carries the ephemeral port). Launch
//! failures exit with typed statuses: 3 when the port cannot be bound, 4
//! when a worker shard cannot be spawned (see [`launch`]).
//!
//! # Chaos injection (testing only)
//!
//! Every process honors the seeded fault-injection knobs from
//! [`baryon_sim::faultfs`] via its environment — all default off, and a
//! run with no `BARYON_CHAOS_*` variable set is bit-identical to a build
//! without the layer:
//!
//! ```text
//! BARYON_CHAOS_SEED                  RNG seed for every injection decision
//! BARYON_CHAOS_WRITE_FAIL_PPM        short writes (a prefix persists, the call errors)
//! BARYON_CHAOS_ENOSPC_PPM            writes fail with "no space", nothing persists
//! BARYON_CHAOS_FSYNC_FAIL_PPM        sync_data errors (data stays in the page cache)
//! BARYON_CHAOS_READ_FLIP_PPM         single-byte flip in a read buffer
//! BARYON_CHAOS_CORRUPT_PPM           silent single-byte flip on disk after a write
//! BARYON_CHAOS_RESPONSE_CORRUPT_PPM  single-byte flip in an HTTP body after its CRC
//! ```
//!
//! Rates are parts-per-million per I/O call. A `serve` or `fleet` shard
//! started under these variables injects faults into its own journal,
//! checkpoints, and responses — the degradation ladder (checkpoint
//! quarantine, shard quarantine, failover, reply validation) is expected
//! to absorb them; `fleet_gate chaos` in CI holds it to that. The fleet
//! supervisor's crash-loop budget is `BARYON_FLEET_QUARANTINE_AFTER`
//! respawns in a row, each within 10 s of the end of the previous one's
//! backoff (default 8, `0` disables quarantine).

use baryon_bench::figures::{self, Figure};
use baryon_bench::spec::{resume_from, RunSpec};
use baryon_bench::{banner, Params};
use baryon_core::checkpoint::atomic_write;
use baryon_core::family::FamilyId;
use baryon_core::metrics::RunResult;
use baryon_core::system::{ControllerKind, System, SystemConfig};
use baryon_fleet::{Fleet, FleetConfig, ShardLauncher};
use baryon_serve::{ServeConfig, Server};
use baryon_workloads::{by_name, registry, RecordedTrace, Scale};
use std::path::Path;
use std::process::ExitCode;

mod admin;
mod args;
mod launch;

use args::Args;
use launch::LaunchError;

fn usage() -> ! {
    eprintln!(
        "usage:\n  baryon-cli list\n  baryon-cli run --workload <name> [--controller <name>] \
         [--insts N] [--warmup N] [--scale D] [--seed S] [--mlp N] [--telemetry true] \
         [--threads N] [--csv FILE] [--json FILE]\n      \
         [--checkpoint-every OPS] [--checkpoint-dir DIR] [--checkpoint-keep K]\n  \
         baryon-cli run --resume-from FILE [--csv FILE] [--json FILE]\n  \
         baryon-cli compare --workload <name> [--insts N] [--scale D]\n  \
         baryon-cli record --workload <name> --out FILE [--ops N] [--core C]\n  \
         baryon-cli serve [--port P] [--workers N] [--queue-depth N] [--deadline-ms MS]\n      \
         [--journal-dir DIR] [--policy FILE]\n  \
         baryon-cli fleet [--port P] [--shards N] [--workers N] [--queue-depth N]\n      \
         [--queue-cap N] [--max-in-flight N] [--journal-root DIR] [--shard-program EXE]\n  \
         baryon-cli fleet admin status|stage|commit|rollback [--addr HOST:PORT] [--file FILE]\n  \
         baryon-cli figure --id <figure>|all [--insts N] [--warmup N] [--scale D] [--seed S]\n      \
         [--quick true] [--out DIR]\n\n\
         flags accept both `--flag value` and `--flag=value`\n\
         controllers: {}\n\
         figures: {}",
        FamilyId::NAMES.join(" "),
        figure_ids()
    );
    std::process::exit(2)
}

fn print_result(r: &RunResult) {
    println!("{r}");
}

fn csv_line(r: &RunResult) -> String {
    format!(
        "{},{},{},{},{:.4},{:.4},{:.4},{},{},{},{:.4}",
        r.controller,
        r.workload,
        r.total_cycles,
        r.instructions,
        r.ipc(),
        r.serve.fast_serve_rate(),
        r.serve.bloat_factor(),
        r.read_latency.percentile(50.0),
        r.read_latency.percentile(99.0),
        r.llc_misses,
        r.energy_mj()
    )
}

const CSV_HEADER: &str = "controller,workload,cycles,instructions,ipc,serve_rate,\
                          bloat,lat_p50,lat_p99,llc_misses,energy_mj";

fn cmd_list(args: &Args) -> ExitCode {
    let scale = args.scale();
    println!(
        "{:<18} {:>10} {:>7} {:<8} pattern",
        "workload", "footprint", "shared", "gap"
    );
    for w in registry(scale) {
        println!(
            "{:<18} {:>7} MB {:>7} {:<8.1} {:?}",
            w.name,
            w.footprint >> 20,
            w.shared,
            w.mean_gap,
            w.kind
        );
    }
    ExitCode::SUCCESS
}

/// Writes the `--csv` / `--json` outputs atomically (temp file + rename),
/// so an interrupted CLI never leaves a torn result file behind.
fn write_outputs(args: &Args, r: &RunResult) -> ExitCode {
    if let Some(path) = args.get("csv") {
        let body = format!("{CSV_HEADER}\n{}\n", csv_line(r));
        if let Err(e) = atomic_write(Path::new(&path), body.as_bytes()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("csv             : {path}");
    }
    if let Some(path) = args.get("json") {
        let mut body = r.to_json().render();
        body.push('\n');
        if let Err(e) = atomic_write(Path::new(&path), body.as_bytes()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("json            : {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &Args) -> ExitCode {
    if let Some(path) = args.get("resume-from") {
        let (spec, r) = match resume_from(Path::new(&path)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cannot resume from {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "resumed {} / {} (seed {}) from {path}",
            spec.workload, spec.controller, spec.seed
        );
        print_result(&r);
        return write_outputs(args, &r);
    }
    let spec = RunSpec {
        workload: args.require("workload"),
        controller: args.get("controller").unwrap_or_else(|| "baryon".into()),
        insts: args.num("insts", 150_000),
        warmup: args.num("warmup", 50_000),
        scale: args.num("scale", 256),
        seed: args.num("seed", 42),
        mlp: args.num("mlp", 1),
        telemetry: args.bool_flag("telemetry", false),
        threads: args.num("threads", 1).max(1),
        ..RunSpec::default()
    };
    let every = args.num("checkpoint-every", 0);
    let run = if every > 0 {
        let dir = args
            .get("checkpoint-dir")
            .unwrap_or_else(|| "baryon-checkpoints".into());
        let keep = args.num("checkpoint-keep", 2).max(1) as usize;
        spec.execute_with_checkpoints(Path::new(&dir), every, keep)
    } else {
        spec.execute()
    };
    let r = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}; try `baryon-cli list`");
            return ExitCode::FAILURE;
        }
    };
    print_result(&r);
    write_outputs(args, &r)
}

fn cmd_compare(args: &Args) -> ExitCode {
    let scale = args.scale();
    let wname = args.require("workload");
    let Some(workload) = by_name(&wname, scale) else {
        eprintln!("unknown workload {wname}");
        return ExitCode::FAILURE;
    };
    let insts = args.num("insts", 100_000);
    println!(
        "{:<14} {:>12} {:>8} {:>8} {:>9} {:>9}",
        "controller", "cycles", "speedup", "serve%", "lat p50", "lat p99"
    );
    // Every registry family, baselines first so the table reads
    // worst-to-best; speedups are normalized to the `simple` baseline.
    let mut families: Vec<FamilyId> = FamilyId::ALL
        .into_iter()
        .filter(|f| !matches!(f.kind(scale), ControllerKind::Baryon(_)))
        .collect();
    families.extend(
        FamilyId::ALL
            .into_iter()
            .filter(|f| matches!(f.kind(scale), ControllerKind::Baryon(_))),
    );
    let mut base = None;
    for family in families {
        let kind = family.kind(scale);
        let mut cfg = SystemConfig::with_controller(scale, kind);
        cfg.warmup_insts = args.num("warmup", 50_000);
        let r = System::new(cfg, &workload, args.num("seed", 42)).run(insts);
        let base_cycles = *base.get_or_insert(r.total_cycles);
        println!(
            "{:<14} {:>12} {:>7.2}x {:>7.1}% {:>9} {:>9}",
            r.controller,
            r.total_cycles,
            base_cycles as f64 / r.total_cycles as f64,
            100.0 * r.serve.fast_serve_rate(),
            r.read_latency.percentile(50.0),
            r.read_latency.percentile(99.0),
        );
    }
    ExitCode::SUCCESS
}

fn cmd_record(args: &Args) -> ExitCode {
    let scale = args.scale();
    let wname = args.require("workload");
    let Some(workload) = by_name(&wname, scale) else {
        eprintln!("unknown workload {wname}");
        return ExitCode::FAILURE;
    };
    let out = args.require("out");
    let ops = args.num("ops", 100_000) as usize;
    let core = args.num("core", 0) as usize;
    let mut g = workload.spawn_core(core, 16, args.num("seed", 42));
    let trace = RecordedTrace::record(g.as_mut(), ops);
    match std::fs::File::create(&out).and_then(|f| trace.save(f)) {
        Ok(()) => {
            println!("recorded {ops} ops of {wname} (core {core}) to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    // A fleet commit respawns shards with `--policy <staged file>`; the
    // flag is therefore part of the spawn contract, not just a user knob.
    let policy = match args.get("policy") {
        None => None,
        Some(path) => match baryon_core::policy::FleetPolicy::load(Path::new(&path)) {
            Ok(policy) => Some(policy),
            Err(e) => {
                eprintln!("cannot load policy {path}: {e}");
                return ExitCode::from(5);
            }
        },
    };
    let deadline_ms = args.num("deadline-ms", 0);
    let cfg = ServeConfig {
        port: args.num("port", 8677) as u16,
        workers: (args.num("workers", 2) as usize).max(1),
        queue_depth: (args.num("queue-depth", 16) as usize).max(1),
        job_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        journal_dir: args.get("journal-dir").map(std::path::PathBuf::from),
        finished_cap: (args.num("finished-cap", 256) as usize).max(1),
        policy,
    };
    let server = match Server::bind(cfg.clone()) {
        Ok(server) => server,
        Err(source) => {
            return LaunchError::Bind {
                port: cfg.port,
                source,
            }
            .report()
        }
    };
    // The spawn contract: the first stdout line is machine-readable, so a
    // fleet coordinator (or any script) can supervise this process.
    println!("ADDR {}", server.local_addr());
    println!(
        "baryon-serve listening on http://{} ({} workers, queue depth {})",
        server.local_addr(),
        cfg.workers,
        cfg.queue_depth
    );
    if let Some(dir) = &cfg.journal_dir {
        println!("journal & checkpoints: {}", dir.display());
    }
    println!("submit jobs with POST /v1/jobs; stop with POST /v1/shutdown");
    match server.run() {
        Ok(()) => {
            println!("drained and shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_fleet(args: &Args) -> ExitCode {
    let program = match args.get("shard-program") {
        Some(path) => std::path::PathBuf::from(path),
        None => match std::env::current_exe() {
            Ok(exe) => exe,
            Err(source) => {
                return LaunchError::Spawn {
                    program: "<current executable>".to_owned(),
                    source,
                }
                .report()
            }
        },
    };
    let cfg = FleetConfig {
        port: args.num("port", 8678) as u16,
        shards: (args.num("shards", 3) as usize).max(1),
        workers_per_shard: (args.num("workers", 2) as usize).max(1),
        shard_queue_depth: (args.num("queue-depth", 64) as usize).max(1),
        queue_cap: (args.num("queue-cap", 256) as usize).max(1),
        max_in_flight_per_client: (args.num("max-in-flight", 8) as usize).max(1),
        journal_root: std::path::PathBuf::from(
            args.get("journal-root")
                .unwrap_or_else(|| "fleet-journal".into()),
        ),
    };
    let launcher = ShardLauncher {
        program: program.clone(),
        // Each shard is this CLI (or --shard-program) running `serve`.
        prefix_args: vec!["serve".to_owned()],
        workers: cfg.workers_per_shard,
        queue_depth: cfg.shard_queue_depth,
        // The coordinator fills this in when a committed config rollout
        // (or a restored slot file) dictates the shards' policy.
        policy_path: None,
        extra_env: Vec::new(),
    };
    let fleet = match Fleet::bind(cfg.clone(), launcher) {
        Ok(fleet) => fleet,
        Err(e) => {
            return LaunchError::classify_fleet(cfg.port, &program.display().to_string(), e)
                .report()
        }
    };
    println!("ADDR {}", fleet.local_addr());
    println!(
        "baryon-fleet coordinator on http://{} ({} shards x {} workers, journals under {})",
        fleet.local_addr(),
        cfg.shards,
        cfg.workers_per_shard,
        cfg.journal_root.display()
    );
    println!(
        "submit jobs with POST /v1/jobs (x-baryon-class: interactive|batch); \
         stop with POST /v1/shutdown"
    );
    match fleet.run() {
        Ok(()) => {
            println!("fleet drained and shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleet error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn figure_ids() -> String {
    let ids: Vec<&str> = figures::ALL.iter().map(|f| f.id).collect();
    ids.join(" ")
}

/// Computes one figure (or `all` of them, in the paper's order), writing
/// `<id>.csv` into `--out` and re-rendering `report.md` there.
fn cmd_figure(args: &Args) -> ExitCode {
    let id = args.require("id");
    let chosen: Vec<&Figure> = figures::ALL
        .iter()
        .filter(|f| id == "all" || f.id == id)
        .collect();
    if chosen.is_empty() {
        eprintln!("unknown figure {id}; valid: all {}", figure_ids());
        return ExitCode::from(2);
    }
    let d = Params::default();
    let params = Params {
        insts: args.num("insts", d.insts),
        warmup: args.num("warmup", d.warmup),
        scale: Scale {
            divisor: args.num("scale", d.scale.divisor),
        },
        seed: args.num("seed", d.seed),
        quick: args.bool_flag("quick", d.quick),
    };
    if params.scale.divisor == 0 || params.insts == 0 {
        eprintln!("--scale and --insts must be at least 1");
        return ExitCode::from(2);
    }
    let out = args.get("out").unwrap_or_else(|| "baryon-results".into());
    match write_figures(&chosen, &params, Path::new(&out)) {
        Ok(missing) => {
            println!("report: {out}/report.md (missing sections: {missing:?})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs and writes each figure, then the report; returns the report's
/// missing sections.
fn write_figures(
    chosen: &[&Figure],
    params: &Params,
    out: &Path,
) -> Result<Vec<&'static str>, String> {
    let io = |path: &Path| {
        let path = path.display().to_string();
        move |e: std::io::Error| format!("cannot write {path}: {e}")
    };
    std::fs::create_dir_all(out).map_err(io(out))?;
    for figure in chosen {
        banner(figure.id, figure.blurb);
        let csv = figures::run(figure, params).map_err(|e| format!("{}: {e}", figure.id))?;
        let path = out.join(format!("{}.csv", figure.id));
        atomic_write(&path, csv.as_bytes()).map_err(io(&path))?;
        println!("\n[written to {}]", path.display());
    }
    figures::write_report(out).map_err(io(out))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `fleet admin <action>` carries a second positional the flag parser
    // doesn't model; route it before general parsing.
    if argv.first().map(String::as_str) == Some("fleet")
        && argv.get(1).map(String::as_str) == Some("admin")
    {
        let action = argv.get(2).cloned();
        let args = Args::parse(argv.into_iter().skip(3));
        return admin::cmd_admin(action.as_deref(), &args);
    }
    let args = Args::parse(argv);
    match args.command() {
        Some("list") => cmd_list(&args),
        Some("run") => cmd_run(&args),
        Some("compare") => cmd_compare(&args),
        Some("record") => cmd_record(&args),
        Some("serve") => cmd_serve(&args),
        Some("fleet") => cmd_fleet(&args),
        Some("figure") => cmd_figure(&args),
        _ => usage(),
    }
}
