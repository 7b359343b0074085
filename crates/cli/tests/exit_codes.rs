//! Exit-code contract of the serving commands.
//!
//! Scripts supervise `baryon-cli serve` / `baryon-cli fleet` by exit
//! status, so the statuses are part of the CLI's API:
//!
//! * 2 — malformed arguments or a flag the command does not read (never
//!   launched anything),
//! * 3 — the listener port could not be bound,
//! * 4 — a worker shard could not be spawned or never announced `ADDR`.
//!
//! Each failure must also leave a typed one-line diagnostic on stderr
//! (`error[bind]: ...` / `error[spawn]: ...`) and nothing on stdout
//! before the `ADDR` line.

use std::net::TcpListener;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_baryon-cli"))
}

/// Holds a port open so bind attempts against it fail deterministically.
fn occupied_port() -> (TcpListener, u16) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let port = listener.local_addr().expect("addr").port();
    (listener, port)
}

#[test]
fn serve_on_a_taken_port_exits_3_with_a_typed_error() {
    let (_hold, port) = occupied_port();
    let out = cli()
        .args(["serve", &format!("--port={port}")])
        .output()
        .expect("run baryon-cli");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[bind]"), "{stderr}");
    assert!(stderr.contains(&port.to_string()), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "no stdout before ADDR on failure: {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn fleet_on_a_taken_port_exits_3_with_a_typed_error() {
    let (_hold, port) = occupied_port();
    let tmp = std::env::temp_dir().join(format!("baryon-cli-fleet-bind-{port}"));
    let out = cli()
        .args([
            "fleet",
            &format!("--port={port}"),
            "--shards=1",
            &format!("--journal-root={}", tmp.display()),
        ])
        .output()
        .expect("run baryon-cli");
    let _ = std::fs::remove_dir_all(&tmp);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[bind]"), "{stderr}");
}

#[test]
fn fleet_with_an_unspawnable_shard_exits_4_with_a_typed_error() {
    // `/bin/true` spawns but exits without ever printing `ADDR`, and a
    // missing path does not spawn at all; both are launch failures.
    for program in ["/bin/true", "/nonexistent/baryon-shard"] {
        let tmp = std::env::temp_dir().join(format!(
            "baryon-cli-fleet-spawn-{}",
            program.len() // distinct dir per case
        ));
        let out = cli()
            .args([
                "fleet",
                "--port=0",
                "--shards=1",
                &format!("--shard-program={program}"),
                &format!("--journal-root={}", tmp.display()),
            ])
            .output()
            .expect("run baryon-cli");
        let _ = std::fs::remove_dir_all(&tmp);
        assert_eq!(out.status.code(), Some(4), "{program}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error[spawn]"), "{program}: {stderr}");
        assert!(stderr.contains(program), "{program}: {stderr}");
    }
}

#[test]
fn malformed_arguments_still_exit_2() {
    let out = cli()
        .args(["fleet", "--shards"])
        .output()
        .expect("run baryon-cli");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// A flag the command does not read exits 2 before anything runs: a
/// retired flag (`--threads`) or a typo (`--inst`) must not silently run
/// the experiment at its defaults.
#[test]
fn unknown_flags_exit_2_naming_the_flag_and_command() {
    for (args, flag, command) in [
        (
            &["run", "--workload", "ycsb-a", "--threads", "8"][..],
            "--threads",
            "run",
        ),
        (
            &["run", "--workload", "ycsb-a", "--inst", "1000"][..],
            "--inst",
            "run",
        ),
        (&["serve", "--prot=0"][..], "--prot", "serve"),
        (
            &["fleet", "admin", "status", "--adr", "x"][..],
            "--adr",
            "fleet admin",
        ),
    ] {
        let out = cli().args(args).output().expect("run baryon-cli");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown flag {flag} for {command}");
        assert!(stderr.contains(&want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {out:?}");
    }
}
