//! Crash safety: SIGKILL the daemon mid-snapshot-write, restart, and the
//! recovery load must produce the last published snapshot byte-for-byte.
//! The binary's `--torture-save` mode rewrites the same snapshot in a
//! tight loop, so killing it at staggered offsets lands inside every phase
//! of the write (staging create, write, fsync, rename). The daemon itself
//! publishes once, at startup, and a restart serves the published image.

use ir_bgp::RoutingUniverse;
use ir_serve::{control_line, route_line, Client};
use ir_types::Prefix;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ir-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The exact universe `--scale tiny --seed 7 --prefixes 8` serves.
fn reference() -> RoutingUniverse {
    let world = ir_topology::GeneratorConfig::tiny().build(7);
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(8)
        .collect();
    RoutingUniverse::compute(&world, &prefixes)
}

fn reference_bytes() -> Vec<u8> {
    reference()
        .to_snapshot_bytes()
        .expect("reference snapshot encodes")
}

/// A daemon that is killed if a failed assertion drops it still running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `ir-serve --snapshot path` on an ephemeral port and returns the
/// daemon, its stdout, and its first stdout line.
fn serve_snapshot(path: &Path) -> (Daemon, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ir-serve"))
        .args([
            "--snapshot",
            path.to_str().expect("utf8 path"),
            "--listen",
            "127.0.0.1:0",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--prefixes",
            "8",
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ir-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first stdout line");
    (Daemon(child), stdout, first)
}

/// Sends one `route` lookup, then `shutdown`; returns the route reply once
/// the daemon has exited 0.
fn route_then_shutdown(mut daemon: Daemon, banner: &str) -> String {
    // "ir-serve listening on 127.0.0.1:PORT (...)"
    assert!(
        banner.starts_with("ir-serve listening on "),
        "first stdout line is not the banner: {banner}"
    );
    let addr = banner.split_whitespace().nth(3).expect("banner address");
    let u = reference();
    let prefix = u.prefixes().next().expect("a resident prefix");
    let origin = u.origin(prefix).expect("prefix origin");
    let mut c = Client::connect(addr).expect("connect to daemon");
    let reply = c
        .request(&route_line(Some(1), prefix, origin))
        .unwrap()
        .expect("route reply");
    c.request(&control_line(Some(2), "shutdown"))
        .unwrap()
        .expect("shutdown ack");
    let status = daemon.0.wait().expect("child exit");
    assert!(status.success(), "daemon exited {status}");
    reply
}

/// One publish, at startup: the file is the reference image, neither the
/// drain nor a restart on it touches it (same bytes, inode and mtime), and
/// the restart prints the banner first and answers the same lookup byte
/// for byte.
#[cfg(unix)]
#[test]
fn the_startup_publish_is_the_only_one_and_a_restart_serves_it() {
    use std::os::unix::fs::MetadataExt;
    let dir = scratch_dir("publish");
    let path = dir.join("u.iruniv");
    let want = reference_bytes();
    let untouched = |published: &std::fs::Metadata, by: &str| {
        let now = std::fs::metadata(&path).expect("snapshot metadata");
        assert_eq!(std::fs::read(&path).expect("still there"), want, "{by}");
        assert_eq!(now.ino(), published.ino(), "{by} replaced the file");
        assert_eq!(
            now.modified().unwrap(),
            published.modified().unwrap(),
            "{by} rewrote the file"
        );
    };

    let (child, _stdout, banner) = serve_snapshot(&path);
    assert_eq!(std::fs::read(&path).expect("published"), want);
    let published = std::fs::metadata(&path).expect("published metadata");
    let first = route_then_shutdown(child, &banner);
    untouched(&published, "the drain");

    let (child, _stdout, banner) = serve_snapshot(&path);
    let again = route_then_shutdown(child, &banner);
    untouched(&published, "the restart");
    assert_eq!(again, first, "the restart answers differently");
    assert!(first.contains(r#""status":"ok""#), "{first}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_mid_save_recovers_the_last_good_snapshot() {
    let dir = scratch_dir("crash");
    let path = dir.join("u.iruniv");
    let want = reference_bytes();

    // Stagger the kill offset so different rounds land in different write
    // phases; every one of them must leave a recoverable file.
    for round in 0..4u64 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ir-serve"))
            .args([
                "--torture-save",
                path.to_str().expect("utf8 path"),
                "--scale",
                "tiny",
                "--seed",
                "7",
                "--prefixes",
                "8",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn torture-save");
        // Wait for the first publish so there is a last-good to recover.
        let t0 = Instant::now();
        while !path.exists() {
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "torture-save never published"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Let it loop a while, then SIGKILL mid-write.
        std::thread::sleep(Duration::from_millis(40 + 37 * round));
        child.kill().expect("SIGKILL");
        let _ = child.wait();

        // Restart path: recovery discards staging debris and loads the
        // last published image — byte-identical to the reference.
        let recovered = RoutingUniverse::recover_snapshot(&path)
            .unwrap_or_else(|e| panic!("round {round}: recovery failed: {e}"));
        assert_eq!(
            recovered.to_snapshot_bytes().expect("recovered encodes"),
            want,
            "round {round}: recovered snapshot differs from last-good"
        );
        let staging = ir_bgp::snapshot_staging_path(&path);
        assert!(
            !staging.exists(),
            "round {round}: recovery left staging debris"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
