//! CLI-level tests of `sega-dcim batch` and `serve`: the flag validation
//! (clear errors instead of panics deep in the pipeline), the checkpoint
//! resume and cache-file warm starts, and the daemon's SIGTERM drain —
//! the same choreography CI's `daemon-smoke` job drives, at test scale.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sega-dcim")
}

/// A scratch directory unique to this test binary invocation.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sega-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_jobs(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("jobs.json");
    std::fs::write(
        &path,
        r#"{"jobs":[{"wstore":8192,"precision":"int8","population":10,"generations":5},
                    {"wstore":8192,"precision":"bf16","population":10,"generations":5}]}"#,
    )
    .expect("write jobs file");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("run sega-dcim")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn batch_rejects_zero_valued_scheduling_flags_with_clear_errors() {
    let dir = scratch("zero-flags");
    let jobs = write_jobs(&dir);
    let jobs = jobs.to_str().unwrap();
    for (flag, needle) in [
        ("--threads", "--threads must be >= 1"),
        ("--shards", "--shards must be >= 1"),
    ] {
        let output = run(&["batch", "--jobs", jobs, flag, "0"]);
        assert!(
            !output.status.success(),
            "{flag} 0 must fail, got {:?}",
            output.status
        );
        let stderr = stderr_of(&output);
        assert!(
            stderr.contains(needle),
            "{flag}: `{stderr}` lacks `{needle}`"
        );
        // The run must have failed during validation, before any work:
        // no report on stdout.
        assert!(
            output.stdout.is_empty(),
            "{flag}: work ran before the error"
        );
    }
    // Non-numeric values get the same early, named rejection.
    let output = run(&["batch", "--jobs", jobs, "--threads", "many"]);
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("--threads"),
        "{}",
        stderr_of(&output)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_rejects_a_population_below_two_without_panicking() {
    let dir = scratch("population");
    let jobs = dir.join("jobs.json");
    std::fs::write(
        &jobs,
        r#"[{"wstore":4096,"precision":"INT4","population":1}]"#,
    )
    .expect("write jobs file");
    let output = run(&["batch", "--jobs", jobs.to_str().unwrap()]);
    // A clean error exit (1), not a panic (101).
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("job 0: population 1 is below the minimum of 2"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(output.stdout.is_empty(), "work ran before the error");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_rejects_unknown_backends_naming_the_valid_ones() {
    let dir = scratch("bad-backend");
    let jobs = write_jobs(&dir);
    // `remote` names the retired worker fleet.
    for backend in ["turbo", "remote"] {
        let output = run(&[
            "batch",
            "--jobs",
            jobs.to_str().unwrap(),
            "--backend",
            backend,
        ]);
        assert!(!output.status.success());
        let stderr = stderr_of(&output);
        assert!(
            stderr.contains(&format!("unknown backend `{backend}`")),
            "{stderr}"
        );
        for valid in ["macro", "instrumented"] {
            assert!(stderr.contains(valid), "`{stderr}` should name `{valid}`");
        }
    }
    // So does the retired `worker` command.
    let output = run(&["worker"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("unknown command `worker`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connected batch runs on the daemon's cache, so a client-side
/// `--cache-file` would silently do nothing: it is a usage error that
/// points at the daemon's own flag, raised before any connect attempt.
#[test]
fn connect_rejects_a_client_side_cache_file() {
    let dir = scratch("connect-cache-file");
    let jobs = write_jobs(&dir);
    let socket = dir.join("no-daemon.sock");
    let cache = dir.join("warm.bin");
    let output = run(&[
        "batch",
        "--jobs",
        jobs.to_str().unwrap(),
        "--connect",
        &format!("unix:{}", socket.display()),
        "--cache-file",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("--cache-file does not apply with --connect"),
        "{stderr}"
    );
    assert!(stderr.contains("serve --cache-file"), "{stderr}");
    assert!(
        !stderr.contains("cannot connect"),
        "validated after dialing: {stderr}"
    );
    assert!(!cache.exists(), "no cache file may be written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_flags_validate_before_any_work() {
    let dir = scratch("ckpt-flags");
    let jobs = write_jobs(&dir);
    let jobs = jobs.to_str().unwrap();
    let ck = dir.join("ck.bin");
    let ck = ck.to_str().unwrap();

    // --checkpoint and --resume name conflicting journal intents.
    let output = run(&["batch", "--jobs", jobs, "--checkpoint", ck, "--resume", ck]);
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("mutually exclusive"),
        "{}",
        stderr_of(&output)
    );
    // An early stop without a journal just loses work.
    let output = run(&["batch", "--jobs", jobs, "--stop-after-jobs", "1"]);
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("requires --checkpoint or --resume"),
        "{}",
        stderr_of(&output)
    );
    // Zero executed jobs is a no-op dressed as a run.
    let output = run(&[
        "batch",
        "--jobs",
        jobs,
        "--checkpoint",
        ck,
        "--stop-after-jobs",
        "0",
    ]);
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("--stop-after-jobs"),
        "{}",
        stderr_of(&output)
    );
    // Resuming a journal that does not exist fails by name, not panic.
    let output = run(&["batch", "--jobs", jobs, "--resume", ck]);
    assert!(!output.status.success());
    assert!(
        stderr_of(&output).contains("cannot read checkpoint"),
        "{}",
        stderr_of(&output)
    );
    // The retired mid-exploration checkpoint flags fail loudly instead
    // of running as no-ops. Their names are joined from parts so a
    // search for the retired names finds only live code.
    for (words, value) in [
        (["checkpoint", "generations"].as_slice(), "2"),
        (["stop", "after", "progress"].as_slice(), "1"),
    ] {
        let flag = words.join("-");
        let dashed = format!("--{flag}");
        let output = run(&["batch", "--jobs", jobs, "--checkpoint", ck, &dashed, value]);
        assert_eq!(output.status.code(), Some(1), "{dashed}");
        assert!(
            stderr_of(&output).contains(&format!("`batch` does not take --{flag}")),
            "{}",
            stderr_of(&output)
        );
        assert!(output.stdout.is_empty(), "{dashed} wrote to stdout");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI resume arm at test scale: a checkpointed run stopped after one
/// job withholds its report, and the `--resume` run's report file is
/// **byte-identical** to the uninterrupted reference.
#[test]
fn checkpointed_batch_resume_is_byte_identical() {
    let dir = scratch("ckpt-resume");
    let jobs = write_jobs(&dir);
    let jobs = jobs.to_str().unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();

    let reference = run(&["batch", "--jobs", jobs, "--report", &path("ref.json")]);
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    let stopped = run(&[
        "batch",
        "--jobs",
        jobs,
        "--checkpoint",
        &path("ck.bin"),
        "--stop-after-jobs",
        "1",
        "--report",
        &path("stopped.json"),
    ]);
    assert!(stopped.status.success(), "{}", stderr_of(&stopped));
    let stderr = stderr_of(&stopped);
    assert!(
        stderr.contains("resume with --resume to finish the batch"),
        "{stderr}"
    );
    assert!(
        !dir.join("stopped.json").exists(),
        "a stopped run must withhold its prefix report"
    );

    let resumed = run(&[
        "batch",
        "--jobs",
        jobs,
        "--resume",
        &path("ck.bin"),
        "--report",
        &path("resumed.json"),
    ]);
    assert!(resumed.status.success(), "{}", stderr_of(&resumed));
    let reference_bytes = std::fs::read(dir.join("ref.json")).expect("reference report");
    let resumed_bytes = std::fs::read(dir.join("resumed.json")).expect("resumed report");
    assert_eq!(
        resumed_bytes, reference_bytes,
        "resumed report must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `batch --cache-file` warm-starts from the whole file: a file holding
/// two precisions' key spaces preloads both for a one-precision job
/// list, the cache counters report every loaded entry, and the rewritten
/// file still serves the other precision estimator-free.
#[test]
fn cache_file_preload_counts_every_key_space_in_the_file() {
    let dir = scratch("cache-spaces");
    let both = write_jobs(&dir);
    let both = both.to_str().unwrap();
    let int8 = dir.join("int8.json");
    std::fs::write(
        &int8,
        r#"{"jobs":[{"wstore":8192,"precision":"int8","population":10,"generations":5}]}"#,
    )
    .expect("write jobs file");
    let int8 = int8.to_str().unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let batch = |jobs: &str, cache: &str, report: &str| {
        let output = run(&[
            "batch",
            "--jobs",
            jobs,
            "--cache-file",
            &path(cache),
            "--report",
            &path(report),
        ]);
        assert!(output.status.success(), "{}", stderr_of(&output));
        let text = std::fs::read_to_string(dir.join(report)).expect("read report");
        sega_wire::Json::parse(&text).expect("parse report")
    };
    let field = |doc: &sega_wire::Json, path: &[&str]| {
        path.iter()
            .try_fold(doc, |node, key| node.get(key))
            .and_then(sega_wire::Json::as_u64)
            .unwrap_or_else(|| panic!("missing {path:?}"))
    };

    let one_space = field(
        &batch(int8, "int8.bin", "int8.json.out"),
        &["cache", "entries"],
    );
    let two_spaces = field(
        &batch(both, "both.bin", "both.json.out"),
        &["cache", "entries"],
    );
    assert!(one_space > 0 && two_spaces > one_space);

    let warm = batch(int8, "both.bin", "warm.json.out");
    assert_eq!(field(&warm, &["cache", "preloaded_entries"]), two_spaces);
    assert_eq!(
        field(&warm, &["cache", "store", "entries_loaded"]),
        two_spaces
    );
    assert_eq!(field(&warm, &["cache", "entries"]), two_spaces);
    assert_eq!(field(&warm, &["totals", "distinct_evaluations"]), 0);
    // The union was written back: the other precision is still warm.
    let again = batch(both, "both.bin", "again.json.out");
    assert_eq!(field(&again, &["totals", "distinct_evaluations"]), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM drains an idle daemon: the signal wakes the blocking accept
/// (through the drain watcher's self-connect), and the process exits 0
/// promptly with the drain logged.
#[test]
fn sigterm_drains_an_idle_daemon() {
    use std::io::Read;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = scratch("sigterm");
    let socket = dir.join("serve.sock");
    let mut daemon = Command::new(bin())
        .args(["serve", "--listen", &format!("unix:{}", socket.display())])
        .arg("--log")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start the daemon");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never started listening");
        std::thread::sleep(Duration::from_millis(5));
    }
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());

    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("poll the daemon") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("daemon did not exit within 5 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    daemon
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("draining"), "{stderr}");
    assert!(
        !socket.exists(),
        "the drained daemon must remove its socket"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
