//! Integration tests for the `fec-broadcast` command-line binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fec-broadcast"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("recommend"));
}

#[test]
fn no_arguments_fails_with_usage() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn recommend_unknown_channel() {
    let (ok, stdout, _) = run(&["recommend"]);
    assert!(ok);
    assert!(stdout.contains("LDGM Triangle + tx_model_4"));
}

#[test]
fn recommend_known_low_loss_channel_matches_paper() {
    let (ok, stdout, _) = run(&["recommend", "--p", "0.0109", "--q", "0.7915"]);
    assert!(ok, "{stdout}");
    // §6.2.1's winner comes first.
    let first = stdout
        .lines()
        .find(|l| l.starts_with("1."))
        .expect("ranked output");
    assert!(first.contains("LDGM Staircase + tx_model_2"), "{first}");
}

#[test]
fn plan_reproduces_section_6_2_1() {
    let (ok, stdout, _) = run(&[
        "plan", "--k", "48829", "--ratio", "1.5", "--inef", "1.011", "--p", "0.0109", "--q",
        "0.7915",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("n = 73243"), "{stdout}");
    // Equation 3: n_sent ≈ 50041 (paper); our rounding gives 50046.
    assert!(stdout.contains("n_sent = 500"), "{stdout}");
    // The exact law: each receiver decodes w.p. 0.999 from 50 149 sends.
    assert!(stdout.contains("send 50149 packets"), "{stdout}");
}

#[test]
fn plan_requires_its_arguments() {
    let (ok, _, stderr) = run(&["plan", "--k", "100"]);
    assert!(!ok);
    assert!(stderr.contains("required"));
}

#[test]
fn sweep_tiny_prints_paper_table() {
    let (ok, stdout, _) = run(&[
        "sweep", "--code", "rse", "--tx", "5", "--ratio", "2.5", "--k", "200", "--runs", "3",
        "--coarse",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("p \\ q"), "{stdout}");
    assert!(stdout.contains("grand mean"));
}

#[test]
fn sweep_rejects_bad_code() {
    let (ok, _, stderr) = run(&["sweep", "--code", "raptor", "--tx", "1", "--ratio", "1.5"]);
    assert!(!ok);
    assert!(stderr.contains("no registered codec matches"));
    assert!(
        stderr.contains("ldgm-staircase"),
        "lists what is registered"
    );
}

#[test]
fn codecs_lists_the_registry() {
    let (ok, stdout, _) = run(&["codecs"]);
    assert!(ok);
    for id in ["rse", "ldgm-staircase", "ldgm-triangle", "ldgm-plain"] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
    assert!(stdout.contains("129"), "FTI ids shown");
}

#[test]
fn code_arguments_accept_any_registered_spelling() {
    for spelling in ["triangle", "ldgm-triangle", "LdgmTriangle"] {
        let (ok, stdout, _) = run(&[
            "sweep", "--code", spelling, "--tx", "4", "--ratio", "2.5", "--k", "60", "--runs", "1",
            "--coarse",
        ]);
        assert!(ok, "--code {spelling} must resolve");
        assert!(stdout.contains("LDGM Triangle"));
    }
}

#[test]
fn map_draws_the_region() {
    let (ok, stdout, _) = run(&["map", "--ratio", "1.5"]);
    assert!(ok);
    assert!(stdout.contains('#'));
    assert!(stdout.contains("67% delivery"));
}

#[test]
fn adapt_runs_the_closed_loop() {
    let (ok, stdout, _) = run(&["adapt", "--k", "200", "--epochs", "8", "--window", "1500"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("closed loop: k = 200"), "{stdout}");
    assert!(stdout.contains("regimes (cycling):"));
    // Per-epoch table and the comparison summary are printed.
    assert!(stdout.contains("decision"));
    assert!(stdout.contains("adaptive    :"));
    assert!(stdout.contains("static best :"));
    assert!(stdout.contains("static worst:"));
    assert!(stdout.contains("oracle gap"));
}

/// A window shorter than the controller's minimum observation count
/// (the engine's 500 > 150) is trusted once full, so the loop
/// still estimates instead of silently staying on its prior.
#[test]
fn adapt_with_a_short_window_still_estimates() {
    let (ok, stdout, _) = run(&["adapt", "--k", "400", "--epochs", "12", "--window", "150"]);
    assert!(ok, "{stdout}");
    let estimated = stdout
        .lines()
        .filter_map(|line| line.split_whitespace().nth(2))
        .any(|bound| bound.ends_with('%') && bound.trim_end_matches('%').parse::<f64>().is_ok());
    assert!(estimated, "no epoch printed a numeric est-bound:\n{stdout}");
}

#[test]
fn adapt_validates_arguments() {
    let (ok, _, stderr) = run(&["adapt", "--epochs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("must be positive"));
    let (ok, _, stderr) = run(&["adapt", "--window", "1"]);
    assert!(!ok);
    assert!(stderr.contains("--window"));
}

#[test]
fn bad_number_is_reported() {
    let (ok, _, stderr) = run(&["map", "--ratio", "lots"]);
    assert!(!ok);
    assert!(stderr.contains("not a number"));
}

#[test]
fn duplicate_flag_is_reported() {
    let (ok, _, stderr) = run(&["map", "--ratio", "1.5", "--ratio", "2.5"]);
    assert!(!ok);
    assert!(stderr.contains("given twice"));
}

/// A flag a subcommand does not read is an error naming the flag and the
/// subcommand — not a run at the defaults (`send --rato 2.5` used to
/// broadcast at ratio 1.5 and exit 0). One misspelling per subcommand,
/// each beside arguments that are otherwise complete.
#[test]
fn unknown_flags_are_refused_per_subcommand() {
    let cases = [
        ("codecs --verbose", "--verbose for 'codecs'"),
        ("recommend --hi-loss", "--hi-loss for 'recommend'"),
        (
            "plan --k 100 --ratio 1.5 --inef 1.05 --p 0.01 --q 0.5 --tolerence 3",
            "--tolerence for 'plan'",
        ),
        (
            "plan --k 100 --ratio 1.5 --inef 1.05 --p 0.01 --q 0.5 --tolerance 3",
            "--tolerance for 'plan'",
        ),
        (
            "sweep --code rse --tx 5 --ratio 2.5 --k 100 --runs 1 --coarse --threads 4",
            "--threads for 'sweep'",
        ),
        (
            "merge a.partial.json --output merged.json",
            "--output for 'merge'",
        ),
        ("map --rato 2.0", "--rato for 'map'"),
        ("adapt --k 100 --epoch 3", "--epoch for 'adapt'"),
        (
            "send --file Cargo.toml --dest 127.0.0.1:9 --rato 2.5",
            "--rato for 'send'",
        ),
        (
            "recv --listen 127.0.0.1:0 --time-out 1",
            "--time-out for 'recv'",
        ),
    ];
    for (line, named) in cases {
        let (ok, stdout, stderr) = run(&line.split(' ').collect::<Vec<_>>());
        assert!(!ok, "{line} ran: {stdout}");
        assert!(
            stderr.starts_with(&format!("error: unknown option {named}\n")),
            "{line}: {stderr}"
        );
    }
}

/// `recv`'s report-shaping flags act on reports: without `--report-to`
/// they used to enable nothing and exit 0.
#[test]
fn report_flags_need_a_report_destination() {
    for flag in [
        "--nack",
        "--population",
        "--jitter-seed",
        "--backoff",
        "--report-every",
    ] {
        let (ok, _, stderr) = run(&["recv", "--listen", "127.0.0.1:0", flag, "2"]);
        assert!(!ok, "{flag}");
        assert!(
            stderr.starts_with(&format!(
                "error: unknown option {flag} for 'recv' without --report-to\n"
            )),
            "{flag}: {stderr}"
        );
    }
}

/// A value too wide for where it lands is an error, not a wrap
/// (`--tsi 4294967297` used to join session 1).
#[test]
fn thirty_two_bit_flags_are_range_checked() {
    for line in [
        "recv --listen 127.0.0.1:0 --tsi 4294967297",
        "send --file Cargo.toml --dest 127.0.0.1:9 --tsi 4294967297",
        "sweep --code rse --tx 5 --ratio 2.5 --k 100 --coarse --runs 4294967297",
        "adapt --k 100 --epochs 4294967297",
        "recv --listen 127.0.0.1:0 --report-to 127.0.0.1:9 --backoff 4294967297",
    ] {
        let (ok, _, stderr) = run(&line.split(' ').collect::<Vec<_>>());
        assert!(!ok, "{line}");
        assert!(
            stderr.contains("4294967297 does not fit in 32 bits"),
            "{line}: {stderr}"
        );
    }
}

/// A receiver tracks at most 64 per-path EXT_SEQ spaces, so a 65th
/// `--listen` socket (or `--paths` destination) would share a track with
/// another path: both lists are refused before any socket is bound.
#[test]
fn more_paths_than_sequence_tracks_are_rejected() {
    let addrs = |n: usize| -> String {
        (0..n)
            .map(|i| format!("127.0.0.1:{}", 40_000 + i))
            .collect::<Vec<_>>()
            .join(",")
    };
    let (ok, _, stderr) = run(&["recv", "--listen", &addrs(65)]);
    assert!(!ok);
    assert!(
        stderr.contains("--listen names 65 addresses; a session has at most 64 paths"),
        "{stderr}"
    );
    let (ok, _, stderr) = run(&["send", "--file", "Cargo.toml", "--paths", &addrs(65)]);
    assert!(!ok);
    assert!(
        stderr.contains("--paths names 65 addresses; a session has at most 64 paths"),
        "{stderr}"
    );
}

/// Full send/recv round trip over loopback UDP with injected loss: the
/// receiver is started first, the sender broadcasts a temp file at ratio
/// 2.5 through a 10% Gilbert channel, and the reconstructed file must be
/// byte-identical.
#[test]
fn send_recv_roundtrip_over_udp() {
    use std::net::UdpSocket;

    let dir = std::env::temp_dir().join(format!("fec-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let src_path = dir.join("payload.bin");
    let out_path = dir.join("decoded.bin");
    let payload: Vec<u8> = (0..200_000usize).map(|i| (i * 37 % 251) as u8).collect();
    std::fs::write(&src_path, &payload).expect("write temp file");

    // Reserve a free UDP port, then release it for the receiver process.
    let port = {
        let probe = UdpSocket::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("addr").port()
    };
    let listen = format!("127.0.0.1:{port}");

    let receiver = Command::new(env!("CARGO_BIN_EXE_fec-broadcast"))
        .args([
            "recv",
            "--listen",
            &listen,
            "--tsi",
            "9",
            "--out",
            out_path.to_str().expect("utf8 path"),
            "--timeout",
            "30",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn receiver");
    // Give the receiver a moment to bind.
    std::thread::sleep(std::time::Duration::from_millis(300));

    let (ok, stdout, stderr) = run(&[
        "send",
        "--file",
        src_path.to_str().expect("utf8 path"),
        "--dest",
        &listen,
        "--tsi",
        "9",
        "--code",
        "triangle",
        // Sequential, so decoding completes near the end of the schedule:
        // under a random one the receiver could decode, exit and refuse
        // the rest of the send (1 run in 5 of this suite at b1de77a).
        "--tx",
        "1",
        "--ratio",
        "2.5",
        "--loss-p",
        "0.04",
        "--loss-q",
        "0.36",
    ]);
    assert!(ok, "send failed: {stdout}\n{stderr}");
    assert!(stdout.contains("datagrams transmitted"));

    let out = receiver.wait_with_output().expect("receiver exits");
    let rx_stdout = String::from_utf8_lossy(&out.stdout);
    let rx_stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "recv failed: {rx_stdout}\n{rx_stderr}"
    );
    let decoded = std::fs::read(&out_path).expect("decoded file exists");
    assert_eq!(decoded, payload, "byte-exact delivery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What each of these got wrong at cc4041b is in the comment beside it;
/// all are argument errors now: exit ≠ 0, `error: …` naming the flag,
/// the subcommand's synopsis and nothing else, nothing on stdout.
#[test]
fn arguments_a_type_rules_out_are_refused() {
    let adaptive = "send --file Cargo.toml --dest 127.0.0.1:9 --adaptive --report-addr 127.0.0.1:0";
    let cases = [
        // A switch ate the next token: `no` turned high-loss *on*.
        ("recommend --high-loss no", "unexpected argument \"no\""),
        (
            "recv --listen 127.0.0.1:0 --report-to 127.0.0.1:9 --nack 2",
            "unexpected argument \"2\"",
        ),
        // Panicked in `OnlineGilbertEstimator::new`.
        (
            &format!("{adaptive} --window 1"),
            "--window 1 must be in 2..=10000000",
        ),
        // Aborted on a 100 TB allocation.
        (
            &format!("{adaptive} --window 99999999999999"),
            "--window 99999999999999 must be in 2..=10000000",
        ),
        // Would encode 200 million symbols before the session starts.
        (
            "adapt --k 100000000 --epochs 2",
            "--k × --epochs must stay within 4194304 source symbols",
        ),
        // Silently ignored without --adaptive.
        (
            "send --file Cargo.toml --dest 127.0.0.1:9 --window 5",
            "unknown option --window for 'send' without --adaptive",
        ),
        (
            "send --file Cargo.toml --dest 127.0.0.1:9 --replan-every 9",
            "unknown option --replan-every for 'send' without --adaptive",
        ),
        (
            "sweep --code rse --tx 5 --ratio 2.5 --emit-partial",
            "unknown option --emit-partial for 'sweep' without --shard",
        ),
        // Said "--k is required".
        (
            "plan --k 0 --ratio 1.5 --inef 1.05 --p 0.01 --q 0.5",
            "--k must be positive",
        ),
        // Announced it was listening, then "cannot set a 0 duration timeout".
        (
            "recv --listen 127.0.0.1:0 --timeout 0",
            "--timeout must be positive",
        ),
        // Silently became 1.
        (
            "recv --listen 127.0.0.1:0 --report-to 127.0.0.1:9 --report-every 0",
            "--report-every must be positive",
        ),
        (
            &format!("{adaptive} --replan-every 0"),
            "--replan-every must be positive",
        ),
        // A value flag never goes without its value.
        ("map --ratio", "--ratio needs a value: --ratio <r>"),
        ("plan --k --ratio 1.5", "--k needs a value: --k <k>"),
    ];
    for (line, message) in cases {
        let (ok, stdout, stderr) = run(&line.split(' ').collect::<Vec<_>>());
        assert!(!ok && stdout.is_empty(), "{line} ran: {stdout}");
        let command = line.split(' ').next().expect("a subcommand");
        let synopsis = format!("error: {message}\n\nusage:\n  fec-broadcast {command}");
        assert!(stderr.starts_with(&synopsis), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
        // Only the failing subcommand's synopsis: no prose, no other command.
        assert_eq!(stderr.matches("fec-broadcast").count(), 1, "{stderr}");
        assert!(!stderr.contains("USAGE"), "{line}: {stderr}");
    }
}

/// A command that fails at run time says what failed and nothing else:
/// the arguments were fine, so no usage text follows.
#[test]
fn runtime_errors_print_no_usage() {
    let (ok, _, stderr) = run(&["send", "--file", "/nonexistent", "--dest", "127.0.0.1:9"]);
    assert!(!ok);
    assert!(
        stderr.starts_with("error: cannot read /nonexistent"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("USAGE") && !stderr.contains("usage"));

    let (ok, _, stderr) = run(&["merge", "/nonexistent.partial"]);
    assert!(!ok);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// `fec-broadcast … | head -1`: a reader that closes stdout early ends the
/// command quietly (it used to panic with `failed printing to stdout:
/// Broken pipe` and a backtrace). The report is four times what a pipe
/// buffers, so the command is still printing when the reader hangs up.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_fec-broadcast"))
        .args(["adapt", "--k", "50", "--epochs", "3000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::with_capacity(64, child.stdout.take().expect("piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("one line");
    assert!(first.starts_with("closed loop: k = 50"), "{first}");
    drop(stdout);
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped");
    pipe.read_to_string(&mut stderr).expect("stderr");
    assert!(stderr.is_empty(), "{stderr}");
    assert!(child.wait().expect("exits").success());
}

/// A free loopback port: bound, read and released.
fn free_port() -> String {
    let probe = std::net::UdpSocket::bind("127.0.0.1:0").expect("probe bind");
    format!("127.0.0.1:{}", probe.local_addr().expect("addr").port())
}

/// A scratch directory holding a 200 kB payload, and its path.
fn payload(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("fec-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let payload: Vec<u8> = (0..200_000usize).map(|i| (i * 41 % 251) as u8).collect();
    std::fs::write(dir.join("payload.bin"), &payload).expect("write temp file");
    (dir, payload)
}

/// Starts `recv` with `args` (after `--out <dir>/decoded.bin`) and gives
/// it a moment to bind.
fn spawn_recv(dir: &std::path::Path, args: &[&str]) -> std::process::Child {
    let out = dir.join("decoded.bin");
    let child = Command::new(env!("CARGO_BIN_EXE_fec-broadcast"))
        .args(["recv", "--tsi", "9", "--timeout", "30"])
        .args(["--out", out.to_str().expect("utf8 path")])
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn receiver");
    std::thread::sleep(std::time::Duration::from_millis(300));
    child
}

/// Waits for the receiver and checks it wrote `payload` byte-exactly.
fn assert_received(receiver: std::process::Child, dir: &std::path::Path, payload: &[u8]) {
    let out = receiver.wait_with_output().expect("receiver exits");
    assert!(
        out.status.success(),
        "recv failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let decoded = std::fs::read(dir.join("decoded.bin")).expect("decoded file exists");
    assert_eq!(decoded, payload, "byte-exact delivery");
    let _ = std::fs::remove_dir_all(dir);
}

/// A bonded send whose second destination refuses every datagram: the
/// failing path is retired (stderr names it) and the first path finishes
/// the delivery. At b1de77a the first refused send ended the session
/// with `error: Connection refused`.
#[test]
fn a_refusing_path_does_not_end_a_bonded_send() {
    let (dir, payload) = payload("retire");
    let (live, closed) = (free_port(), free_port());
    let receiver = spawn_recv(&dir, &["--listen", &live]);
    let file = dir.join("payload.bin");
    let (ok, stdout, stderr) = run(&[
        "send",
        "--file",
        file.to_str().expect("utf8 path"),
        "--paths",
        &format!("{live},{closed}"),
        "--tsi",
        "9",
        // A sequential schedule decodes only near its end, so the
        // receiver cannot exit (and refuse path 0 too) while the sender
        // still has much to send.
        "--tx",
        "1",
        "--ratio",
        "1.5",
    ]);
    assert!(ok, "send failed: {stdout}\n{stderr}");
    assert!(stderr.contains("path 1 failed"), "{stderr}");
    assert!(stdout.contains(&format!("path 1 -> {closed}")), "{stdout}");
    assert!(stdout.contains("retired:"), "{stdout}");
    assert_received(receiver, &dir, &payload);
}

/// Bonding and feedback compose over real sockets: two paths, one
/// receiver reporting with NACKs, and the sender stops on the receiver's
/// completion report before the full schedule is out.
#[test]
fn bonded_adaptive_send_over_loopback() {
    let (dir, payload) = payload("bond-adaptive");
    let (a, b, report) = (free_port(), free_port(), free_port());
    let paths = format!("{a},{b}");
    let receiver = spawn_recv(
        &dir,
        &[
            "--listen",
            &paths,
            "--report-to",
            &report,
            "--report-every",
            "64",
            "--nack",
        ],
    );
    let file = dir.join("payload.bin");
    let (ok, stdout, stderr) = run(&[
        "send",
        "--file",
        file.to_str().expect("utf8 path"),
        "--paths",
        &paths,
        "--tsi",
        "9",
        "--tx",
        "4",
        "--ratio",
        "2.5",
        "--symbol",
        "512",
        "--adaptive",
        "--report-addr",
        &report,
        "--loss-p",
        "0.01",
        "--loss-q",
        "0.6",
        // Slow enough that a receiver lagging on a loaded host is not
        // evicted as idle before its reports arrive.
        "--pace",
        "200",
    ]);
    assert!(ok, "send failed: {stdout}\n{stderr}");
    assert!(stdout.contains("path 0 ->") && stdout.contains("path 1 ->"));
    // "… reported the session complete after <sent> datagrams (<planned>
    // planned, <full> full)": the receiver's report ended the session
    // before the full schedule went out.
    let line = stderr
        .lines()
        .find(|l| l.contains("reported the session complete"))
        .unwrap_or_else(|| panic!("no completion report: {stderr}"));
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    assert!(numbers[1] < numbers[3], "{stderr}");
    assert_received(receiver, &dir, &payload);
}
