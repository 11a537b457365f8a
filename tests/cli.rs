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
    // n_sent ≈ 50041 (paper); our rounding gives 50046.
    assert!(stdout.contains("n_sent = 500"), "{stdout}");
    assert!(stdout.contains("sufficient"));
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
        "--tx",
        "4",
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
