//! The configuration surface both peer binaries share: the seven common
//! settings with their validation, the hand-off of every other key to
//! the role, and the default-token policy.

use flashflow_procutil::peer::{check_token_policy, Settings};

const USAGE: &str = "usage: flashflow-fake [--listen ADDR] [--role-flag N]";

/// Parses `args` as a role that knows one flag of its own, returning
/// the settings and the values that flag was given.
fn parse(args: &[&str]) -> Result<(Settings, Vec<String>), String> {
    let mut role_flag = Vec::new();
    let settings =
        Settings::parse(args.iter().map(ToString::to_string), USAGE, &mut |key, value| {
            if key == "role-flag" {
                role_flag.push(value.to_string());
                return Ok(true);
            }
            Ok(false)
        })?;
    Ok((settings, role_flag))
}

#[test]
fn common_settings_reject_bad_values() {
    let non_hex = "zz".repeat(32);
    let cases: [(&[&str], &str); 9] = [
        (&["--speedup", "0"], "speedup must be positive and finite"),
        (&["--speedup", "-2"], "speedup must be positive and finite"),
        (&["--speedup", "inf"], "speedup must be positive and finite"),
        (&["--speedup", "NaN"], "speedup must be positive and finite"),
        (&["--speedup", "fast"], "speedup: "),
        (&["--io-threads", "0"], "io-threads must be at least 1"),
        (&["--sessions", "-1"], "sessions: "),
        (&["--token-hex", "abc"], "--token-hex wants 64 hex chars, got 3"),
        (&["--token-hex", &non_hex], "--token-hex: "),
    ];
    for (args, want) in cases {
        let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
        assert!(err.starts_with(want), "{args:?}: {err:?} does not start with {want:?}");
    }
}

#[test]
fn defaults_and_accepted_values() {
    let (defaults, _) = parse(&[]).expect("no flags is valid");
    assert_eq!(defaults.listen, "127.0.0.1:0");
    assert!(!defaults.token_explicit);
    assert_eq!((defaults.speedup, defaults.sessions, defaults.io_threads), (1.0, None, 4));
    assert_eq!((defaults.log_json, defaults.metrics_addr), (None, None));

    let token = "07".repeat(32);
    let (set, role_flag) = parse(&[
        "--listen",
        "0.0.0.0:9000",
        "--token-hex",
        &token,
        "--speedup",
        "50",
        "--sessions",
        "3",
        "--io-threads",
        "2",
        "--log-json",
        "events.jsonl",
        "--metrics-addr",
        "127.0.0.1:0",
        "--role-flag",
        "9",
    ])
    .expect("every common flag at once");
    assert_eq!(set.listen, "0.0.0.0:9000");
    assert_eq!((set.token, set.token_explicit), ([7; 32], true));
    assert_eq!((set.speedup, set.sessions, set.io_threads), (50.0, Some(3), 2));
    assert_eq!(set.log_json.as_deref(), Some("events.jsonl"));
    assert_eq!(set.metrics_addr.as_deref(), Some("127.0.0.1:0"));
    assert_eq!(role_flag, ["9"], "a key the library does not know goes to the role");
}

#[test]
fn unknown_key_carries_the_roles_usage_line() {
    let err = parse(&["--background", "5"]).expect_err("neither common nor the fake role's");
    assert_eq!(err, format!("unknown setting \"background\"\n{USAGE}"));
    assert_eq!(parse(&["--help"]).expect_err("help is the usage error"), USAGE);
}

#[test]
fn config_file_applies_first_and_the_command_line_overrides() {
    let dir = std::env::temp_dir().join(format!("ff-peer-config-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let path = dir.join("peer.conf");
    std::fs::write(
        &path,
        "# shared by both surfaces\nspeedup = 10\nio-threads=8\nrole-flag=file\n",
    )
    .expect("write config");
    let path = path.to_string_lossy().to_string();

    let (set, role_flag) =
        parse(&["--config", &path, "--speedup", "25", "--role-flag", "cli"]).expect("parse");
    assert_eq!(set.speedup, 25.0, "the later command-line flag wins");
    assert_eq!(set.io_threads, 8, "a key only the file sets survives");
    assert_eq!(role_flag, ["file", "cli"], "role keys take the same path, in the same order");

    std::fs::write(&path, "speedup = 0\n").expect("rewrite config");
    let err = parse(&["--config", &path]).expect_err("file values are validated too");
    assert!(err.ends_with(":1: speedup must be positive and finite"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_token_is_only_served_on_loopback() {
    let cases = [
        ("127.0.0.1:4000", false, true),
        ("[::1]:4000", false, true),
        ("0.0.0.0:4000", false, false),
        ("192.0.2.7:4000", false, false),
        ("[2001:db8::7]:4000", false, false),
        ("192.0.2.7:4000", true, true),
        ("[2001:db8::7]:4000", true, true),
    ];
    for (addr, token_explicit, served) in cases {
        let verdict = check_token_policy(addr.parse().expect("socket addr"), token_explicit);
        assert_eq!(verdict.is_ok(), served, "{addr} explicit={token_explicit}: {verdict:?}");
        if let Err(msg) = verdict {
            assert!(msg.starts_with(&format!("refusing to serve {addr} with the built-in")));
        }
    }
}
